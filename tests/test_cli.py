import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import lamp_entropy
from lamp_entropy import (
    DEFAULT_RARE_TOKEN,
    KernelDistribution,
    LampModel,
    fit_lamp_em,
    load_sequences,
    preprocess,
    save_matrix_csv,
    save_matrix_json,
    save_model,
    simulate_markov,
    validate_stochastic,
)
from lamp_entropy import corpus as corpus_module
from lamp_entropy.cli import build_parser, main
from lamp_entropy.corpus import DEFAULT_MIN_COUNT
from lamp_entropy.estimators import DEFAULT_SWEEP_EXPONENTS
from lamp_entropy.fitting import DEFAULT_EM_MAX_ITER, DEFAULT_EM_TOL

from test_corpus import corpus_files
from test_markov import random_ergodic


@pytest.fixture
def chain():
    return validate_stochastic([[0.2, 0.8], [0.7, 0.3]], ["a", "b"])


@pytest.fixture
def model_path(tmp_path, chain):
    path = tmp_path / "model.json"
    save_model(LampModel(chain, KernelDistribution([0.5, 0.5])), path)
    return path


@pytest.fixture
def cycle_corpus(tmp_path):
    path = tmp_path / "cycle.lines"
    path.write_text((" ".join(["a", "b"] * 200)) + "\n", encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path, model_path):
        out1, out2 = tmp_path / "s1.lines", tmp_path / "s2.lines"
        base = ["simulate", "--model", model_path, "--steps", 1000, "--seed", 7]
        assert run(base + ["--output", out1]) == 0
        assert run(base + ["--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().split()) == 1000
        sidecar = json.loads((tmp_path / "s1.lines.run.json").read_text())
        assert sidecar["subcommand"] == "simulate"
        assert sidecar["params"]["seed"] == 7

    def test_label_with_whitespace_is_rejected(self, tmp_path, capsys):
        spaced = validate_stochastic([[0.2, 0.8], [0.7, 0.3]], ["new york", "b"])
        model = tmp_path / "spaced.json"
        save_model(LampModel(spaced, KernelDistribution([1.0])), model)
        out = tmp_path / "s.lines"
        code = run(["simulate", "--model", model, "--steps", 10, "--output", out])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnwritableLabelError"
        assert "'new york'" in err["message"]
        assert not out.exists()

    def test_seed_changes_output(self, tmp_path, model_path):
        out1, out2 = tmp_path / "s1.lines", tmp_path / "s2.lines"
        run(["simulate", "--model", model_path, "--steps", 500, "--seed", 1, "--output", out1])
        run(["simulate", "--model", model_path, "--steps", 500, "--seed", 2, "--output", out2])
        assert out1.read_bytes() != out2.read_bytes()

    def test_matrix_json_and_csv(self, tmp_path, chain):
        jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
        save_matrix_json(chain, jpath)
        save_matrix_csv(chain, cpath)
        out1, out2 = tmp_path / "o1.lines", tmp_path / "o2.lines"
        assert run(["simulate", "--matrix", jpath, "--steps", 100, "--seed", 3, "--output", out1]) == 0
        assert run(["simulate", "--matrix", cpath, "--steps", 100, "--seed", 3, "--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_init_label(self, tmp_path, model_path):
        out = tmp_path / "s.lines"
        run(["simulate", "--model", model_path, "--steps", 5, "--seed", 0, "--init", "b", "--output", out])
        assert out.read_text().split()[0] == "b"

    def test_model_and_matrix_conflict(self, tmp_path, model_path, capsys):
        code = run(
            ["simulate", "--model", model_path, "--matrix", model_path, "--steps", 10, "--output", tmp_path / "x"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestFit:
    def test_fit_writes_model_and_report(self, tmp_path, chain):
        corpus_path = tmp_path / "c.lines"
        tokens = simulate_markov(chain, 5000, seed=9)
        corpus_path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        model_out = tmp_path / "fit.json"
        report_out = tmp_path / "fit.report.json"
        code = run(
            ["fit", "--input", corpus_path, "--k", 2, "--min-count", 1,
             "--output", model_out, "--report", report_out]
        )
        assert code == 0
        model_doc = json.loads(model_out.read_text())
        assert set(model_doc) == {"labels", "rows", "kernel"}
        assert len(model_doc["kernel"]) == 2
        report = json.loads(report_out.read_text())
        trace = report["log_likelihood_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert report["config"]["params"]["k"] == 2
        assert report["preprocessing"]["min_count"] == 1

    def test_fit_report_embeds_the_model_file(self, tmp_path):
        # About 300 states, some with labels that json escapes.
        rng = np.random.default_rng(70)
        labels = [f"s{i}" for i in range(280)] + [f'q"{i}' for i in range(10)]
        labels += [f"\u00fc\\{i}" for i in range(10)]
        succ = rng.integers(0, len(labels), size=(len(labels), 4))
        lines = []
        for _ in range(40):
            state = int(rng.integers(len(labels)))
            toks = []
            for _ in range(150):
                toks.append(labels[state])
                state = int(succ[state, rng.integers(4)])
            lines.append(" ".join(toks))
        corpus_path = tmp_path / "c.lines"
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model_out, report_out = tmp_path / "fit.json", tmp_path / "fit.report.json"
        assert run(["fit", "--input", corpus_path, "--k", 2, "--min-count", 1,
                    "--max-iter", 4, "--output", model_out, "--report", report_out]) == 0
        report_text = report_out.read_text(encoding="utf-8")
        report = json.loads(report_text)
        assert report["model"] == json.loads(model_out.read_text(encoding="utf-8"))
        assert len(report["model"]["labels"]) > 290
        # The bytes the report had when it was json.dumps of a plain document.
        cleaned, stages = preprocess(load_sequences(corpus_path), 1, DEFAULT_RARE_TOKEN)
        fit = fit_lamp_em(cleaned, 2, max_iter=4, tol=1e-6)
        old = {
            **fit.to_json_dict(),
            "preprocessing": {"min_count": 1, "rare_token": DEFAULT_RARE_TOKEN, "stages": stages},
            "config": report["config"],
        }
        assert report_text == json.dumps(old, indent=2) + "\n"
        assert '\\u00fc\\\\' in report_text and 'q\\"' in report_text

    def test_fit_short_sequence_fails_cleanly(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.lines"
        # One-token sequences hold no transition: with nothing else, nothing to fit.
        corpus_path.write_text("a\nb\na\n", encoding="utf-8")
        code = run(["fit", "--input", corpus_path, "--k", 2, "--min-count", 1,
                    "--output", tmp_path / "m.json"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "EmptyCorpusError"
        assert err["subcommand"] == "fit"
        # Beside longer sequences, a one-token sequence is fitted as holding none.
        corpus_path.write_text("a b a b a b a b\nc\n", encoding="utf-8")
        for argv in (["fit", "--output", tmp_path / "m.json"],
                     ["entropy", "--method", "lamp", "--output", tmp_path / "r.json"],
                     ["sweep", "--model-kind", "lamp", "--output", tmp_path / "s.csv"]):
            assert run([*argv, "--input", corpus_path, "--k", 2, "--min-count", 1]) == 0, argv


class TestEntropy:
    def test_markov_largest_cc_on_cycle(self, tmp_path, cycle_corpus):
        out = tmp_path / "report.json"
        code = run(
            ["entropy", "--input", cycle_corpus, "--method", "markov",
             "--conditioning", "largest-cc", "--min-count", 1, "--output", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "markov_largest_cc"
        assert doc["bits_per_symbol"] == 0.0
        assert doc["config"]["subcommand"] == "entropy"

    def test_all_methods_produce_reports(self, tmp_path, chain):
        corpus_path = tmp_path / "c.lines"
        tokens = simulate_markov(chain, 3000, seed=10)
        corpus_path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
        for method in ["sequence-level", "path-level", "stationary", "markov", "lamp"]:
            out = tmp_path / f"{method}.json"
            args = ["entropy", "--input", corpus_path, "--method", method,
                    "--min-count", 1, "--output", out]
            if method == "lamp":
                args += ["--k", 2]
            assert run(args) == 0
            doc = json.loads(out.read_text())
            assert doc["bits_per_symbol"] >= 0.0
            assert doc["preprocessing"]["stages"][-1]["stage"] == "dedupe"

    def test_lamp_needs_k(self, tmp_path, cycle_corpus, capsys):
        code = run(["entropy", "--input", cycle_corpus, "--method", "lamp",
                    "--min-count", 1, "--output", tmp_path / "x.json"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_missing_input_reports_io_error(self, tmp_path, capsys):
        code = run(["entropy", "--input", tmp_path / "nope.lines", "--method", "markov",
                    "--output", tmp_path / "x.json"])
        assert code == 1
        assert "Error" in json.loads(capsys.readouterr().err)["error"]


class TestSweep:
    def test_irreducible_corpus_recommends_top_exponent(self, tmp_path):
        rng = np.random.default_rng(60)
        chain = random_ergodic(3, rng)
        corpus_path = tmp_path / "c.lines"
        corpus_path.write_text(" ".join(simulate_markov(chain, 30_000, seed=11)) + "\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--input", corpus_path, "--model-kind", "markov",
                    "--i-max", 25, "--min-count", 1, "--output", out])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["i"] for r in rows] == [str(i) for i in range(1, 26)]
        assert float(rows[0]["p"]) == 0.5
        sidecar = json.loads((tmp_path / "sweep.csv.run.json").read_text())
        assert sidecar["recommended_exponent"] == 25

    def test_lamp_kind_needs_k(self, tmp_path, cycle_corpus, capsys):
        code = run(["sweep", "--input", cycle_corpus, "--model-kind", "lamp",
                    "--min-count", 1, "--output", tmp_path / "s.csv"])
        assert code == 2

    def test_i_max_beyond_the_smallest_double_is_rejected(self, tmp_path, cycle_corpus, capsys):
        # 2.0**-1075 == 0.0: rejected before the model is fitted.
        out = tmp_path / "s.csv"
        code = run(["sweep", "--input", cycle_corpus, "--min-count", 1,
                    "--i-min", 1070, "--i-max", 1075, "--output", out])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_i_max_at_the_smallest_double_runs(self, tmp_path, cycle_corpus):
        out = tmp_path / "s.csv"
        code = run(["sweep", "--input", cycle_corpus, "--min-count", 1,
                    "--i-min", 1073, "--i-max", 1074, "--output", out])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["p"]) for r in rows] == [2.0**-1073, 2.0**-1074]
        # The 2-cycle has rate 0; what is left is p's own tiny share.
        assert all(0.0 < float(r["raw_bits"]) < 1e-300 for r in rows)


# Each rejected command line: the flag its error must name, and the flags
# after the subcommand (the test adds a missing --input, or --model).
BAD_FLAGS = {
    "fit-k": ("--k", ["fit", "--k", 0, "--output", "m.json"]),
    "fit-max-iter": ("--max-iter", ["fit", "--k", 2, "--max-iter", 0, "--output", "m.json"]),
    "entropy-k": ("--k", ["entropy", "--method", "lamp", "--k", 0, "--output", "r.json"]),
    "sweep-k": ("--k", ["sweep", "--model-kind", "lamp", "--k", 0, "--output", "s.csv"]),
    "min-count": ("--min-count", ["preprocess", "--min-count", 0, "--output", "c.lines"]),
    "max-lag": ("--max-lag", ["profile", "--max-lag", 0, "--output", "p.csv"]),
    "p-artificial": (
        "--p-artificial", ["entropy", "--method", "markov", "--p-artificial", 0, "--output", "r.json"]
    ),
    "tol-nan": ("--tol", ["fit", "--k", 2, "--tol", "nan", "--output", "m.json"]),
    "group-col-minus-5": ("--group-col", ["profile", "--format", "tsv", "--group-col", -5,
                                          "--item-col", 1, "--max-lag", 1, "--output", "p.csv"]),
    "group-col-minus-1": ("--group-col", ["profile", "--format", "tsv", "--group-col", -1,
                                          "--item-col", 1, "--max-lag", 1, "--output", "p.csv"]),
    "item-col-minus-1": ("--item-col", ["preprocess", "--format", "tsv", "--group-col", 0,
                                        "--item-col", -1, "--output", "c.lines"]),
    "i-min-0": ("--i-min", ["sweep", "--i-min", 0, "--output", "s.csv"]),
    "i-max-below-i-min": ("--i-min", ["sweep", "--i-min", 5, "--i-max", 3, "--output", "s.csv"]),
    "tsv-without-columns": (
        "--group-col", ["profile", "--format", "tsv", "--max-lag", 1, "--output", "p.csv"]
    ),
    "steps-0": ("--steps", ["simulate", "--steps", 0, "--output", "s.lines"]),
    "seed-minus-1": ("--seed", ["simulate", "--steps", 5, "--seed", -1, "--output", "s.lines"]),
    # Malformed, missing and unknown flags leave by the same path as out-of-range ones.
    "k-not-a-number": ("--k", ["fit", "--k", "abc", "--output", "m.json"]),
    "unknown-method": ("--method", ["entropy", "--method", "nope", "--output", "r.json"]),
    "missing-output": ("--output", ["fit", "--k", 2]),
    "no-subcommand": ("subcommand", []),
    "i-max-1075": ("--i-max", ["sweep", "--i-max", 1075, "--output", "s.csv"]),
    # 2.0**-(10**400) would raise OverflowError, not give 0.0.
    "i-max-beyond-a-float": ("--i-max", ["sweep", "--i-max", 10**400, "--output", "s.csv"]),
    # A flag's range holds even where the chosen method does not read the flag.
    "p-artificial-largest-cc": ("--p-artificial", ["entropy", "--method", "markov", "--conditioning",
                                                   "largest-cc", "--p-artificial", 0, "--output", "r.json"]),
    "k-0-markov": ("--k", ["entropy", "--method", "markov", "--k", 0, "--output", "r.json"]),
}


@pytest.mark.parametrize("flag, argv", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
def test_invalid_number_rejected_before_loading(tmp_path, capsys, flag, argv):
    # The input does not exist: reading it first would exit 1 with an I/O error.
    if argv:
        source = "--model" if argv[0] == "simulate" else "--input"
        argv = [argv[0], source, tmp_path / "nope.lines", *argv[1:]]
    assert run(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError"
    assert flag in err["message"]
    assert err["subcommand"] == (argv[0] if argv else None)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--version"], f"lamp-entropy {lamp_entropy.__version__}\n"),
        (["--help"], "usage: lamp-entropy [-h] [--version]"),
        (["fit", "--help"], "usage: lamp-entropy fit [-h]"),
    ],
)
def test_help_and_version_exit_0(capsys, argv, text):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith(text)
    assert out.err == ""


# Each input file is malformed in one way; the option that reads it.
MALFORMED_INPUTS = {
    "model-not-json": ("--model", "m.json", b'{"labels": ["a", "b"],'),
    "model-without-kernel": ("--model", "m.json", b'{"labels": ["a"], "rows": [[1.0]]}'),
    "model-integer-labels": (
        "--model", "m.json", b'{"labels": [0, 1], "rows": [[0.5, 0.5], [1, 0]], "kernel": [1]}'
    ),
    "model-string-labels": (
        "--model", "m.json", b'{"labels": "ab", "rows": [[0.5, 0.5], [0.5, 0.5]], "kernel": [1.0]}'
    ),
    # A dict's keys would load as the states: labels are a list, in state order.
    "model-dict-labels": (
        "--model", "m.json",
        b'{"labels": {"a": 0, "b": 1}, "rows": [[0.5, 0.5], [0.5, 0.5]], "kernel": [1.0]}',
    ),
    "matrix-csv-ragged": ("--matrix", "m.csv", b"a,b\n0.5,0.5\n1.0\n"),
    "matrix-csv-non-numeric": ("--matrix", "m.csv", b"a,b\n0.5,half\n1.0,0.0\n"),
    "corpus-not-utf8": ("--input", "c.lines", b"a b \xff a b\n"),
}


def malformed_argv(tmp_path, case):
    option, name, content = MALFORMED_INPUTS[case]
    path = tmp_path / name
    path.write_bytes(content)
    if option == "--input":
        return ["entropy", "--input", path, "--method", "markov", "--output", tmp_path / "r.json"]
    return ["simulate", option, path, "--steps", 5, "--output", tmp_path / "s.lines"]


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_file_is_one_json_error(tmp_path, capsys, case):
    assert run(malformed_argv(tmp_path, case)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "MalformedFileError"
    assert MALFORMED_INPUTS[case][1] in err["message"]


@pytest.mark.parametrize(
    "case", ["model-without-kernel", "corpus-not-utf8", "model-string-labels", "model-dict-labels"]
)
def test_module_entry_point_exits_1_with_one_json_line(tmp_path, case):
    argv = [str(a) for a in malformed_argv(tmp_path, case)]
    env = {**os.environ, "PYTHONPATH": str(Path(lamp_entropy.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "lamp_entropy", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert json.loads(line)["error"] == "MalformedFileError"


def test_cli_defaults_are_the_library_defaults(tmp_path, cycle_corpus):
    parser = build_parser()
    for argv in (["fit", "--k", "2"], ["entropy", "--method", "lamp"], ["sweep"]):
        args = parser.parse_args([*argv, "--input", "c", "--output", "o"])
        assert (args.max_iter, args.tol) == (DEFAULT_EM_MAX_ITER, DEFAULT_EM_TOL)
        assert (args.min_count, args.rare_token) == (DEFAULT_MIN_COUNT, DEFAULT_RARE_TOKEN)
    for kind, exponents in DEFAULT_SWEEP_EXPONENTS.items():
        out = tmp_path / f"{kind}.csv"
        code = run(["sweep", "--input", cycle_corpus, "--min-count", 1, "--model-kind", kind,
                    "--k", 1, "--max-iter", 2, "--output", out])
        assert code == 0
        with open(out, newline="") as fh:
            assert [int(r["i"]) for r in csv.DictReader(fh)] == list(exponents)


class TestLogLevel:
    def test_level_name_in_any_case(self, tmp_path, monkeypatch, model_path):
        monkeypatch.setenv("LAMP_ENTROPY_LOG_LEVEL", "debug")
        out = tmp_path / "s.lines"
        code = run(["simulate", "--model", model_path, "--steps", 10, "--output", out])
        assert code == 0
        assert len(out.read_text().split()) == 10

    def test_level_is_set_on_every_run(self, tmp_path, monkeypatch, caplog, cycle_corpus):
        # basicConfig ignores its level once the root logger has a handler,
        # as it has after a first run and under pytest.
        argv = ["preprocess", "--input", cycle_corpus, "--min-count", 1, "--output", tmp_path / "c.lines"]

        def messages():
            found = [r.getMessage() for r in caplog.records if r.name.startswith("lamp_entropy")]
            caplog.clear()
            return found

        monkeypatch.setenv("LAMP_ENTROPY_LOG_LEVEL", "info")
        assert run(argv) == 0
        first = messages()
        assert first[0].startswith("corpus cache miss ")
        assert [m.split()[1] for m in first[1:]] == ["input", "dedupe", "replace_rare", "dedupe"]
        monkeypatch.setenv("LAMP_ENTROPY_LOG_LEVEL", "WARNING")
        assert run(argv) == 0
        assert messages() == []
        monkeypatch.setenv("LAMP_ENTROPY_LOG_LEVEL", "INFO")
        assert run(argv) == 0
        assert messages()[0].startswith("corpus cache hit ")

    def test_unknown_level_is_a_config_error(self, tmp_path, capsys, monkeypatch, model_path):
        monkeypatch.setenv("LAMP_ENTROPY_LOG_LEVEL", "verbose")
        out = tmp_path / "s.lines"
        code = run(["simulate", "--model", model_path, "--steps", 10, "--output", out])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["subcommand"] == "simulate"
        assert "verbose" in err["message"]
        assert not out.exists()


def run_captured(args):
    """Exit status, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


CORPUS_COMMANDS = [
    ["preprocess", "--min-count", 1],
    ["profile", "--max-lag", 1],
    ["entropy", "--method", "markov", "--min-count", 1],
]


def corpus_runs(tmp, corpus_args, cache, cold=False):
    """Each corpus command's exit status, stdout, stderr and artifact bytes,
    with LAMP_ENTROPY_CACHE_DIR set to ``cache``; ``cold`` empties the
    cache before every command."""
    results = []
    for command in CORPUS_COMMANDS:
        if cold:
            shutil.rmtree(cache, ignore_errors=True)
        out = tmp / "out"
        out.mkdir()
        with mock.patch.dict(os.environ, {"LAMP_ENTROPY_CACHE_DIR": str(cache)}):
            status = run_captured([*command, *corpus_args, "--output", out / "artifact"])
        results.append((status, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        shutil.rmtree(out)
    return results


def entries(cache):
    return sorted(p.name for p in Path(cache).iterdir()) if Path(cache).exists() else []


@pytest.fixture
def parses(monkeypatch):
    """The arguments of every load_sequences call the CLI makes."""
    calls = []

    def parse(*args):
        calls.append(args)
        return load_sequences(*args)

    monkeypatch.setattr(corpus_module, "load_sequences", parse)
    return calls


class TestCorpusCache:
    @settings(max_examples=30, deadline=None)
    @given(corpus_files())
    def test_same_bytes_cold_warm_and_off(self, case):
        data, fmt, cols = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "corpus").write_bytes(data)
            args = ["--input", tmp / "corpus", "--format", fmt]
            if fmt == "tsv":
                args += ["--group-col", cols[0], "--item-col", cols[1]]
            off = corpus_runs(tmp, args, "")
            assert not (tmp / "cache").exists()
            assert corpus_runs(tmp, args, tmp / "cache", cold=True) == off
            assert corpus_runs(tmp, args, tmp / "cache") == off

    def test_hit_parses_nothing(self, tmp_path, corpus_cache, parses):
        path = tmp_path / "corpus.lines"
        path.write_text(pinned_corpus_text(), encoding="utf-8")
        for i in range(3):
            assert run(["fit", "--input", path, "--min-count", 3, "--k", 2, "--max-iter", 3,
                        "--output", tmp_path / f"model{i}.json"]) == 0
        assert len(parses) == 1
        assert len(entries(corpus_cache)) == 1
        assert (tmp_path / "model0.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_changed_byte_or_swapped_columns_is_a_miss(self, tmp_path, corpus_cache, parses):
        path = tmp_path / "c.tsv"
        out = tmp_path / "profile.csv"
        path.write_text("u1\tx\nu1\ty\nu2\tx\n", encoding="utf-8")
        tsv = ["--input", path, "--format", "tsv", "--max-lag", 1, "--output", out]
        assert run(["profile", *tsv, "--group-col", 0, "--item-col", 1]) == 0
        assert run(["profile", *tsv, "--group-col", 1, "--item-col", 0]) == 0
        path.write_text("u1\tx\nu1\ty\nu2\tz\n", encoding="utf-8")
        assert run(["profile", *tsv, "--group-col", 0, "--item-col", 1]) == 0
        assert len(parses) == 3
        assert len(entries(corpus_cache)) == 3

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_damaged_entry_is_parsed_again_and_rewritten(self, tmp_path, corpus_cache, parses, damage):
        path = tmp_path / "corpus.lines"
        path.write_text(pinned_corpus_text(), encoding="utf-8")
        argv = ["profile", "--input", path, "--max-lag", 2, "--output", tmp_path / "p.csv"]
        assert run(argv) == 0
        first = (tmp_path / "p.csv").read_bytes()
        [name] = entries(corpus_cache)
        entry = corpus_cache / name
        data = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(data[: len(data) // 2])
        else:
            # One bit of the token codes: only the zip CRC tells.
            at = data.index(load_sequences(path).tokens.tobytes()) + 100
            entry.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :])
        assert run(argv) == 0
        assert len(parses) == 2
        assert entry.read_bytes() == data
        assert (tmp_path / "p.csv").read_bytes() == first
        assert run(argv) == 0
        assert len(parses) == 2

    def test_cache_dir_that_is_a_file_falls_back(self, tmp_path, monkeypatch, cycle_corpus):
        # chmod would not stop a root user; a path through a file stops everyone.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        args = ["--input", cycle_corpus]
        off = corpus_runs(tmp_path, args, "")
        assert all(err == "" for (_, _, err), _ in off)
        for cache in (blocker, blocker / "sub"):
            assert corpus_runs(tmp_path, args, cache) == off
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_unreadable_corpus_leaves_no_entry(self, tmp_path, corpus_cache):
        path = tmp_path / "c.lines"
        for content, error in ((b"a b \377 a b\n", "MalformedFileError"), (b"\n \n", "EmptyCorpusError")):
            path.write_bytes(content)
            code, _, err = run_captured(["entropy", "--input", path, "--method", "markov",
                                         "--output", tmp_path / "r.json"])
            assert code == 1
            [line] = err.splitlines()
            assert json.loads(line)["error"] == error
            assert entries(corpus_cache) == []

    def test_pipe_is_parsed_once_and_not_cached(self, tmp_path, corpus_cache, parses):
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write("a b a b a\nb a b\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            code = run(["profile", "--input", fifo, "--max-lag", 1, "--output", tmp_path / "p.csv"])
        finally:
            # Unblocks the writer if the run never opened the pipe.
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(10)
        assert code == 0
        assert len(parses) == 1
        assert entries(corpus_cache) == []

    def test_where_the_cache_lives(self, tmp_path, monkeypatch, cycle_corpus):
        home, xdg = tmp_path / "home", tmp_path / "xdg"
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        argv = ["profile", "--input", cycle_corpus, "--max-lag", 1, "--output", tmp_path / "p.csv"]
        monkeypatch.setenv("LAMP_ENTROPY_CACHE_DIR", "")
        assert run(argv) == 0
        assert not home.exists() and not xdg.exists()
        monkeypatch.delenv("LAMP_ENTROPY_CACHE_DIR")
        assert run(argv) == 0
        assert len(entries(xdg / "lamp-entropy")) == 1
        assert stat.S_IMODE((xdg / "lamp-entropy").stat().st_mode) == 0o700
        # A relative XDG_CACHE_HOME is ignored, as the XDG spec asks.
        for value in ("", "relative"):
            monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert run(argv) == 0
            assert len(entries(home / ".cache" / "lamp-entropy")) == 1
        assert not Path("relative").exists()
        # With no home directory to cache under, the run parses only.
        shutil.rmtree(home)

        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(Path, "home", no_home)
        assert run(argv) == 0
        assert not home.exists()

    def test_import_loads_no_hash_module(self):
        code = (
            "import sys, lamp_entropy, lamp_entropy.cli; "
            "print(sorted({'hashlib', 'unicodedata'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(lamp_entropy.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.stdout.strip() == "[]", done.stderr


class TestProfile:
    def test_profile_csv(self, tmp_path, cycle_corpus):
        out = tmp_path / "profile.csv"
        code = run(["profile", "--input", cycle_corpus, "--max-lag", 4, "--output", out])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["lag"] for r in rows] == ["1", "2", "3", "4"]
        # alternating sequence: perfect association at every lag.
        assert all(float(r["cramers_v"]) == 1.0 for r in rows)


class TestPreprocess:
    def test_cleaned_lines_and_report(self, tmp_path):
        corpus_path = tmp_path / "c.lines"
        corpus_path.write_text("a a b x a\na b b a\n", encoding="utf-8")
        out = tmp_path / "clean.lines"
        report_path = tmp_path / "clean.report.json"
        code = run(["preprocess", "--input", corpus_path, "--min-count", 2,
                    "--rare-token", "UNK", "--output", out, "--report", report_path])
        assert code == 0
        assert out.read_text() == "a b UNK a\na b a\n"
        doc = json.loads(report_path.read_text())
        stages = doc["preprocessing"]["stages"]
        assert [s["stage"] for s in stages] == ["input", "dedupe", "replace_rare", "dedupe"]
        assert doc["config"]["params"]["min_count"] == 2

    def test_label_with_whitespace_is_not_split(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.tsv"
        corpus_path.write_text("u1\tnew york\nu1\tparis\nu1\tnew york\n", encoding="utf-8")
        out = tmp_path / "clean.lines"
        code = run(["preprocess", "--input", corpus_path, "--format", "tsv",
                    "--group-col", 0, "--item-col", 1, "--min-count", 1, "--output", out])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnwritableLabelError"
        assert "'new york'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("rare_token", ["x y", "", "tab\there"])
    def test_rare_token_must_be_one_token(self, tmp_path, capsys, rare_token):
        # The input does not exist: the flag is checked before it is read.
        code = run(["preprocess", "--input", tmp_path / "nope.lines", "--min-count", 2,
                    "--rare-token", rare_token, "--output", tmp_path / "clean.lines"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_tsv_input(self, tmp_path):
        corpus_path = tmp_path / "c.tsv"
        corpus_path.write_text("u1\tx\nu1\tx\nu1\ty\nu2\tz\n", encoding="utf-8")
        out = tmp_path / "clean.lines"
        code = run(["preprocess", "--input", corpus_path, "--format", "tsv",
                    "--group-col", 0, "--item-col", 1, "--min-count", 1, "--output", out])
        assert code == 0
        assert out.read_text() == "x y\nz\n"


def pinned_corpus_text():
    """12 sequences over s0..s6 with consecutive repeats, plus tokens seen
    once: single ones, and adjacent pairs that pool into one placeholder."""
    lines = []
    for i in range(12):
        toks = [f"s{(3 * i + j * j + j // 3) % 7}" for j in range(18 + i)]
        if i % 3 == 0:
            toks.insert(5, f"once{i}")
        if i % 4 == 1:
            toks[7:7] = [f"x{i}", f"y{i}"]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


# sha256 of every artifact the commands below write, recorded before the
# corpus became flat arrays; a change that alters any byte fails here.
# sweep.csv was re-recorded when induced rates moved to a per-block
# solve (raw values moved by at most 1.4e-15 bits), and again when a
# many-point call came to sum a series in p per closed class: against
# the per-point block solve, its raw values moved by at most 8.9e-16
# bits, 14 of the 25 bit for bit.
PINNED_ARTIFACTS = {
    "clean.lines": "235504426abf7a936cb2cd2ed2c01b76ba2ea1952ef9c6ebebc7a14356edb86a",
    "clean.lines.report.json": "b240faa68b81b25ed77b54385b4fb6cf114b356159bb1cdfcc4d1d63ad6544ff",
    "clean.lines.run.json": "106e3bdab8aeb1fa8829c7152b63ca0ea8d90eb241d1c3af4f7ba7f2b8835d1e",
    "entropy.json": "8d3db492674ff7a9172a78ebfcd10170ee9818bd86555f018db5df0ebf87ae70",
    # Re-recorded when EM's round began to sum lag-major: the 15-round k=2
    # fit's rows moved by at most 8.4e-17, its kernel by 2.3e-16 and its
    # trace by 4.5e-16 relative; its iterations and flag did not move.
    "model.json": "fece51d5f726c5bedf0d64db1ceb650fba5ac1d821e34386eaaaf793111ef6ae",
    "model.json.report.json": "f3ac0b49f4d64ea9a24562eb2e5d6654c94380249d0509b02520bf0b83552511",
    "sweep.csv": "216c55e16fb681ebf6fb03f445f37604bae59f55e648cb9016922594ff0394e5",
    "sweep.csv.run.json": "e0a45009177431e81b247528e48116bc5d9a4399db4854f4ffa0758f7000e442",
}


def test_artifact_bytes_pinned(tmp_path, monkeypatch):
    # Relative paths, so the configs embedded in the artifacts do not
    # depend on where the test runs.
    monkeypatch.chdir(tmp_path)
    Path("corpus.lines").write_text(pinned_corpus_text(), encoding="utf-8")
    common = ["--input", "corpus.lines", "--min-count", "3"]
    assert main(["preprocess", *common, "--output", "clean.lines"]) == 0
    assert main(["entropy", *common, "--method", "markov", "--output", "entropy.json"]) == 0
    assert main(["fit", *common, "--k", "2", "--max-iter", "15", "--tol", "0",
                 "--output", "model.json"]) == 0
    assert main(["sweep", *common, "--output", "sweep.csv"]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "corpus.lines"
    }
    assert written == PINNED_ARTIFACTS
