import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
from lamp_entropy.cli import main

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
        corpus_path.write_text("a b a b a b a b\nc\n", encoding="utf-8")
        code = run(["fit", "--input", corpus_path, "--k", 2, "--min-count", 1,
                    "--output", tmp_path / "m.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooShortError"
        assert err["subcommand"] == "fit"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--k", 0, "--output", "m.json"],
        ["fit", "--k", 2, "--max-iter", 0, "--output", "m.json"],
        ["entropy", "--method", "lamp", "--k", 0, "--output", "r.json"],
        ["sweep", "--model-kind", "lamp", "--k", 0, "--output", "s.csv"],
        ["preprocess", "--min-count", 0, "--output", "c.lines"],
        ["profile", "--max-lag", 0, "--output", "p.csv"],
        ["entropy", "--method", "markov", "--p-artificial", 0, "--output", "r.json"],
    ],
    ids=["fit-k", "fit-max-iter", "entropy-k", "sweep-k", "min-count", "max-lag",
         "p-artificial"],
)
def test_invalid_number_rejected_before_loading(tmp_path, capsys, argv):
    # The input does not exist: reading it first would exit 1 with an I/O error.
    code = run([*argv[:1], "--input", tmp_path / "nope.lines", *argv[1:]])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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
# solve: its raw values moved by at most 1.4e-15 bits.
PINNED_ARTIFACTS = {
    "clean.lines": "235504426abf7a936cb2cd2ed2c01b76ba2ea1952ef9c6ebebc7a14356edb86a",
    "clean.lines.report.json": "b240faa68b81b25ed77b54385b4fb6cf114b356159bb1cdfcc4d1d63ad6544ff",
    "clean.lines.run.json": "106e3bdab8aeb1fa8829c7152b63ca0ea8d90eb241d1c3af4f7ba7f2b8835d1e",
    "entropy.json": "8d3db492674ff7a9172a78ebfcd10170ee9818bd86555f018db5df0ebf87ae70",
    "model.json": "15657f3cb2c0f1f55a0b5926b4059c1c36ab67e2eca3ea43f87b74aa034a20e9",
    "model.json.report.json": "f586c67800bbf3de8e56852b74377cadfe6e7caa8e10e0d2ec9fb30351000c5c",
    "sweep.csv": "ee9fc30d32e5ade5abc5e4edc342e51ad49ead3ef5580944cd30e6885415bfec",
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
