"""Command-line entry point for reproducible batch runs.

Subcommands: ``simulate``, ``fit``, ``entropy``, ``sweep``, ``profile``
and ``preprocess``. Every artifact carries the run configuration, the
plain dict ``{"subcommand": ..., "params": ...}`` that :func:`main`
builds: JSON outputs embed it under a ``config`` key, CSV and Lines
outputs get a ``<output>.run.json`` sidecar so their formats stay clean.
Identical configurations and inputs produce byte-identical artifacts.

Each flag's rule is its argparse ``type``, checked whether or not the
run reads the flag; handlers check only rules that join two flags. A
malformed, out-of-range, missing or unknown flag is a :class:`ConfigError`,
reported like every error: one JSON line on stderr, exit status 2.

Log verbosity is controlled by the ``LAMP_ENTROPY_LOG_LEVEL``
environment variable: a level name in any case (default WARNING). An
unknown name is a configuration error.

Every corpus is read through a cache of encoded corpora, keyed by the
input file's bytes (:func:`~lamp_entropy.corpus.load_sequences_cached`),
so a file is parsed once, not once per run. The ``LAMP_ENTROPY_CACHE_DIR``
environment variable names its directory; unset, it is
``$XDG_CACHE_HOME/lamp-entropy``, else ``~/.cache/lamp-entropy``; empty,
the cache is off.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .conditioning import DEFAULT_P_ARTIFICIAL, Induced, LargestCC
from .corpus import DEFAULT_MIN_COUNT, DEFAULT_RARE_TOKEN, load_sequences_cached, preprocess
from .dependence import corpus_dependency_profile, write_profile_csv
from .errors import ConfigError, LampError, UnwritableLabelError
from .estimators import (
    DEFAULT_SWEEP_EXPONENTS,
    lamp_plugin_estimate,
    markov_plugin_estimate,
    path_level_estimate,
    sequence_level_estimate,
    stationary_distribution_estimate,
    sweep_p_artificial,
    write_sweep_csv,
)
from .fitting import DEFAULT_EM_MAX_ITER, DEFAULT_EM_TOL, fit_first_order, fit_lamp_em
from .lamp import load_model, save_model, simulate_lamp
from .markov import load_matrix_csv, load_matrix_json, simulate_markov, write_json

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Rejects a command line by raising, so that :func:`main` reports it."""

    def error(self, message):
        raise ConfigError(message)


def _rule(parse, holds, wanted: str):
    """A ``type`` for a flag: ``parse`` its text, then keep the value only if it ``holds``."""

    def convert(text: str):
        try:
            value = parse(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")

    return convert


_POSITIVE = _rule(int, lambda v: v >= 1, "an integer >= 1")
_INDEX = _rule(int, lambda v: v >= 0, "an integer >= 0")
# The sweep's p = 2**-i must be a positive double: 2.0**-1074 is the
# smallest, 2.0**-1075 is 0.0 (and a long enough i overflows the float).
_EXPONENT = _rule(int, lambda i: 1 <= i <= 1074, "an integer in 1..1074")
_NUMBER = _rule(float, lambda v: not math.isnan(v), "a number")
_PROBABILITY = _rule(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_TOKEN = _rule(str, lambda v: v.split() == [v], "one token with no whitespace")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lamp-entropy",
        description="Simulate, fit and entropy-profile lag-mixture Markov models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="sample a token path to a Lines file")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model JSON (labels, rows, kernel)")
    source.add_argument("--matrix", help="transition matrix JSON or CSV (first-order chain)")
    sim.add_argument("--steps", type=_POSITIVE, required=True)
    sim.add_argument("--seed", type=_INDEX, default=0)
    sim.add_argument("--init", default=None, help="start label (default: stationary draw)")
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a lag-mixture model to a corpus")
    _add_corpus_args(fit)
    _add_preprocess_args(fit)
    fit.add_argument("--k", type=_POSITIVE, required=True, help="kernel order")
    _add_em_args(fit)
    fit.add_argument("--output", required=True, help="fitted model JSON")
    fit.add_argument("--report", default=None, help="fit report JSON (default: <output>.report.json)")
    fit.set_defaults(func=_cmd_fit)

    ent = sub.add_parser("entropy", help="entropy estimate for a corpus")
    _add_corpus_args(ent)
    _add_preprocess_args(ent)
    ent.add_argument(
        "--method",
        required=True,
        choices=["sequence-level", "path-level", "stationary", "markov", "lamp"],
    )
    ent.add_argument("--conditioning", choices=["largest-cc", "induced"], default="induced")
    ent.add_argument("--p-artificial", type=_PROBABILITY, default=DEFAULT_P_ARTIFICIAL)
    ent.add_argument("--k", type=_POSITIVE, default=None, help="kernel order (lamp method)")
    _add_em_args(ent)
    ent.add_argument("--output", required=True, help="report JSON")
    ent.set_defaults(func=_cmd_entropy)

    swp = sub.add_parser("sweep", help="entropy vs artificial weight 2**-i")
    _add_corpus_args(swp)
    _add_preprocess_args(swp)
    swp.add_argument("--model-kind", choices=list(DEFAULT_SWEEP_EXPONENTS), default="markov")
    swp.add_argument("--k", type=_POSITIVE, default=None, help="kernel order (lamp kind)")
    swp.add_argument("--i-min", type=_EXPONENT, default=1)
    swp.add_argument(
        "--i-max",
        type=_EXPONENT,
        default=None,
        help="default "
        + " or ".join(f"{r[-1]} ({kind})" for kind, r in DEFAULT_SWEEP_EXPONENTS.items()),
    )
    _add_em_args(swp)
    swp.add_argument("--output", required=True, help="sweep CSV")
    swp.set_defaults(func=_cmd_sweep)

    prof = sub.add_parser("profile", help="Cramér's V dependency profile of a corpus")
    _add_corpus_args(prof)
    prof.add_argument("--max-lag", type=_POSITIVE, required=True)
    prof.add_argument("--include-lag0", action="store_true")
    prof.add_argument("--output", required=True, help="profile CSV")
    prof.set_defaults(func=_cmd_profile)

    prep = sub.add_parser("preprocess", help="dedupe and pool rare tokens")
    _add_corpus_args(prep)
    _add_preprocess_args(prep)
    prep.add_argument("--output", required=True, help="cleaned Lines file")
    prep.add_argument("--report", default=None, help="stage report JSON (default: <output>.report.json)")
    prep.set_defaults(func=_cmd_preprocess)

    return parser


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="corpus file")
    parser.add_argument("--format", choices=["lines", "tsv"], default="lines")
    parser.add_argument("--group-col", type=_INDEX, default=None, help="tsv: grouping column (0-based)")
    parser.add_argument("--item-col", type=_INDEX, default=None, help="tsv: item column (0-based)")


def _add_preprocess_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-count", type=_POSITIVE, default=DEFAULT_MIN_COUNT, help="rare-token threshold")
    parser.add_argument("--rare-token", type=_TOKEN, default=DEFAULT_RARE_TOKEN)


def _add_em_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=_POSITIVE, default=DEFAULT_EM_MAX_ITER)
    parser.add_argument("--tol", type=_NUMBER, default=DEFAULT_EM_TOL)


def main(argv=None) -> int:
    # argparse names the subcommand in this namespace before it parses the
    # subcommand's flags, so a rejected flag's error can name it too.
    args = argparse.Namespace(subcommand=None)
    try:
        build_parser().parse_args(argv, namespace=args)
        params = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "subcommand")
        }
        config = {"subcommand": args.subcommand, "params": params}
        _configure_logging()
        args.func(args, config)
    except (LampError, OSError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc), "subcommand": args.subcommand}
        print(json.dumps(doc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    return 0


def _configure_logging() -> None:
    name = os.environ.get("LAMP_ENTROPY_LOG_LEVEL", "WARNING")
    # getLevelName maps a known name to its number, anything else to a string.
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(f"LAMP_ENTROPY_LOG_LEVEL names no logging level: {name!r}")
    # basicConfig adds the stderr handler only while the root logger has
    # none, and then ignores its arguments: the level is set on every run.
    logging.basicConfig()
    logging.getLogger("lamp_entropy").setLevel(level)


def _cache_dir() -> str | None:
    """The corpus cache directory: ``LAMP_ENTROPY_CACHE_DIR`` (None when it
    is empty), else ``lamp-entropy`` in the user's cache directory."""
    path = os.environ.get("LAMP_ENTROPY_CACHE_DIR")
    if path is not None:
        return path or None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = os.path.join(Path.home(), ".cache")
        except RuntimeError as exc:
            logger.info("corpus cache off (%s)", exc)
            return None
    return os.path.join(base, "lamp-entropy")


def _write_json(path, doc: dict, config: dict) -> None:
    write_json({**doc, "config": config}, path)


def _write_sidecar(path, config: dict, extra: dict | None = None) -> None:
    write_json({**config, **(extra or {})}, f"{path}.run.json")


def _write_lines(path, sequences, labels) -> None:
    # Each label the sequences may hold is checked once, not per token:
    # one that is empty or holds whitespace would not read back as one token.
    for label in labels:
        if label.split() != [label]:
            raise UnwritableLabelError(
                f"label {label!r} is empty or holds whitespace, so a Lines file cannot hold it"
            )
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(seq) + "\n")


def _load_corpus(args):
    if args.format == "tsv" and (args.group_col is None or args.item_col is None):
        raise ConfigError("tsv input needs --group-col and --item-col")
    return load_sequences_cached(
        args.input, args.format, args.group_col, args.item_col, cache_dir=_cache_dir()
    )


def _preprocessed_corpus(args):
    corpus = _load_corpus(args)
    cleaned, stages = preprocess(corpus, args.min_count, args.rare_token)
    info = {
        "min_count": args.min_count,
        "rare_token": args.rare_token,
        "stages": stages,
    }
    return cleaned, info


def _cmd_simulate(args, config: dict) -> None:
    if args.model is not None:
        model = load_model(args.model)
        labels = model.matrix.labels
        tokens = simulate_lamp(model, args.steps, args.seed, args.init)
    else:
        suffix = Path(args.matrix).suffix.lower()
        matrix = load_matrix_csv(args.matrix) if suffix == ".csv" else load_matrix_json(args.matrix)
        labels = matrix.labels
        tokens = simulate_markov(matrix, args.steps, args.seed, args.init)
    _write_lines(args.output, [tokens], labels)
    _write_sidecar(args.output, config)
    print(f"wrote {args.steps} symbols to {args.output}")


def _cmd_fit(args, config: dict) -> None:
    corpus, info = _preprocessed_corpus(args)
    report = fit_lamp_em(corpus, args.k, max_iter=args.max_iter, tol=args.tol)
    # The model is encoded once: the report embeds the chunks of the model file.
    model = save_model(report.model, args.output)
    report_path = args.report or f"{args.output}.report.json"
    doc = {"model": model, **report._fit_json_dict(), "preprocessing": info}
    _write_json(report_path, doc, config)
    final = report.log_likelihood_trace[-1]
    print(
        f"fitted k={args.k} in {report.iterations} iterations "
        f"(converged={report.converged}, log2_likelihood={final:.6f})"
    )


def _cmd_entropy(args, config: dict) -> None:
    if args.method == "lamp" and args.k is None:
        raise ConfigError("--method lamp needs --k")
    conditioning = LargestCC() if args.conditioning == "largest-cc" else Induced(args.p_artificial)
    corpus, info = _preprocessed_corpus(args)
    if args.method == "sequence-level":
        report = sequence_level_estimate(corpus)
    elif args.method == "path-level":
        report = path_level_estimate(corpus)
    elif args.method == "stationary":
        fitted = fit_first_order(corpus, smoothing=0.0)
        report = stationary_distribution_estimate(fitted, conditioning)
    elif args.method == "markov":
        report = markov_plugin_estimate(corpus, conditioning)
    else:
        report = lamp_plugin_estimate(
            corpus, args.k, conditioning, max_iter=args.max_iter, tol=args.tol
        )
    _write_json(args.output, replace(report, preprocessing=info).to_json_dict(), config)
    print(f"{report.method.value}: {report.bits_per_symbol:.6f} bits/symbol")


def _cmd_sweep(args, config: dict) -> None:
    if args.model_kind == "lamp" and args.k is None:
        raise ConfigError("--model-kind lamp needs --k")
    i_max = DEFAULT_SWEEP_EXPONENTS[args.model_kind][-1] if args.i_max is None else args.i_max
    if i_max < args.i_min:
        raise ConfigError(f"--i-min {args.i_min} exceeds --i-max {i_max}")
    corpus, info = _preprocessed_corpus(args)
    result = sweep_p_artificial(
        corpus,
        kind=args.model_kind,
        k=args.k,
        exponents=range(args.i_min, i_max + 1),
        max_iter=args.max_iter,
        tol=args.tol,
    )
    write_sweep_csv(result, args.output)
    _write_sidecar(
        args.output,
        config,
        {"recommended_exponent": result.recommended_exponent, "preprocessing": info},
    )
    print(f"recommended_exponent: {result.recommended_exponent}")


def _cmd_profile(args, config: dict) -> None:
    corpus = _load_corpus(args)
    profile = corpus_dependency_profile(corpus, args.max_lag, args.include_lag0)
    write_profile_csv(profile, args.output)
    _write_sidecar(args.output, config)
    print(f"wrote {len(profile)} lags to {args.output}")


def _cmd_preprocess(args, config: dict) -> None:
    corpus, info = _preprocessed_corpus(args)
    _write_lines(args.output, corpus.sequences, corpus.vocabulary.labels)
    _write_sidecar(args.output, config)
    report_path = args.report or f"{args.output}.report.json"
    _write_json(report_path, {"preprocessing": info}, config)
    final = info["stages"][-1]
    print(
        f"preprocessed: {final['n_sequences']} sequences, N={final['N']}, "
        f"vocab={final['vocab']}"
    )


if __name__ == "__main__":
    sys.exit(main())
