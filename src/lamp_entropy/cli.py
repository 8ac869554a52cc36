"""Command-line entry point for reproducible batch runs.

Subcommands: ``simulate``, ``fit``, ``entropy``, ``sweep``, ``profile``
and ``preprocess``. Every artifact carries the run configuration: JSON
outputs embed it under a ``config`` key, CSV and Lines outputs get a
``<output>.run.json`` sidecar so their formats stay clean. Identical
configurations and inputs produce byte-identical artifacts.

Log verbosity is controlled by the ``LAMP_ENTROPY_LOG_LEVEL``
environment variable (default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .conditioning import DEFAULT_P_ARTIFICIAL, Induced, LargestCC
from .corpus import DEFAULT_RARE_TOKEN, load_sequences, preprocess
from .dependence import corpus_dependency_profile, write_profile_csv
from .errors import ConfigError, LampError
from .estimators import (
    lamp_plugin_estimate,
    markov_plugin_estimate,
    path_level_estimate,
    sequence_level_estimate,
    stationary_distribution_estimate,
    sweep_p_artificial,
    write_sweep_csv,
)
from .fitting import fit_first_order, fit_lamp_em
from .lamp import load_model, save_model, simulate_lamp
from .markov import EncodedJSON, load_matrix_csv, load_matrix_json, simulate_markov, write_json


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, minus the input file contents."""

    subcommand: str
    params: dict

    def to_json_dict(self) -> dict:
        return {"subcommand": self.subcommand, "params": self.params}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamp-entropy",
        description="Simulate, fit and entropy-profile lag-mixture Markov models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="sample a token path to a Lines file")
    sim.add_argument("--model", help="model JSON (labels, rows, kernel)")
    sim.add_argument("--matrix", help="transition matrix JSON or CSV (first-order chain)")
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--init", default=None, help="start label (default: stationary draw)")
    sim.add_argument("--output", required=True)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a lag-mixture model to a corpus")
    _add_corpus_args(fit)
    _add_preprocess_args(fit)
    fit.add_argument("--k", type=int, required=True, help="kernel order")
    fit.add_argument("--max-iter", type=int, default=500)
    fit.add_argument("--tol", type=float, default=1e-6)
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
    ent.add_argument("--p-artificial", type=float, default=DEFAULT_P_ARTIFICIAL)
    ent.add_argument("--k", type=int, default=None, help="kernel order (lamp method)")
    ent.add_argument("--max-iter", type=int, default=500)
    ent.add_argument("--tol", type=float, default=1e-6)
    ent.add_argument("--output", required=True, help="report JSON")
    ent.set_defaults(func=_cmd_entropy)

    swp = sub.add_parser("sweep", help="entropy vs artificial weight 2**-i")
    _add_corpus_args(swp)
    _add_preprocess_args(swp)
    swp.add_argument("--model-kind", choices=["markov", "lamp"], default="markov")
    swp.add_argument("--k", type=int, default=None, help="kernel order (lamp kind)")
    swp.add_argument("--i-min", type=int, default=1)
    swp.add_argument("--i-max", type=int, default=None, help="default 25 (markov) or 50 (lamp)")
    swp.add_argument("--max-iter", type=int, default=500)
    swp.add_argument("--tol", type=float, default=1e-6)
    swp.add_argument("--output", required=True, help="sweep CSV")
    swp.set_defaults(func=_cmd_sweep)

    prof = sub.add_parser("profile", help="Cramér's V dependency profile of a corpus")
    _add_corpus_args(prof)
    prof.add_argument("--max-lag", type=int, required=True)
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
    parser.add_argument("--group-col", type=int, default=None, help="tsv: grouping column (0-based)")
    parser.add_argument("--item-col", type=int, default=None, help="tsv: item column (0-based)")


def _add_preprocess_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-count", type=int, default=10, help="rare-token threshold")
    parser.add_argument("--rare-token", default=DEFAULT_RARE_TOKEN)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LAMP_ENTROPY_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "subcommand")
    }
    config = RunConfig(args.subcommand, params)
    try:
        args.func(args, config)
    except ConfigError as exc:
        _emit_error(exc, config)
        return 2
    except (LampError, OSError) as exc:
        _emit_error(exc, config)
        return 1
    return 0


def _emit_error(exc: Exception, config: RunConfig) -> None:
    doc = {
        "error": type(exc).__name__,
        "message": str(exc),
        "subcommand": config.subcommand,
    }
    print(json.dumps(doc), file=sys.stderr)


def _write_json(path, doc: dict, config: RunConfig) -> None:
    write_json({**doc, "config": config.to_json_dict()}, path)


def _write_sidecar(path, config: RunConfig, extra: dict | None = None) -> None:
    doc = config.to_json_dict()
    if extra:
        doc.update(extra)
    write_json(doc, f"{path}.run.json")


def _write_lines(path, sequences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(seq) + "\n")


def _load_corpus(args):
    if args.format == "tsv" and (args.group_col is None or args.item_col is None):
        raise ConfigError("tsv input needs --group-col and --item-col")
    return load_sequences(args.input, args.format, args.group_col, args.item_col)


def _preprocessed_corpus(args):
    if args.min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {args.min_count}")
    corpus = _load_corpus(args)
    cleaned, stages = preprocess(corpus, args.min_count, args.rare_token)
    info = {
        "min_count": args.min_count,
        "rare_token": args.rare_token,
        "stages": stages,
    }
    return cleaned, info


def _check_em_args(args) -> None:
    """Reject EM settings before the corpus is read."""
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if args.max_iter < 1:
        raise ConfigError(f"--max-iter must be >= 1, got {args.max_iter}")


def _conditioning(args):
    if args.conditioning == "largest-cc":
        return LargestCC()
    if not 0.0 < args.p_artificial < 1.0:
        raise ConfigError(f"--p-artificial must lie in (0, 1), got {args.p_artificial}")
    return Induced(args.p_artificial)


def _cmd_simulate(args, config: RunConfig) -> None:
    if (args.model is None) == (args.matrix is None):
        raise ConfigError("provide exactly one of --model or --matrix")
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    if args.model is not None:
        model = load_model(args.model)
        tokens = simulate_lamp(model, args.steps, args.seed, args.init)
    else:
        suffix = Path(args.matrix).suffix.lower()
        matrix = load_matrix_csv(args.matrix) if suffix == ".csv" else load_matrix_json(args.matrix)
        tokens = simulate_markov(matrix, args.steps, args.seed, args.init)
    _write_lines(args.output, [tokens])
    _write_sidecar(args.output, config)
    print(f"wrote {args.steps} symbols to {args.output}")


def _cmd_fit(args, config: RunConfig) -> None:
    _check_em_args(args)
    corpus, info = _preprocessed_corpus(args)
    report = fit_lamp_em(corpus, args.k, max_iter=args.max_iter, tol=args.tol)
    # The model is encoded once: the report embeds the text of the model file.
    model = EncodedJSON(save_model(report.model, args.output))
    report_path = args.report or f"{args.output}.report.json"
    doc = {"model": model, **report._fit_json_dict(), "preprocessing": info}
    _write_json(report_path, doc, config)
    final = report.log_likelihood_trace[-1]
    print(
        f"fitted k={args.k} in {report.iterations} iterations "
        f"(converged={report.converged}, log2_likelihood={final:.6f})"
    )


def _cmd_entropy(args, config: RunConfig) -> None:
    if args.method == "lamp":
        if args.k is None:
            raise ConfigError("--method lamp needs --k")
        _check_em_args(args)
    conditioning = None if args.method in ("sequence-level", "path-level") else _conditioning(args)
    corpus, info = _preprocessed_corpus(args)
    if args.method == "sequence-level":
        report = sequence_level_estimate(corpus, preprocessing=info)
    elif args.method == "path-level":
        report = path_level_estimate(corpus, preprocessing=info)
    elif args.method == "stationary":
        report = stationary_distribution_estimate(
            fit_first_order(corpus, smoothing=0.0), conditioning, preprocessing=info
        )
    elif args.method == "markov":
        report = markov_plugin_estimate(corpus, conditioning, preprocessing=info)
    else:
        report = lamp_plugin_estimate(
            corpus,
            args.k,
            conditioning,
            max_iter=args.max_iter,
            tol=args.tol,
            preprocessing=info,
        )
    _write_json(args.output, report.to_json_dict(), config)
    print(f"{report.method.value}: {report.bits_per_symbol:.6f} bits/symbol")


def _cmd_sweep(args, config: RunConfig) -> None:
    if args.model_kind == "lamp":
        if args.k is None:
            raise ConfigError("--model-kind lamp needs --k")
        _check_em_args(args)
    i_max = args.i_max if args.i_max is not None else (50 if args.model_kind == "lamp" else 25)
    if args.i_min < 1 or i_max < args.i_min:
        raise ConfigError(f"invalid exponent range {args.i_min}..{i_max}")
    if 2.0**-i_max == 0.0:
        raise ConfigError(f"--i-max {i_max} gives p = 2**-{i_max}, which is 0.0 in floating point")
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


def _cmd_profile(args, config: RunConfig) -> None:
    if args.max_lag < 1:
        raise ConfigError("--max-lag must be >= 1")
    corpus = _load_corpus(args)
    profile = corpus_dependency_profile(corpus, args.max_lag, args.include_lag0)
    write_profile_csv(profile, args.output)
    _write_sidecar(args.output, config)
    print(f"wrote {len(profile)} lags to {args.output}")


def _cmd_preprocess(args, config: RunConfig) -> None:
    corpus, info = _preprocessed_corpus(args)
    _write_lines(args.output, corpus.sequences)
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
