"""Command-line front end.

Subcommands: ``analyze`` (one-shot analysis of observed counts), ``calibrate``
(efficacy cutoffs under the global null), ``simulate`` (operating
characteristics across scenarios) and ``tune`` (grid search over borrowing
parameters).  Exit codes: 0 on success; 2 for configuration or data errors,
including studies a valid configuration cannot carry out (``StudyError``:
too few replicates to calibrate, no feasible tuning candidate); 3 for
numeric failures; 4 for any other ``ValueError``, which is a fault in the
program and is reported with an ``internal error:`` prefix.  Nothing is
written unless the command succeeds; an unwritable ``--out`` also exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from contextlib import closing
from pathlib import Path
from typing import Optional, Sequence

from .calibrate import StudyError, calibrate_q, cutoffs_from_null, null_stream
from .config import ConfigError, StudyConfig, load_config, load_data
from .metrics import aggregate, compute_metrics
from .posterior import BasketData, borrowing_factor, posterior_params, prob_exceed
from .reporting import (
    analysis_table,
    cutoffs_payload,
    grid_report_csv,
    oc_report_csv,
    oc_report_json,
    tune_payload,
)
# run_scenario is unused here, but bench/tracer.py hooks it
from .simulate import run_scenario, run_streams
from .tune import tune
from .weights import NumericError, build_weight_matrix

__all__ = ["main"]

WORKERS_ENV = "BASKETSIM_WORKERS"


def _resolve_workers(args: argparse.Namespace, cfg: StudyConfig) -> int:
    if args.workers is not None:
        source, workers = "--workers", args.workers
    else:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return cfg.run.workers
        try:
            source, workers = WORKERS_ENV, int(env)
        except ValueError as exc:
            raise ConfigError(WORKERS_ENV, f"expected an integer, got {env!r}") from exc
    if workers < 1:
        raise ConfigError(source, f"must be a positive integer, got {workers}")
    return workers


def _resolve_seed(args: argparse.Namespace, cfg: StudyConfig) -> int:
    if args.seed is None:
        return cfg.run.seed
    if not 0 <= args.seed < 2**64:
        raise ConfigError("--seed", "must be an unsigned 64-bit integer")
    return args.seed


def _repro(args: argparse.Namespace, **resolved: int) -> str:
    values = {**vars(args), **resolved}
    parts = ["basketsim", args.command]
    for flag in ("config", "data", "out", "seed", "workers", "format"):
        if values.get(flag) is not None:
            parts += [f"--{flag}", shlex.quote(str(values[flag]))]
    return "# reproduce: " + " ".join(parts)


def _cmd_analyze(args: argparse.Namespace, cfg: StudyConfig) -> tuple[dict[str, str], str]:
    if not args.data:
        raise ConfigError("--data", "analyze requires a data file")
    observed = load_data(args.data, cfg.design.n_baskets)
    # priors and cutoffs apply by position: the design's baskets keep its order
    if observed.names != cfg.design.names and set(observed.names) == set(cfg.design.names):
        raise ConfigError("baskets", f"expected the design's order {list(cfg.design.names)}")
    data = BasketData.all_active(observed.y, observed.n)
    weights = build_weight_matrix(cfg.borrowing, data)
    shape1, shape2 = posterior_params(data, cfg.borrowing.prior, weights)
    q = prob_exceed(shape1, shape2, cfg.design.p0).tolist()
    decisions = None
    if cfg.cutoffs is not None:
        decisions = [qi > ci for qi, ci in zip(q, cfg.cutoffs)]
    payload = {
        "baskets": list(observed.names),
        "y": list(observed.y),
        "n": list(observed.n),
        "p0": cfg.design.p0,
        "weights": [[float(v) for v in row] for row in weights],
        "posterior_shape1": shape1.tolist(),
        "posterior_shape2": shape2.tolist(),
        "prob_exceed": q,
        "borrowing_factor": borrowing_factor(data, weights).tolist(),
        "cutoffs": list(cfg.cutoffs) if cfg.cutoffs is not None else None,
        "decisions": decisions,
    }
    files = {"analysis.json": json.dumps(payload, indent=2) + "\n"}
    return files, analysis_table(payload) + "\n" + _repro(args)


def _cmd_calibrate(args: argparse.Namespace, cfg: StudyConfig) -> tuple[dict[str, str], str]:
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    result = calibrate_q(cfg.design, cfg.borrowing, cfg.run.m, seed, workers)
    files = {"cutoffs.json": cutoffs_payload(result, cfg.design)}
    return files, _repro(args, seed=seed, workers=workers)


def _cmd_simulate(args: argparse.Namespace, cfg: StudyConfig) -> tuple[dict[str, str], str]:
    if not cfg.scenarios:
        raise ConfigError("scenarios", "simulate requires at least one scenario")
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    files = {}
    # one run of the calibration stream (unless the cutoffs are given) and
    # every scenario, whose blocks share one pool; each stream is reduced to
    # cutoffs or metrics before the next is taken
    streams = [(scenario, seed) for scenario in cfg.scenarios]
    if cfg.cutoffs is None:
        streams.insert(0, null_stream(cfg.design, seed))
    with closing(run_streams(streams, cfg.design, [cfg.borrowing], cfg.run.m, workers)) as results:
        if cfg.cutoffs is not None:
            cutoffs: Sequence[float] = cfg.cutoffs
        else:
            (null,) = next(results)
            result = cutoffs_from_null(cfg.design, null.q)
            cutoffs = result.cutoffs
            files["cutoffs.json"] = cutoffs_payload(result, cfg.design)
        rows = [
            compute_metrics(reps, scenario, cfg.design.p0, cutoffs)
            for scenario, (reps,) in zip(cfg.scenarios, results)
        ]
    # a scenario without a non-promising basket adds no BWER, one without a
    # promising basket no TPR; a summary needs both
    aggregates = aggregate(rows)
    if aggregates.bwer_max is None or aggregates.tpr_avg is None:
        aggregates = None
    if args.format == "json":
        files["oc.json"] = oc_report_json(rows, aggregates, cfg.design)
    else:
        files["oc.csv"] = oc_report_csv(rows, aggregates, cfg.design)
    return files, _repro(args, seed=seed, workers=workers)


def _cmd_tune(args: argparse.Namespace, cfg: StudyConfig) -> tuple[dict[str, str], str]:
    if cfg.tuning is None:
        raise ConfigError("tuning", "tune requires a tuning section in the config")
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    result = tune(cfg.tuning, cfg.design, cfg.borrowing, cfg.run.m, seed, workers)
    files = {"grid_report.csv": grid_report_csv(result, cfg.design),
             "chosen_params.json": tune_payload(result, cfg.design)}
    return files, _repro(args, seed=seed, workers=workers)


def _write_outputs(out: Path, files: dict[str, str]) -> None:
    """Write each file atomically; on failure remove what this call wrote."""
    written: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            tmp = out / (name + ".tmp")
            try:
                tmp.write_text(text)
                os.replace(tmp, out / name)
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
            written.append(out / name)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        raise ConfigError("--out", str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketsim",
        description="Basket trial design engine: dynamic borrowing, calibration, "
        "and Monte Carlo operating characteristics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "analyze observed counts under a borrowing method"),
        ("calibrate", "calibrate efficacy cutoffs under the global null"),
        ("simulate", "evaluate operating characteristics across scenarios"),
        ("tune", "grid-search borrowing parameters"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="study configuration JSON")
        if name == "analyze":
            p.add_argument("--data", help="observed per-basket counts JSON")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if name != "analyze":
            p.add_argument("--seed", type=int, default=None, help="override run.seed")
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes, at least 1: calibrate splits its "
                           "stream's replicate blocks over them, simulate and tune "
                           "the blocks of all their streams over one pool, tune for "
                           "all its candidates at once (fallback: "
                           f"${WORKERS_ENV}, then run.workers)")
        if name == "simulate":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="report format of the operating characteristics")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "tune": _cmd_tune,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a command returns its files (name -> text) and stdout; main writes them
        files, stdout = _COMMANDS[args.command](args, load_config(args.config))
        _write_outputs(Path(args.out), files)
    except (ConfigError, StudyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    print(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
