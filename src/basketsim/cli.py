"""Command-line front end.

Subcommands: ``analyze`` (one-shot analysis of observed counts), ``calibrate``
(efficacy cutoffs under the global null), ``simulate`` (operating
characteristics across scenarios) and ``tune`` (grid search over borrowing
parameters).  Exit codes: 0 on success; 2 for configuration or data errors,
including studies a valid configuration cannot carry out (``StudyError``:
too few replicates to calibrate, no feasible tuning candidate); 3 for
numeric failures; 4 for any other ``ValueError``, which is a fault in the
program and is reported with an ``internal error:`` prefix.  Output files
are written atomically and removed if the run fails partway.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .calibrate import StudyError, calibrate_q
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
from .simulate import run_scenario
from .tune import TuningGrid, tune
from .weights import NumericError, build_weight_matrix

__all__ = ["main"]

WORKERS_ENV = "BASKETSIM_WORKERS"


class _OutputTracker:
    """Writes files atomically and removes everything on failure."""

    def __init__(self) -> None:
        self.paths: list[Path] = []

    def write(self, path: Path, content: str) -> None:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(content)
        os.replace(tmp, path)
        self.paths.append(path)

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _resolve_workers(args: argparse.Namespace, cfg: StudyConfig) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(WORKERS_ENV, f"expected an integer, got {env!r}") from exc
    return cfg.run.workers


def _resolve_seed(args: argparse.Namespace, cfg: StudyConfig) -> int:
    if args.seed is None:
        return cfg.run.seed
    if not 0 <= args.seed < 2**64:
        raise ConfigError("--seed", "must be an unsigned 64-bit integer")
    return args.seed


def _echo_repro(args: argparse.Namespace, seed: int, workers: int) -> None:
    parts = [f"basketsim {args.command}", f"--config {args.config}"]
    if getattr(args, "data", None):
        parts.append(f"--data {args.data}")
    parts.append(f"--out {args.out}")
    parts.append(f"--seed {seed}")
    parts.append(f"--workers {workers}")
    if getattr(args, "format", None):
        parts.append(f"--format {args.format}")
    print("# reproduce: " + " ".join(parts))


def _cmd_analyze(args: argparse.Namespace, out: _OutputTracker) -> None:
    cfg = load_config(args.config)
    if not args.data:
        raise ConfigError("--data", "analyze requires a data file")
    observed = load_data(args.data, cfg.design.n_baskets)
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
    out.write(Path(args.out) / "analysis.json", json.dumps(payload, indent=2) + "\n")
    print(analysis_table(payload))
    _echo_repro(args, _resolve_seed(args, cfg), _resolve_workers(args, cfg))


def _cmd_calibrate(args: argparse.Namespace, out: _OutputTracker) -> None:
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    result = calibrate_q(cfg.design, cfg.borrowing, cfg.run.m, seed, workers)
    out.write(Path(args.out) / "cutoffs.json", cutoffs_payload(result, cfg.design))
    _echo_repro(args, seed, workers)


def _oc_scenario_split(cfg: StudyConfig) -> tuple[list[str], list[str]]:
    null_like = [
        s.name for s in cfg.scenarios if any(p <= cfg.design.p0 for p in s.true_orr)
    ]
    alt_like = [
        s.name for s in cfg.scenarios if any(p > cfg.design.p0 for p in s.true_orr)
    ]
    return null_like, alt_like


def _cmd_simulate(args: argparse.Namespace, out: _OutputTracker) -> None:
    cfg = load_config(args.config)
    if not cfg.scenarios:
        raise ConfigError("scenarios", "simulate requires at least one scenario")
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    if cfg.cutoffs is not None:
        cutoffs: Sequence[float] = cfg.cutoffs
    else:
        result = calibrate_q(cfg.design, cfg.borrowing, cfg.run.m, seed, workers)
        cutoffs = result.cutoffs
        out.write(Path(args.out) / "cutoffs.json", cutoffs_payload(result, cfg.design))
    rows = []
    for scenario in cfg.scenarios:
        reps = run_scenario(
            scenario, cfg.design, cfg.borrowing, cutoffs, cfg.run.m, seed, workers
        )
        rows.append(compute_metrics(reps, scenario, cfg.design.p0))
    null_like, alt_like = _oc_scenario_split(cfg)
    aggregates = aggregate(rows, null_like, alt_like) if null_like and alt_like else None
    if args.format == "json":
        out.write(Path(args.out) / "oc.json", oc_report_json(rows, aggregates, cfg.design))
    else:
        out.write(Path(args.out) / "oc.csv", oc_report_csv(rows, aggregates, cfg.design))
    _echo_repro(args, seed, workers)


def _cmd_tune(args: argparse.Namespace, out: _OutputTracker) -> None:
    cfg = load_config(args.config)
    if cfg.tuning is None:
        raise ConfigError("tuning", "tune requires a tuning section in the config")
    seed = _resolve_seed(args, cfg)
    workers = _resolve_workers(args, cfg)
    by_name = {s.name: s for s in cfg.scenarios}
    grid = TuningGrid(
        scenario_set=tuple(by_name[name] for name in cfg.tuning.scenario_names),
        strategy=cfg.tuning.strategy,
        constraint=cfg.tuning.constraint,
        a_values=cfg.tuning.a_values,
        delta_values=cfg.tuning.delta_values,
        epsilon_values=cfg.tuning.epsilon_values,
        tau_values=cfg.tuning.tau_values,
    )
    result = tune(grid, cfg.design, cfg.borrowing, cfg.run.m, seed, workers)
    out.write(Path(args.out) / "grid_report.csv", grid_report_csv(result, cfg.design))
    out.write(Path(args.out) / "chosen_params.json", tune_payload(result, cfg.design))
    _echo_repro(args, seed, workers)


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
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--workers", type=int, default=None,
                       help=f"worker processes (fallback: ${WORKERS_ENV}, then run.workers)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format for tabular outputs")
    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "tune": _cmd_tune,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = _OutputTracker()
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, out)
    except (ConfigError, StudyError) as exc:
        out.discard_all()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, OverflowError) as exc:
        out.discard_all()
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        out.discard_all()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BaseException:
        out.discard_all()
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
