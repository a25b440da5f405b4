"""Parallel Monte Carlo engine for replicate trials.

Each replicate draws its own counter-based RNG stream keyed by (master seed,
scenario name, replicate index), so results are bit-identical regardless of
how replicates are distributed over worker processes.  Response sequences are
always generated to the full maximum enrollment, which keeps the random
numbers aligned across methods and tuning candidates sharing a seed.

``run_scenario`` cuts a stream into blocks, each a job of two stages:
``draw_states`` gives each trial's (y, n, active) after the interim looks,
and ``evaluate_q`` its posterior probabilities.  ``metrics.compute_metrics``
makes the efficacy decisions, once per stream.  Draws do not depend on the
borrowing method, and inside a ``shared_draws()`` scope they are kept, so a
later call that runs the same stream under another configuration, as every
candidate of a tuning grid does, skips the draws and the interim looks.
Outside a scope nothing is kept.
"""

from __future__ import annotations

import hashlib
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .trial import DesignSpec, apply_interims, final_analysis
from .posterior import BasketData
from .weights import BorrowingConfig, prefill_weights

__all__ = [
    "Scenario",
    "ReplicateSet",
    "run_scenario",
    "shared_draws",
    "replicate_rng",
    "derive_seed",
    "mc_standard_error",
]

# Most replicates per block (one job of run_scenario): a block's draws go
# through the interims in one call, and its weights are solved in one batch.
BLOCK_REPLICATES = 1024

# drawn states of the open shared_draws() scope; None outside a scope
_DRAWS: Optional[dict] = None


@dataclass(frozen=True)
class Scenario:
    """A named vector of true per-basket response rates."""

    name: str
    true_orr: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_orr", tuple(float(v) for v in self.true_orr))
        if not self.true_orr:
            raise ValueError("scenario needs at least one basket")
        for p in self.true_orr:
            if not 0.0 < p < 1.0:
                raise ValueError(f"true response rates must lie in (0, 1), got {p!r}")

    @classmethod
    def global_null(cls, p0: float, n_baskets: int, name: str = "global-null") -> "Scenario":
        return cls(name, (p0,) * n_baskets)


@dataclass(frozen=True)
class ReplicateSet:
    """Per-replicate trial summaries for one scenario.

    ``q`` holds posterior probabilities (0 for interim-stopped baskets) and
    ``stopped`` the futility flags, each as an (M, B) array indexed by
    replicate then basket.
    """

    q: np.ndarray
    stopped: np.ndarray

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def n_baskets(self) -> int:
        return self.q.shape[1]


def derive_seed(master_seed: int, label: str) -> int:
    """A 64-bit sub-seed for a named stream, stable across platforms."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def replicate_rng(master_seed: int, scenario_name: str, index: int) -> np.random.Generator:
    """The dedicated RNG stream of one replicate."""
    name_key = zlib.crc32(scenario_name.encode())
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(name_key, int(index)))
    return np.random.Generator(np.random.Philox(seq))


@contextmanager
def shared_draws() -> Iterator[None]:
    """Keep every trial state drawn in this process until the scope exits.

    Within the scope, ``draw_states`` draws each (scenario, design, master
    seed, replicate range) once; a later call under any borrowing
    configuration reuses its (y, n, active) arrays, bit-identical to unscoped
    runs.  A nested scope shares the outer one's draws; the outermost exit
    drops them all.
    """
    global _DRAWS
    outer = _DRAWS
    _DRAWS = {} if outer is None else outer
    try:
        yield
    finally:
        _DRAWS = outer


def draw_states(
    scenario: Scenario, design: DesignSpec, master_seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, n, active) of block ``lo`` to ``hi`` after the interims, each (hi - lo, B)."""
    key = (scenario, design, master_seed, lo, hi)
    if _DRAWS is not None and key in _DRAWS:
        return _DRAWS[key]
    orr = np.array(scenario.true_orr)[:, None]
    shape = (design.n_baskets, max(design.n_max))
    responses = np.array(
        [replicate_rng(master_seed, scenario.name, r).random(shape) < orr for r in range(lo, hi)]
    )
    states = apply_interims(responses, design)
    if _DRAWS is not None:
        _DRAWS[key] = states
    return states


def evaluate_q(
    config: BorrowingConfig, design: DesignSpec, y: np.ndarray, n: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Posterior probabilities (0 where stopped) of one block's trials, as an (R, B) array."""
    trials = list(map(BasketData, y.tolist(), n.tolist(), active.tolist()))
    prefill_weights(config, trials)
    return np.array([final_analysis(data, config, design.p0) for data in trials])


def _simulate_block(args) -> tuple[np.ndarray, np.ndarray]:
    lo, hi, scenario, design, config, master_seed = args
    y, n, active = draw_states(scenario, design, master_seed, lo, hi)
    return evaluate_q(config, design, y, n, active), ~active


def split_range(count: int, parts: int) -> list[tuple[int, int]]:
    """``range(count)`` as at most ``parts`` contiguous nonempty (lo, hi) pieces."""
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


def pool_map(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``fn`` over ``jobs``, results in job order: in this process if
    ``min(workers, len(jobs))`` is at most 1, else in one pool of that size."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return list(map(fn, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def run_scenario(
    scenario: Scenario,
    design: DesignSpec,
    config: BorrowingConfig,
    m: int,
    master_seed: int,
    workers: int = 1,
) -> ReplicateSet:
    """Simulate ``m`` replicate trials of ``scenario`` under the design.

    Returns each replicate's posterior probabilities and futility stops;
    ``metrics.compute_metrics`` turns them into efficacy decisions.
    Results are identical for any ``workers`` >= 1; fewer raise ``ValueError``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if len(scenario.true_orr) != design.n_baskets:
        raise ValueError("scenario and design disagree on the number of baskets")

    # jobs of at most BLOCK_REPLICATES replicates, as many for each worker; a
    # stream with fewer than two replicates per worker is cut as for one
    ways = workers if m >= 2 * workers else 1
    blocks = ways * -(-m // (BLOCK_REPLICATES * ways))
    jobs = [(lo, hi, scenario, design, config, master_seed) for lo, hi in split_range(m, blocks)]
    parts = pool_map(_simulate_block, jobs, workers)

    q = np.vstack([p[0] for p in parts])
    if q.shape != (m, design.n_baskets):
        raise RuntimeError(
            f"simulation produced {q.shape[0]} of {m} replicates; aborting rather "
            "than reporting truncated results"
        )
    return ReplicateSet(q=q, stopped=np.vstack([p[1] for p in parts]))


def mc_standard_error(rate: float, m: int) -> float:
    """Binomial Monte Carlo standard error sqrt(p (1 - p) / M) of a rate."""
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / m))
