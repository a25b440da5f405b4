"""Parallel Monte Carlo engine for replicate trials.

Each replicate draws its own counter-based RNG stream keyed by (master seed,
scenario name, replicate index), so results are bit-identical regardless of
how replicates are distributed over worker processes.  Response sequences are
always generated to the full maximum enrollment, which keeps the random
numbers aligned across methods and tuning candidates sharing a seed.
"""

from __future__ import annotations

import hashlib
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .trial import DesignSpec, apply_interims, final_analysis
from .weights import BorrowingConfig, prefill_weights

__all__ = [
    "Scenario",
    "ReplicateSet",
    "run_scenario",
    "replicate_rng",
    "derive_seed",
    "mc_standard_error",
]

# Replicates whose interims are drawn before their final analyses: the
# borrowing weights a block needs are solved in one batch in between.
BLOCK_REPLICATES = 1024


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

    ``q`` holds posterior probabilities (0 for interim-stopped baskets),
    ``promising`` the efficacy decisions and ``stopped`` the futility flags,
    each as an (M, B) array indexed by replicate then basket.
    """

    scenario: str
    m: int
    master_seed: int
    q: np.ndarray
    promising: np.ndarray
    stopped: np.ndarray

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


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lo, hi, scenario, design, config, cutoffs, master_seed = args
    B = design.n_baskets
    n_pad = max(design.n_max)
    orr = np.array(scenario.true_orr)[:, None]
    count = hi - lo
    q = np.empty((count, B))
    promising = np.empty((count, B), dtype=bool)
    active = np.empty((count, B), dtype=bool)
    for start in range(lo, hi, BLOCK_REPLICATES):
        stop = min(start + BLOCK_REPLICATES, hi)
        trials = []
        for r in range(start, stop):
            rng = replicate_rng(master_seed, scenario.name, r)
            responses = rng.random((B, n_pad)) < orr
            trials.append(apply_interims(responses, design))
        prefill_weights(config, trials)
        for row, data in enumerate(trials, start - lo):
            q[row], promising[row] = final_analysis(data, config, cutoffs, design.p0)
            active[row] = data.active
    return q, promising, ~active


def run_scenario(
    scenario: Scenario,
    design: DesignSpec,
    config: BorrowingConfig,
    cutoffs: Optional[Sequence[float]],
    m: int,
    master_seed: int,
    workers: int = 1,
) -> ReplicateSet:
    """Simulate ``m`` replicate trials of ``scenario`` under the design.

    Results are identical for any ``workers`` >= 1.  Pass ``cutoffs=None`` to
    collect posterior probabilities only (as calibration does); decisions are
    then all False.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if len(scenario.true_orr) != design.n_baskets:
        raise ValueError("scenario and design disagree on the number of baskets")
    if cutoffs is not None:
        cutoffs = tuple(float(c) for c in cutoffs)
    workers = max(1, int(workers))

    if workers == 1 or m < 2 * workers:
        parts = [_simulate_chunk((0, m, scenario, design, config, cutoffs, master_seed))]
    else:
        bounds = np.linspace(0, m, workers + 1).astype(int)
        jobs = [
            (int(bounds[k]), int(bounds[k + 1]), scenario, design, config, cutoffs, master_seed)
            for k in range(workers)
            if bounds[k] < bounds[k + 1]
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_chunk, jobs))

    q = np.vstack([p[0] for p in parts])
    promising = np.vstack([p[1] for p in parts])
    stopped = np.vstack([p[2] for p in parts])
    if q.shape != (m, design.n_baskets):
        raise RuntimeError(
            f"simulation produced {q.shape[0]} of {m} replicates; aborting rather "
            "than reporting truncated results"
        )
    return ReplicateSet(
        scenario=scenario.name,
        m=m,
        master_seed=int(master_seed),
        q=q,
        promising=promising,
        stopped=stopped,
    )


def mc_standard_error(rate: float, m: int) -> float:
    """Binomial Monte Carlo standard error sqrt(p (1 - p) / M) of a rate."""
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / m))
