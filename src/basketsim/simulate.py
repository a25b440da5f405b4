"""Parallel Monte Carlo engine for replicate trials.

Each replicate draws its own counter-based RNG stream keyed by (master seed,
scenario name, replicate index), so results are bit-identical regardless of
how replicates are distributed over worker processes.  ``replicate_rng``
defines a replicate's stream: numpy's Philox4x64-10 seeded through
``SeedSequence``.  Response sequences are always generated to the full maximum
enrollment, which keeps the random numbers aligned across methods and tuning
candidates sharing a seed.

``run_streams`` runs several streams under several configs that share one
similarity engine and prior, such as the candidates of a tuning grid.  It
cuts each stream into blocks, and each block is one job of two stages:
``draw_states`` gives each trial's (y, n, active) after the interim looks,
and ``trial.evaluate_q`` every config's posterior probabilities.  Draws do
not depend on the borrowing method, so each block is drawn once, whatever
the number of configs.  The jobs of all the streams share one pool, and the
streams come back one at a time, in order.  A ``simulate`` command is one
call over its calibration stream and every scenario, and a ``tune`` command
one over the same streams for all its candidates, so each command opens at
most one pool.  ``run_scenario`` is the case of one stream and one config.
``metrics.compute_metrics`` makes the efficacy decisions, once per stream
and config.

A block's draws are one array, not one generator per replicate.
``replicate_words`` hashes every replicate's seed words into its Philox key
with SeedSequence's mixing, vectorised over the replicate index, then draws
each replicate's words from one numpy Philox whose state it sets to that
key, counter 0 and an empty buffer: the state a fresh ``replicate_rng``
starts in, without the cost of building one; the words of 1,000
five-basket replicates of width 25 take about 3 ms, against 20 ms for the
generators (2-vCPU host, numpy 2.4).  ``draw_states`` draws its whole block
in one call and compares the words with each rate as integers, which gives
the responses of ``replicate_rng(seed, name, r).random(shape)`` without
making its doubles.  ``evaluate_q`` then gathers every trial's q, under
every config, from the process's table of class q, which analyses each class
of permuted trials once per process, whichever stream or block it recurs in.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# final_analysis is unused here, but bench/tracer.py hooks it under this module
from .trial import DesignSpec, apply_interims, evaluate_q, final_analysis
from .weights import BorrowingConfig

__all__ = [
    "Scenario",
    "ReplicateSet",
    "run_scenario",
    "run_streams",
    "replicate_rng",
    "derive_seed",
    "mc_standard_error",
]

# Most replicates per block (one job of run_streams): a block's draws go
# through the interims in one call, and its weights are solved in one batch.
BLOCK_REPLICATES = 1024
# A job analyses its block under every config it is given.  A grid of many
# configs gets blocks of fewer replicates, so that a job returns at most
# BLOCK_VALUES probabilities (256 KB) and its transient arrays stay small,
# but not fewer than BLOCK_MIN_REPLICATES, below which the fixed cost of each
# config's pass over a block dominates.
BLOCK_VALUES = 2**15
BLOCK_MIN_REPLICATES = 256


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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _uint32_words(value: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of one word, and the hash constant that follows."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ value >> np.uint32(16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word into a pool word."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> np.uint32(16)


def _philox_keys(master_seed: int, scenario_name: str, lo: int, hi: int) -> np.ndarray:
    """The Philox keys of replicates ``lo`` to ``hi``, one row each:
    ``SeedSequence(entropy=master_seed, spawn_key=(crc32(name), r)).generate_state(2,
    np.uint64)`` for every r at once, as a (hi - lo, 2) uint64 array.

    Each entropy word is a uint32 array that broadcasts over the replicates,
    so the words before the replicate index are mixed once.  An index of
    2**32 or more is two words, as SeedSequence makes it.
    """
    if lo < 2**32 < hi:
        spans = ((lo, 2**32), (2**32, hi))
        parts = [_philox_keys(master_seed, scenario_name, *span) for span in spans]
        return np.concatenate(parts)
    index = np.arange(lo, hi, dtype=np.uint64)
    run = _uint32_words(int(master_seed))
    # with a spawn key, SeedSequence pads the run entropy to its pool of 4 words
    words = [np.array([w], dtype=np.uint32) for w in run + [0] * (4 - len(run))]
    words.append(np.array([zlib.crc32(scenario_name.encode())], dtype=np.uint32))
    words.append((index & np.uint64(_MASK32)).astype(np.uint32))
    if lo >= 2**32:
        words.append((index >> np.uint64(32)).astype(np.uint32))
    # SeedSequence.mix_entropy: hash the first 4 words into the pool, mix
    # every pool word into every other, then fold in the remaining words
    pool, hash_const = [], _HASH_INIT_A
    for word in words[:4]:
        value, hash_const = _hashmix(word, hash_const, _HASH_MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _HASH_MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const, _HASH_MULT_A)
            pool[dst] = _mix(pool[dst], value)
    # SeedSequence.generate_state(2, np.uint64): four words, paired little-endian
    state, hash_const = [], _HASH_INIT_B
    for value in pool:
        value, hash_const = _hashmix(value, hash_const, _HASH_MULT_B)
        state.append(value.astype(np.uint64))
    return np.column_stack([state[k] | state[k + 1] << np.uint64(32) for k in (0, 2)])


def replicate_words(
    master_seed: int, scenario_name: str, lo: int, hi: int, shape: tuple[int, ...]
) -> np.ndarray:
    """The 64-bit Philox words from which ``replicate_rng(master_seed,
    scenario_name, r).random(shape)`` makes its doubles, for r in ``lo`` to
    ``hi``, stacked into one (hi - lo, *shape) uint64 array.

    One numpy Philox generator draws every replicate's words.  Before each
    replicate, its whole state is set to the one a fresh ``replicate_rng``
    starts in: the replicate's key, counter 0 and an empty buffer, so nothing
    of an earlier replicate or of the constructor's seed survives.  The state
    is given as Python lists, which the setter reads entry by entry faster
    than arrays.
    """
    size = int(np.prod(shape))
    bit_generator = np.random.Philox(0)
    state = {
        "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0
    }
    words = np.empty((hi - lo, size), dtype=np.uint64)
    for row, key in zip(words, _philox_keys(master_seed, scenario_name, lo, hi).tolist()):
        state["state"] = {"counter": [0] * 4, "key": key}
        bit_generator.state = state
        row[:] = bit_generator.random_raw(size)
    return words.reshape(hi - lo, *shape)


def draw_states(
    scenario: Scenario, design: DesignSpec, master_seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, n, active) of block ``lo`` to ``hi`` after the interims, each (hi - lo, B).

    The block's words come from one ``replicate_words`` call, about 1 MB for
    1,000 five-basket replicates of width 25.  A response is a uniform below
    the basket's rate, compared as integers:
    (word >> 11) * 2**-53 < p exactly when word < ceil(p * 2**53) << 11,
    since p * 2**53 is exact and below 2**53.
    """
    limit = np.ceil(np.array(scenario.true_orr) * 2.0**53).astype(np.uint64) << np.uint64(11)
    shape = (design.n_baskets, max(design.n_max))
    responses = replicate_words(master_seed, scenario.name, lo, hi, shape) < limit[:, None]
    return apply_interims(responses, design)


def _simulate_block(args) -> tuple[np.ndarray, np.ndarray]:
    # every config's q of the block's active baskets, (K, active count), and
    # the active mask: the rest of q is 0, and need not be sent
    lo, hi, scenario, design, configs, master_seed = args
    y, n, active = draw_states(scenario, design, master_seed, lo, hi)
    return evaluate_q(configs, design.p0, y, n, active)[:, active], active


def split_range(count: int, parts: int) -> list[tuple[int, int]]:
    """``range(count)`` as at most ``parts`` contiguous nonempty (lo, hi) pieces."""
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


def pool_map(fn: Callable, jobs: Sequence, workers: int) -> Iterator:
    """``fn`` over ``jobs``, results in job order as they are taken: in this
    process if ``min(workers, len(jobs))`` is at most 1, else in one pool of
    that size, which closes once the results are exhausted or dropped.  The
    pool runs at most two jobs per worker ahead of the caller, so results
    the caller has not taken do not pile up."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for job in jobs:
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
            ahead.append(pool.submit(fn, job))
        while ahead:
            yield ahead.popleft().result()


def _stream_blocks(m: int, workers: int, width: int) -> list[tuple[int, int]]:
    # jobs of at most BLOCK_REPLICATES replicates of ``width`` probabilities
    # each, fewer for a wide job (see BLOCK_VALUES), as many for each worker;
    # a stream with fewer than two replicates per worker is cut as for one
    size = min(BLOCK_REPLICATES, max(BLOCK_MIN_REPLICATES, BLOCK_VALUES // width))
    ways = workers if m >= 2 * workers else 1
    return split_range(m, ways * -(-m // (size * ways)))


def _take_stream(results: Iterator, blocks: list, configs: int, m: int, B: int) -> list:
    # one stream's block results, in order, as one ReplicateSet per config
    q = np.zeros((configs, m, B))
    active = np.empty((m, B), dtype=bool)
    for lo, hi in blocks:
        values, active[lo:hi] = next(results)
        q[:, lo:hi][:, active[lo:hi]] = values
    stopped = ~active
    return [ReplicateSet(q=qk, stopped=stopped) for qk in q]


def run_streams(
    streams: Sequence[tuple[Scenario, int]],
    design: DesignSpec,
    configs: Sequence[BorrowingConfig],
    m: int,
    workers: int = 1,
) -> Iterator[list[ReplicateSet]]:
    """Simulate ``m`` replicate trials of every (scenario, master seed) stream
    under every config.

    Yields, stream by stream, one ``ReplicateSet`` per config.  The configs
    must share one similarity engine and prior (``trial.evaluate_q``).  Every
    stream is cut into blocks, and every block of every stream is one job of
    one ``pool_map`` call, so each is drawn once and analysed under all the
    configs.  A stream is assembled when its blocks are in; the next is
    assembled only when it is asked for, so a consumer that drops each
    stream's sets before asking holds one stream at a time.  Results are
    identical for any ``workers`` >= 1; fewer raise ``ValueError``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if any(len(scenario.true_orr) != design.n_baskets for scenario, _ in streams):
        raise ValueError("scenario and design disagree on the number of baskets")
    if not configs:  # evaluate_q's error, before the block size divides by a width of 0
        raise ValueError("configs must share one engine and prior, got 0")
    blocks = _stream_blocks(m, workers, len(configs) * design.n_baskets)
    jobs = [
        (lo, hi, scenario, design, tuple(configs), master_seed)
        for scenario, master_seed in streams
        for lo, hi in blocks
    ]
    results = iter(pool_map(_simulate_block, jobs, workers))
    for _ in streams:
        yield _take_stream(results, blocks, len(configs), m, design.n_baskets)


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
    ``metrics.compute_metrics`` turns them into efficacy decisions.  This is
    ``run_streams`` of one stream and one config.
    """
    ((replicates,),) = run_streams([(scenario, master_seed)], design, [config], m, workers)
    return replicates


def mc_standard_error(rate: float, m: int) -> float:
    """Binomial Monte Carlo standard error sqrt(p (1 - p) / M) of a rate."""
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / m))
