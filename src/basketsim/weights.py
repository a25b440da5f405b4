"""Borrowing-weight engines.

Five ways to fill the off-diagonal of the B x B borrowing matrix:

* independent model - all zeros, no borrowing;
* pairwise empirical Bayes (PEB) - each pair's similarity maximizes its own
  two-basket marginal likelihood;
* global empirical Bayes (GEB) - one joint maximization per basket treating
  all other baskets as pooled historical data;
* the 3-component local power prior - an EB similarity matrix rescaled by a
  global borrowing cap and gated by an observed-difference threshold;
* Jensen-Shannon divergence between single-basket posteriors, raised to a
  power and thresholded.

Both empirical-Bayes engines share one log-marginal likelihood and one
maximizer, which solves K independent 1-D problems on [0, 1] in lockstep: a
101-point scan of every row, then golden-section refinement of each row's
bracketing interval, each row stopping on its own.  Near-equal maxima
resolve to the smallest similarity (conservative borrowing).  PEB is one
such problem per ordered pair.  GEB is a boundary search: basket i's
log-marginal depends on its similarities only through A1 = b1 + sum s_j y_j
and A2 = b2 + sum s_j (n_j - y_j), whose reachable set is a convex polygon
with one edge direction per distinct neighbour response rate.  Each edge is
one problem of the pairwise form, and the best edge wins, so there is no
iteration.  Keys of one batch share many edges, so a batch solves each
distinct edge problem once, all in one maximizer call.  Neighbours with
equal rates share one weight, which makes GEB weights a function of the
multiset of neighbours.  Every row's arithmetic is elementwise, so a weight
is bit-identical however its batch is composed.

Solved similarities are memoized per process in one table that maps each
engine ("peb", "geb", "jsd") to its cache and batch solver, under keys built
from counts and prior hyperparameters only.  A GEB key names the neighbour
multiset, so baskets with the same data, and the baskets of a permuted
trial, share a row; a JSD key is the sorted pair of two posteriors' shapes.
``prefill_weights`` solves everything a block of simulated trials needs in
one batch, and ``build_weight_matrix`` gathers from the same table before
applying the method's transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import betaln, gammaln

from .posterior import BasketData, BetaParams, PriorSpec

__all__ = [
    "NumericError",
    "IndependentModel",
    "PowerPriorPEB",
    "PowerPriorGEB",
    "LocalPowerPrior",
    "JSDWeights",
    "BorrowingConfig",
    "peb_weight",
    "geb_weights",
    "three_component_adjust",
    "jsd_weight",
    "build_weight_matrix",
    "clear_caches",
    "prefill_weights",
]

SCAN_POINTS = 101
GOLDEN_TOL = 1e-6
TIE_TOL = 1e-12
JSD_QUAD_TOL = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


# ---------------------------------------------------------------------------
# method configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentModel:
    """No borrowing: zero off-diagonal weights."""


@dataclass(frozen=True)
class PowerPriorPEB:
    """Raw pairwise empirical Bayes weights, no cap or threshold."""


@dataclass(frozen=True)
class PowerPriorGEB:
    """Raw global empirical Bayes weights, no cap or threshold."""


@dataclass(frozen=True)
class LocalPowerPrior:
    """3-component weights: cap(a) * similarity * threshold(delta).

    ``base`` selects the similarity engine ("peb" or "geb"), ``a`` bounds the
    borrowing factor globally and ``delta`` suppresses borrowing between
    baskets whose observed response rates differ by delta or more.
    """

    base: str
    a: float
    delta: float

    def __post_init__(self) -> None:
        if self.base not in ("peb", "geb"):
            raise ValueError(f"base must be 'peb' or 'geb', got {self.base!r}")
        if not self.a >= 0.0:
            raise ValueError(f"a must be nonnegative, got {self.a!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")


@dataclass(frozen=True)
class JSDWeights:
    """Jensen-Shannon similarity raised to ``epsilon`` and thresholded at ``tau``."""

    epsilon: float
    tau: float

    def __post_init__(self) -> None:
        if not self.epsilon >= 1.0:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau!r}")


Method = Union[IndependentModel, PowerPriorPEB, PowerPriorGEB, LocalPowerPrior, JSDWeights]


@dataclass(frozen=True)
class BorrowingConfig:
    """A weight engine plus the per-basket beta prior it operates under."""

    method: Method
    prior: PriorSpec


# ---------------------------------------------------------------------------
# batched 1-D marginal-likelihood maximization on [0, 1]
# ---------------------------------------------------------------------------

_SCAN_GRID = np.linspace(0.0, 1.0, SCAN_POINTS)
# Rows scanned at once: keeps the (rows, SCAN_POINTS) temporaries of the scan
# well under a megabyte however large the batch.
_SCAN_ROWS = 64


def _log_marginal_grid(s, y_i, n_i, y_j, n_j, b1, b2):
    a1 = b1 + s * y_j
    a2 = b2 + s * (n_j - y_j)
    return (
        gammaln(a1 + y_i)
        + gammaln(a2 + n_i - y_i)
        - gammaln(a1 + a2 + n_i)
        - gammaln(a1)
        - gammaln(a2)
        + gammaln(a1 + a2)
    )


def _argmax_rows(y_i, n_i, y_j, n_j, b1, b2) -> np.ndarray:
    """Maximize K independent log-marginals over s in [0, 1] in lockstep.

    Row k maximizes ``_log_marginal_grid(s, y_i[k], n_i[k], y_j[k], n_j[k],
    b1[k], b2[k])``; every argument is a float array of shape (K,).  Each row
    is scanned on the 101-point grid, its bracket around the first scan point
    within TIE_TOL of the scan maximum is shrunk by golden-section steps until
    narrower than GOLDEN_TOL, and the smaller of the scan point and the
    refined point wins unless the larger is better by more than TIE_TOL.
    All arithmetic is elementwise, so a row's result does not depend on the
    other rows of the batch.
    """
    args = (y_i, n_i, y_j, n_j, b1, b2)
    K = y_i.shape[0]
    k = np.empty(K, dtype=np.intp)
    for lo in range(0, K, _SCAN_ROWS):
        part = [v[lo:lo + _SCAN_ROWS, None] for v in args]
        vals = _log_marginal_grid(_SCAN_GRID, *part)
        near_max = vals >= vals.max(axis=1, keepdims=True) - TIE_TOL
        k[lo:lo + _SCAN_ROWS] = np.argmax(near_max, axis=1)
    a = _SCAN_GRID[np.maximum(k - 1, 0)]
    b = _SCAN_GRID[np.minimum(k + 1, SCAN_POINTS - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _log_marginal_grid(c, *args)
    fd = _log_marginal_grid(d, *args)
    live = b - a > GOLDEN_TOL
    while live.any():
        # ties shrink from the right, biasing toward smaller arguments
        left = fc >= fd
        a = np.where(live & ~left, c, a)
        b = np.where(live & left, d, b)
        # the surviving interior point; a finished row needs only a and b
        keep, fkeep = np.where(left, c, d), np.where(left, fc, fd)
        width = _INV_PHI * (b - a)
        x = np.where(left, b - width, a + width)
        fx = _log_marginal_grid(x, *args)
        c, d = np.where(left, x, keep), np.where(left, keep, x)
        fc, fd = np.where(left, fx, fkeep), np.where(left, fkeep, fx)
        live = b - a > GOLDEN_TOL
    scan = _SCAN_GRID[k]
    refined = 0.5 * (a + b)
    small, large = np.minimum(scan, refined), np.maximum(scan, refined)
    better = _log_marginal_grid(large, *args) > _log_marginal_grid(small, *args) + TIE_TOL
    return np.where(better, large, small)


def _solve_peb(keys) -> np.ndarray:
    """Pairwise similarities for keys (y_i, n_i, y_j, n_j, b1, b2), one batch."""
    return _argmax_rows(*np.array(keys, dtype=float).T)


def _polygon_edges(keys) -> tuple:
    """The distinct edge problems of a batch of GEB keys, and each key's plan.

    Neighbour j moves (A1, A2) by s_j (y_j, n_j - y_j), so the reachable set
    is a convex polygon with one edge direction per distinct response rate.
    Its boundary is two chains from s = 0 to s = 1 that fill the rate groups
    in ascending and in descending rate order.  Every edge is a 1-D problem of
    the pairwise form, with the groups filled before it as prior offsets.
    Returns the problems as rows (y_i, n_i, group y, group n, b1 + filled y,
    b2 + filled n - filled y, filled n), each once, and per key the rank of
    each neighbour's gcd-reduced rate among the key's distinct rates
    (ascending) and the row of each edge, ascending chain first.  Nothing
    depends on the order of a key's neighbours.
    """
    problems: dict = {}
    plans = []
    for y_i, n_i, b1, b2, neighbours in keys:
        rates = []
        groups: dict = {}
        for y, n in neighbours:
            g = math.gcd(y, n)
            rates.append((y // g, n // g))
            total = groups.setdefault(rates[-1], [0, 0])
            total[0] += y
            total[1] += n
        # distinct reduced fractions with denominators below 2**26 differ by
        # more than the rounding of y / n, so the float quotient orders them
        # exactly
        ascending = sorted(groups, key=lambda rate: rate[0] / rate[1])
        edges = []
        for chain in (ascending, ascending[::-1]):
            fill_y = fill_n = 0
            for rate in chain:
                group_y, group_n = groups[rate]
                problem = (y_i, n_i, group_y, group_n, b1 + fill_y, b2 + (fill_n - fill_y), fill_n)
                edges.append(problems.setdefault(problem, len(problems)))
                fill_y += group_y
                fill_n += group_n
        rank = {rate: r for r, rate in enumerate(ascending)}
        plans.append(([rank[rate] for rate in rates], edges))
    return np.array(list(problems), dtype=float).reshape(-1, 7), plans


def _solve_geb(keys) -> list:
    """Global similarity vectors for keys (y_i, n_i, b1, b2, neighbours), one batch.

    Keys of one batch share many polygon edges, so each distinct edge problem
    is solved once, in one ``_argmax_rows`` call, and each key takes its best
    edge; a tie within TIE_TOL goes to the smaller total borrowing
    sum_j s_j n_j, then to the first edge.  A neighbour's similarity is 1 if
    its rate group is filled before that edge, the edge's solution if it is
    the edge's group, else 0.
    """
    rows, plans = _polygon_edges(keys)
    t = _argmax_rows(*rows[:, :6].T)
    value = _log_marginal_grid(t, *rows[:, :6].T).tolist()
    borrowing = (rows[:, 6] + t * rows[:, 3]).tolist()
    out: list = []
    for ranks, edges in plans:
        sims = []
        if edges:
            top = max(value[row] for row in edges)
            near = [e for e, row in enumerate(edges) if value[row] >= top - TIE_TOL]
            best = min(near, key=lambda e: borrowing[edges[e]])
            # edge e fills the groups before position e % G of its chain; the
            # descending chain holds rank G - 1 - p at position p
            groups = len(edges) // 2
            pos, edge_s = best % groups, t[edges[best]]
            for r in ranks:
                p = r if best < groups else groups - 1 - r
                sims.append(1.0 if p < pos else edge_s if p == pos else 0.0)
        out.append(np.array(sims))
    return out


def _check_counts(y: int, n: int, label: str) -> None:
    if n <= 0 or not 0 <= y <= n:
        raise ValueError(f"invalid counts for {label}: y={y}, n={n}")


def peb_weight(y_i: int, n_i: int, y_j: int, n_j: int, b1: float, b2: float) -> float:
    """Pairwise empirical Bayes similarity of basket j's data for basket i.

    Maximizes the marginal likelihood of observing basket i's data given
    basket j's data discounted by s, over s in [0, 1].  Asymmetric in (i, j)
    by construction.
    """
    _check_counts(y_i, n_i, "basket i")
    _check_counts(y_j, n_j, "basket j")
    return float(_solve_peb([(y_i, n_i, y_j, n_j, b1, b2)])[0])


def geb_weights(i: int, data: BasketData, prior: PriorSpec) -> np.ndarray:
    """Global empirical Bayes similarities of all other baskets for basket ``i``.

    Jointly maximizes the pooled-historical marginal likelihood over the box
    [0, 1]^(B-1).  The maximum is sought on the boundary of the reachable
    (A1, A2) polygon, one scan-and-refine solve per edge; a tie goes to the
    smaller total borrowing.  Neighbours with equal response rates get one
    shared weight, so tied baskets are weighted equally and permuting the
    baskets permutes the weights exactly.  Returns a full length-B vector
    with 1 at position ``i``; entries for futility-stopped baskets stay 0.
    """
    B = data.n_baskets
    if not 0 <= i < B:
        raise IndexError(f"basket index {i} out of range for {B} baskets")
    if prior.n_baskets != B:
        raise ValueError("prior and data disagree on the number of baskets")
    out = np.zeros(B)
    out[i] = 1.0
    others, key = _geb_key(data, prior, i)
    out[others] = _solve_geb([key])[0]
    return out


def three_component_adjust(
    s: np.ndarray, data: BasketData, a: float, delta: float
) -> np.ndarray:
    """Rescale a similarity matrix by the global cap and difference threshold.

    w_ij = min(a * n_i / n_-i, 1) * s_ij * 1{|phat_i - phat_j| < delta} for
    i != j, where n_-i sums the other active baskets' sample sizes.  The
    indicator uses the observed proportions of the data as analyzed; rows and
    columns of futility-stopped baskets are forced to zero off the diagonal.
    """
    if not a >= 0.0:
        raise ValueError(f"a must be nonnegative, got {a!r}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta!r}")
    B = data.n_baskets
    s = np.asarray(s, dtype=float)
    if s.shape != (B, B):
        raise ValueError(f"similarity matrix must be {B}x{B}, got {s.shape}")
    phat = [data.y[i] / data.n[i] for i in range(B)]
    active = [i for i in range(B) if data.active[i]]
    n_active = sum(data.n[i] for i in active)
    out = np.eye(B)
    for i in active:
        n_other = n_active - data.n[i]
        if n_other == 0:
            continue
        cap = min(a * data.n[i] / n_other, 1.0)
        for j in active:
            if j != i:
                inside = 1.0 if abs(phat[i] - phat[j]) < delta else 0.0
                out[i, j] = cap * s[i, j] * inside
    return out


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence between beta densities
# ---------------------------------------------------------------------------


_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
# With |t| <= 6 the inner argument (pi/2) sinh t stays below 320, so every
# exp/log1p below is finite, while the neglected tails are < 1e-30.
_T_MAX = 6.0
# The finest trapezoid level has 2**19 + 1 nodes, 4 MB per array.
_MAX_LEVEL = 19


def _js_divergence(a1: float, b1: float, a2: float, b2: float) -> float:
    """JS(f, g) with natural-log KL for beta densities f, g, to JSD_QUAD_TOL.

    The integrand (f log(f/m) + g log(g/m)) / 2, m = (f + g) / 2, is
    integrated over t after the double-exponential substitution
    x = (1 + tanh((pi/2) sinh t)) / 2, |t| <= T_MAX, which turns endpoint
    singularities of the densities (shapes below 1) into smooth,
    double-exponentially decaying tails, so the trapezoid rule converges fast.
    The first step is the narrower density's sd mapped to t at its mean,
    rounded down to 2 T_MAX / 2**k so that no peak falls between nodes; the
    step is then halved until three successive sums agree within
    JSD_QUAD_TOL.  Two can agree by chance: for one pair of shapes below 31
    the sums at steps 12/2**7 and 12/2**8 differ by 7e-9, yet both are
    1.2e-8 from the integral (the test suite keeps that pair).  Shape sums
    past 1e6 raise, as ``betaln``'s error grows past 3.6e-9 (8.3e-9 at 2e6,
    1.9e-8 at 3e6; worst of about 400 shape pairs each, against mpmath).
    """
    if max(a1 + b1, a2 + b2) > 1e6:
        raise NumericError(f"beta shapes ({a1:g}, {b1:g}) vs ({a2:g}, {b2:g}) sum past 1e6")
    ln_beta1, ln_beta2 = betaln(a1, b1), betaln(a2, b2)

    def integrand(t: np.ndarray) -> np.ndarray:
        s2 = math.pi * np.sinh(t)  # 2 * (pi/2) sinh t
        ln_x = -np.log1p(np.exp(-s2))
        ln_1mx = -np.log1p(np.exp(s2))
        ln_jac = _LNPI + np.log(np.cosh(t)) + ln_x + ln_1mx
        lf = (a1 - 1.0) * ln_x + (b1 - 1.0) * ln_1mx - ln_beta1
        lg = (a2 - 1.0) * ln_x + (b2 - 1.0) * ln_1mx - ln_beta2
        lm = np.logaddexp(lf, lg) - _LN2
        # f(x) dx/dt in one exp keeps singular-density overflow at bay
        return 0.5 * (np.exp(lf + ln_jac) * (lf - lm) + np.exp(lg + ln_jac) * (lg - lm))

    # sd / (dx/dt) at the mean a / (a + b), where dx/dt = pi cosh t x (1 - x)
    # and sinh t = log(a / b) / pi
    width = min(
        (a + b)
        / (math.pi * math.hypot(1.0, math.log(a / b) / math.pi) * math.sqrt(a * b * (a + b + 1.0)))
        for a, b in ((a1, b1), (a2, b2))
    )
    level = max(0, math.ceil(math.log2(2.0 * _T_MAX / width)))
    # the first level evaluates every node, each later one only the midpoints
    start, stride, node_sum, last, change = 0, 1, 0.0, math.inf, math.inf
    while level <= _MAX_LEVEL:
        h = 2.0 * _T_MAX / 2**level
        node_sum += float(integrand(-_T_MAX + h * np.arange(start, 2**level + 1, stride)).sum())
        total = h * node_sum
        if max(change, abs(total - last)) <= JSD_QUAD_TOL:
            return total
        last, change = total, abs(total - last)
        level, start, stride = level + 1, 1, 2
    raise NumericError(
        "JSD quadrature did not converge for beta shapes "
        f"({a1:g}, {b1:g}) vs ({a2:g}, {b2:g})"
    )


def _jsd_similarity(a1: float, b1: float, a2: float, b2: float) -> float:
    """1 - JS(f, g) with natural-log KL, clamped to [0, 1].

    Symmetric in the two densities; it ranges from 1 - ln 2 (disjoint
    supports) to 1 (equal densities), within JSD_QUAD_TOL.
    """
    return min(max(1.0 - _js_divergence(a1, b1, a2, b2), 0.0), 1.0)


def _solve_jsd(keys) -> list:
    """JSD similarities for keys ((a1, b1), (a2, b2)) of two posteriors' shapes."""
    return [_jsd_similarity(*first, *second) for first, second in keys]


def _jsd_power(w_star: float, epsilon: float, tau: float) -> float:
    # a scalar ** per entry: numpy's power can differ from it in the last bit
    powered = w_star**epsilon
    return powered if powered > tau else 0.0


def jsd_weight(post_i: BetaParams, post_j: BetaParams, epsilon: float, tau: float) -> float:
    """Borrowing weight from the Jensen-Shannon similarity of two posteriors.

    The similarity w* = 1 - JS(f_i, f_j) is computed with natural-log KL
    divergences (so w* ranges from 1 - ln 2 to 1) by a double-exponential
    trapezoid rule to absolute accuracy JSD_QUAD_TOL, raised to ``epsilon``
    and zeroed unless it strictly exceeds ``tau``.  Raises ``NumericError``
    if a shape sum exceeds 1e6 or the rule does not converge within its node
    cap.
    """
    if not epsilon >= 1.0:
        raise ValueError(f"epsilon must be >= 1, got {epsilon!r}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau!r}")
    w_star = _jsd_similarity(post_i.shape1, post_i.shape2, post_j.shape1, post_j.shape2)
    return _jsd_power(w_star, epsilon, tau)


# ---------------------------------------------------------------------------
# matrix assembly with per-process memoization
# ---------------------------------------------------------------------------

# Similarities depend only on counts and prior hyperparameters, so in a
# simulation the same small set of keys recurs across thousands of
# replicates.  One table maps each engine to its memo dict and batch solver;
# each worker process owns its own copy.  A PEB key is (y_i, n_i, y_j, n_j,
# b1_i, b2_i); a GEB key is (y_i, n_i, b1_i, b2_i, sorted((y_j, n_j) for
# active j != i)) and maps to the similarity vector over those neighbours; a
# JSD key is the sorted pair of the two baskets' posterior shapes
# ((b1 + y, b2 + n - y) each), since the similarity is symmetric.  Basket
# indices are left out of every key: no solve reads them.
_ENGINES = {
    "peb": ({}, _solve_peb),
    "geb": ({}, _solve_geb),
    "jsd": ({}, _solve_jsd),
}


def clear_caches() -> None:
    """Drop all memoized weight computations (mainly for tests)."""
    for cache, _ in _ENGINES.values():
        cache.clear()


def _geb_key(data: BasketData, prior: PriorSpec, i: int) -> tuple[list, tuple]:
    """Basket i's active neighbours, sorted by (y, n), and its GEB cache key.

    The key's similarity vector runs over the neighbours in that order.
    Neighbours with equal (y, n) have equal rates and so share one weight,
    which makes the order among them immaterial.
    """
    others = sorted(
        (j for j in range(data.n_baskets) if j != i and data.active[j]),
        key=lambda j: (data.y[j], data.n[j]),
    )
    key = (
        data.y[i], data.n[i], prior.b1[i], prior.b2[i],
        tuple((data.y[j], data.n[j]) for j in others),
    )
    return others, key


def _engine(method: Method) -> str | None:
    """The similarity engine a method uses; None for the independent model."""
    if isinstance(method, IndependentModel):
        return None
    if isinstance(method, PowerPriorPEB):
        return "peb"
    if isinstance(method, PowerPriorGEB):
        return "geb"
    if isinstance(method, LocalPowerPrior):
        return method.base
    if isinstance(method, JSDWeights):
        return "jsd"
    raise TypeError(f"unknown borrowing method: {method!r}")


def _entries(engine: str, data: BasketData, prior: PriorSpec) -> list:
    """(i, j, key) for every similarity one trial needs.

    For PEB and JSD, j is one donor basket; for GEB, j lists basket i's
    active neighbours in the order of the similarity vector the key maps to.
    """
    active = [i for i in range(data.n_baskets) if data.active[i]]
    if engine == "geb":
        return [(i, *_geb_key(data, prior, i)) for i in active]
    if engine == "peb":
        return [
            (i, j, (data.y[i], data.n[i], data.y[j], data.n[j], prior.b1[i], prior.b2[i]))
            for i in active
            for j in active
            if j != i
        ]
    shapes = {i: (prior.b1[i] + data.y[i], prior.b2[i] + data.n[i] - data.y[i]) for i in active}
    return [
        (i, j, (min(shapes[i], shapes[j]), max(shapes[i], shapes[j])))
        for i in active
        for j in active
        if j != i
    ]


def _fill_cache(engine: str, keys) -> dict:
    """Solve the keys the engine's cache lacks, in one batch; return the cache."""
    cache, solve = _ENGINES[engine]
    missing = list(dict.fromkeys(key for key in keys if key not in cache))
    if missing:
        cache.update(zip(missing, solve(missing)))
    return cache


def prefill_weights(config: BorrowingConfig, trials) -> None:
    """Solve, in one batch, every similarity the trials need that is not cached.

    A no-op for the independent model.  Afterwards every
    ``build_weight_matrix(config, data)`` call for these trials is served
    from the cache.
    """
    engine = _engine(config.method)
    if engine is None:
        return
    prior = config.prior
    unique = dict.fromkeys(trials)
    if any(prior.n_baskets != data.n_baskets for data in unique):
        raise ValueError("prior and data disagree on the number of baskets")
    _fill_cache(engine, (key for data in unique for _, _, key in _entries(engine, data, prior)))


def build_weight_matrix(config: BorrowingConfig, data: BasketData) -> np.ndarray:
    """Assemble the full B x B borrowing matrix for the configured method.

    Weights are computed only among active baskets; rows and columns touching
    a futility-stopped basket are zero off the diagonal, and the diagonal is
    always 1.  The engine's similarities are gathered from the shared table,
    then the method's transform applies: the cap and threshold of the local
    power prior, or the JSD power and threshold.
    """
    if config.prior.n_baskets != data.n_baskets:
        raise ValueError("prior and data disagree on the number of baskets")
    method = config.method
    engine = _engine(method)
    w = np.eye(data.n_baskets)
    if engine is None:
        return w
    entries = _entries(engine, data, config.prior)
    cache = _fill_cache(engine, (key for _, _, key in entries))
    for i, j, key in entries:
        w[i, j] = cache[key]
    if isinstance(method, LocalPowerPrior):
        w = three_component_adjust(w, data, method.a, method.delta)
    elif isinstance(method, JSDWeights):
        for i, j, _ in entries:
            w[i, j] = _jsd_power(float(w[i, j]), method.epsilon, method.tau)
    return w


