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
iteration.  A batch of GEB keys is solved as arrays: their neighbours are
padded into one table and sorted by rate, cumulative sums give every edge of
every key, the batch's distinct edges are solved once, all in one maximizer
call, and each key picks its best edge from masked arrays.  Neighbours with
equal rates share one weight, which makes GEB weights a function of the
multiset of neighbours.  Every row's arithmetic is elementwise, so a weight
is bit-identical however its batch is composed.

Solved similarities are memoized per process in one table that maps each
engine ("peb", "geb", "jsd") to its cache and batch solver, under keys built
from counts and prior hyperparameters only.  A GEB key names the neighbour
multiset, so baskets with the same data, and the baskets of a permuted
trial, share a row; a JSD key is the sorted pair of two posteriors' shapes.
``prefill_weights`` builds a block's keys from its (R, B) arrays: each
basket's prior row and counts are one integer code (``_basket_codes``), each
key is first a row of codes, and only the block's distinct rows become key
tuples, which it solves in one batch.  ``build_weight_matrix`` lists one
trial's keys (``_entries``; GEB's from one sort of its active baskets) and
gathers them from the same table before applying the method's transform.
A trial's similarity matrix is a function of the multiset of its baskets'
codes, so trials whose sorted codes agree form one class
(``similarity_classes``).  A second per-process table
(``class_table``) keeps each class's q in ascending code order, under the
configs, the null rate, the code width and the sorted codes, so a class is
analysed once per process, whichever block, stream or basket order it comes
back in.  The transforms, the local power prior's cap and threshold and
JSD's power and threshold, act on a whole block of similarity matrices at
once (``transform_block``), so the methods that share an engine share each
class's matrix (``similarity_config``).  ``clear_caches`` empties both
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Union

import numpy as np
from scipy.special import betaln, gammaln

from .posterior import BasketData, PriorSpec

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
    "build_weight_matrix",
    "class_table",
    "clear_caches",
    "prefill_weights",
    "similarity_classes",
    "similarity_config",
    "transform_block",
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
# well under a megabyte however large the batch.  The golden-section steps
# refine as many rows at once as such a temporary holds entries, so their
# (rows,) temporaries are no larger.
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
    other rows of the batch, nor on the pieces it is solved in.
    """
    args = (y_i, n_i, y_j, n_j, b1, b2)
    out = np.empty(y_i.shape[0])
    piece = _SCAN_ROWS * SCAN_POINTS
    for lo in range(0, len(out), piece):
        out[lo:lo + piece] = _argmax_piece(*(v[lo:lo + piece] for v in args))
    return out


def _argmax_piece(*args) -> np.ndarray:
    # _argmax_rows of one piece of rows
    K = args[0].shape[0]
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


def _solve_geb(keys) -> list:
    """Global similarity vectors for keys (y_i, n_i, b1, b2, neighbours), one batch.

    Neighbour j moves (A1, A2) by s_j (y_j, n_j - y_j), so the reachable set
    is a convex polygon with one edge direction per distinct response rate.
    Its boundary is two chains from s = 0 to s = 1 that fill the rate groups
    in ascending and in descending rate order.  Every edge is a 1-D problem of
    the pairwise form, with the groups filled before it as prior offsets.

    The batch is solved as arrays.  Its K keys' neighbours are padded into
    (K, L) rows and each row is sorted by rate: distinct reduced fractions
    with denominators below 2**26 differ by more than the rounding of y / n,
    so the float quotient orders them exactly, and equal fractions give
    equal floats.  Cumulative sums over the sorted rows give every group's
    counts and both chains' fills.  Each distinct edge, an integer row (y_i,
    n_i, prior row, group y, group n, fill y, fill n), is solved once, in one
    ``_argmax_rows`` call.  Each key takes its best edge from (K, 2L) arrays,
    ascending chain first: a tie within TIE_TOL goes to the smaller total
    borrowing sum_j s_j n_j, then to the first edge.  A neighbour's
    similarity is 1 if its rate group is filled before that edge, the edge's
    solution if it is the edge's group, else 0.  Nothing depends on the
    order of a key's neighbours.
    """
    K = len(keys)
    y_i, n_i, b1, b2, neighbours = zip(*keys) if keys else ((),) * 5
    size = np.fromiter(map(len, neighbours), np.intp, K)
    L = max(int(size.max(initial=0)), 1)
    # tables are deleted once used, which keeps the batch's peak memory near
    # its largest table.  Step 1: the neighbours as (K, L) counts; padding
    # sorts last, at rate inf
    valid = np.arange(L) < size[:, None]
    counts = np.fromiter(chain.from_iterable(chain.from_iterable(neighbours)), np.int64)
    y, n = np.zeros((2, K, L), dtype=np.int64)
    y[valid], n[valid] = counts[0::2], counts[1::2]
    del counts
    rate = np.divide(y, n, out=np.full((K, L), np.inf), where=valid)
    # step 2: each row by rate; a rate group starts where the rate changes
    order = np.argsort(rate, axis=1, kind="stable")
    rate = np.take_along_axis(rate, order, axis=1)
    start = valid.copy()
    start[:, 1:] &= rate[:, 1:] != rate[:, :-1]
    del rate
    last = valid.copy()
    last[:, :-1] &= start[:, 1:] | ~valid[:, 1:]
    group = np.cumsum(start, axis=1) - 1
    # step 3: group g of key k has two edges, one per chain: the ascending
    # chain fills the groups below g before it, the descending one those above
    key, g = np.nonzero(start)[0], group[start]
    prior_rows = {row: r for r, row in enumerate(dict.fromkeys(zip(b1, b2)))}
    own = (y_i, n_i, list(map(prior_rows.__getitem__, zip(b1, b2))))
    top = max(max(n_i, default=0), int(n.sum(axis=1).max(initial=0)), len(prior_rows))
    rows = np.empty((2, len(key), 7), dtype=np.min_scalar_type(top))
    for col, values in enumerate(own):
        rows[:, :, col] = np.array(values, dtype=np.int64)[key]
    for col, c in ((3, y), (4, n)):
        c = np.take_along_axis(c, order, axis=1)
        total = np.cumsum(c, axis=1)
        below, upto = (total - c)[start], total[last]
        rows[:, :, col] = upto - below
        rows[0, :, col + 2], rows[1, :, col + 2] = below, total[key, -1] - upto
        del c, total, below, upto
    del y, n, start, last
    # step 4: every distinct edge problem, solved once; an edge's solution t
    # borrows fill n + t * group n
    first, edge = _distinct_rows(rows.reshape(-1, 7))
    rows = rows.reshape(-1, 7)[first]
    prior = np.array(list(prior_rows), dtype=float).reshape(-1, 2)[rows[:, 2]]
    args = (
        *rows[:, [0, 1, 3, 4]].T.astype(float),
        prior[:, 0] + rows[:, 5],
        prior[:, 1] + (rows[:, 6] - rows[:, 5]),
    )
    del prior
    t = _argmax_rows(*args)
    value = _log_marginal_grid(t, *args)
    borrowing = rows[:, 6] + t * rows[:, 4]
    del rows, args
    # step 5: each key's edges in chain order: group g's ascending edge at
    # column g, its descending one, at position G - 1 - g of that chain, at
    # column 2L - 1 - g; an empty cell points at an appended edge that no
    # key prefers
    cell = np.full((K, 2 * L), -1, dtype=np.intp)
    cell[np.tile(key, 2), np.concatenate([g, 2 * L - 1 - g])] = edge
    del key, g, edge
    value, borrowing, t = np.append(value, -np.inf), np.append(borrowing, np.inf), np.append(t, 0.0)
    score = value[cell]
    cost = np.where(score >= score.max(axis=1, keepdims=True) - TIE_TOL, borrowing[cell], np.inf)
    del score
    best = cost.argmin(axis=1)
    edge_s = t[cell[np.arange(K), best]][:, None]
    descending = (best >= L)[:, None]
    best_group = np.where(descending, 2 * L - 1 - best[:, None], best[:, None])
    borrowed = np.where(descending, group > best_group, group < best_group)
    sims = np.empty((K, L))
    np.put_along_axis(
        sims, order, np.where(group == best_group, edge_s, np.where(borrowed, 1.0, 0.0)), axis=1
    )
    sims = sims[valid]
    ends = np.cumsum(size).tolist()
    return [sims[a:b] for a, b in zip([0] + ends, ends)]


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
    [(_, others, key)] = _geb_entries(data, prior, [i])
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
    This is ``_cap_and_gate`` of a block of one trial.
    """
    if not a >= 0.0:
        raise ValueError(f"a must be nonnegative, got {a!r}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta!r}")
    B = data.n_baskets
    s = np.asarray(s, dtype=float)
    if s.shape != (B, B):
        raise ValueError(f"similarity matrix must be {B}x{B}, got {s.shape}")
    return _cap_and_gate(s[None], *_block_of_one(data), a, delta)[0]


def _block_of_one(data: BasketData) -> tuple[np.ndarray, ...]:
    return np.array([data.y]), np.array([data.n]), np.array([data.active])


def _cap_and_gate(s, y, n, active, a: float, delta: float) -> np.ndarray:
    """``three_component_adjust`` of every trial of a block, as arrays.

    ``s`` is (R, B, B) and ``y``, ``n``, ``active`` are (R, B).  Each entry
    takes the scalar rule's float operations in its order, (a * n_i) / n_-i,
    then cap * s_ij, so it is bit-identical to a loop over the pairs.
    """
    n, active = np.asarray(n), np.asarray(active, dtype=bool)
    B = n.shape[1]
    # n_-i is positive for an active basket with an active neighbour, the
    # only rows that borrow; the floor of 1 keeps the other rows finite
    n_other = np.maximum((n * active).sum(axis=1, keepdims=True) - n, 1)
    cap = np.minimum(a * n / n_other, 1.0)
    phat = np.asarray(y) / n
    borrow = np.abs(phat[:, :, None] - phat[:, None, :]) < delta
    borrow &= active[:, :, None] & active[:, None, :]
    w = np.where(borrow, cap[:, :, None] * s, 0.0)
    w[:, np.arange(B), np.arange(B)] = 1.0
    return w


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


def _power_and_gate(s: np.ndarray, epsilon: float, tau: float) -> np.ndarray:
    """``_jsd_power`` of every off-diagonal entry of an (R, B, B) block.

    The power is taken once per distinct similarity of the block; a zero
    (a stopped basket's row or column) stays zero, since tau >= 0.
    """
    values, index = np.unique(s.ravel(), return_inverse=True)
    powered = np.array([_jsd_power(v, epsilon, tau) for v in values.tolist()])
    w = powered[index].reshape(s.shape)
    B = s.shape[1]
    w[:, np.arange(B), np.arange(B)] = 1.0
    return w


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

# The same classes of permuted trials recur block after block and stream
# after stream, so their q are memoized per process too, one dict per tuple
# of configs and null rate (``class_table``).
_CLASSES: dict = {}


def clear_caches() -> None:
    """Drop all memoized weight computations (mainly for tests)."""
    for cache, _ in _ENGINES.values():
        cache.clear()
    _CLASSES.clear()


def class_table(configs: tuple, p0: float) -> dict:
    """This process's class q under ``configs``, which share one
    ``similarity_config``, and the null rate ``p0``.

    Each class key of ``similarity_classes`` maps to the class's (K, B) q,
    one row per config with the baskets in ascending code order, as the
    bytes of a float64 array.  A key holds the code width and the sorted
    codes, which name one multiset of prior rows and states only under one
    prior and one width.  The table costs classes x K x B x 8 bytes, plus
    each key, per process; ``clear_caches`` empties it.
    """
    return _CLASSES.setdefault((tuple(configs), p0), {})


def _geb_entries(data: BasketData, prior: PriorSpec, baskets) -> list:
    """(i, j, key) of the GEB similarities of each basket i of ``baskets``.

    The trial's active baskets are sorted by (y, n) once, and j is that list
    without basket i: the order of the similarity vector the key maps to.
    Dropping one basket from a stable sort leaves the sort of the others, so
    j is what sorting basket i's own neighbours gives.  Neighbours with equal
    (y, n) have equal rates and so share one weight, which makes the order
    among them immaterial.
    """
    ranked = sorted(
        (j for j in range(data.n_baskets) if data.active[j]), key=lambda j: (data.y[j], data.n[j])
    )
    counts = [(data.y[j], data.n[j]) for j in ranked]
    entries = []
    for i in baskets:
        others, neighbours = ranked, counts
        if data.active[i]:
            p = ranked.index(i)
            others, neighbours = ranked[:p] + ranked[p + 1:], counts[:p] + counts[p + 1:]
        key = (data.y[i], data.n[i], prior.b1[i], prior.b2[i], tuple(neighbours))
        entries.append((i, others, key))
    return entries


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
        return _geb_entries(data, prior, active)
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


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one ``np.void`` of its bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct row of a 2-D integer array, and
    the class of every row.

    Each row is compared as one ``np.void`` of its bytes, in the array's own
    integer type: several times faster than ``np.unique(axis=0)``, and,
    unlike packing a row into one integer, it cannot overflow however wide
    the row or large its entries.
    """
    if not len(rows):
        return np.zeros((2, 0), dtype=np.intp)
    view = _row_bytes(rows)
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _basket_codes(prior: PriorSpec, y, n, active) -> tuple[np.ndarray, int, list]:
    """Each basket's prior row and counts as one integer, from (R, B) arrays.

    With ``g`` the basket's index among the prior's distinct (b1, b2) rows,
    an active basket's code is ``g * w**2 + state``, where ``state = n * w +
    y + 1`` lies in [w, w**2), and a stopped basket's code is 0; B * w**2
    stays far below 2**63 for any design that can be simulated.  Returns the
    codes, ``w`` and the distinct prior rows.
    """
    rows = list(dict.fromkeys(zip(prior.b1, prior.b2)))
    group = np.array([rows.index(row) for row in zip(prior.b1, prior.b2)])
    w = int(np.max(n, initial=0)) + 2  # above every n and every y + 1
    return np.where(active, (group * w + n) * w + y + 1, 0), w, rows


def _counts(state: int, w: int) -> tuple[int, int]:
    # (y, n) of a state of _basket_codes
    n, y = divmod(state, w)
    return y - 1, n


def similarity_classes(prior: PriorSpec, y, n, active) -> tuple:
    """Each trial's basket order and class, for trials whose similarity
    matrices are one matrix up to that order.

    ``y``, ``n`` and ``active`` are (R, B).  A basket's code is its prior row
    and its state: (y, n) if active, and one state shared by every stopped
    basket, whose counts enter no key.  Every engine's entry is a lookup of
    codes: PEB's of the own code and the donor's state, GEB's of the own code
    and the neighbours' states, JSD's of both codes.  Equal (y, n) neighbours
    get bit-equal GEB weights, so two trials whose sorted codes are equal
    have equal matrices in that order.  Returns every trial's baskets in
    ascending code order, (R, B), the first trial of each class, every
    trial's class and each class's key: the code width ``w`` of
    ``_basket_codes``, which the block's largest n sets, and the sorted
    codes, as the bytes of the smallest unsigned type that holds every code
    at that width.  Under one prior, equal keys from any two blocks name one
    matrix, and one q, in code order (``class_table``); keys of two types
    differ in length.
    """
    codes, w, prior_rows = _basket_codes(prior, y, n, active)
    order = np.argsort(codes, axis=1, kind="stable")
    rows = np.take_along_axis(codes, order, axis=1)
    first, cls = _distinct_rows(rows)
    keys = np.column_stack([np.full(len(first), w), rows[first]])
    keys = keys.astype(np.min_scalar_type(len(prior_rows) * w * w))
    return order, first, cls, _row_bytes(keys).tolist()


def _block_keys(engine: str, prior: PriorSpec, y, n, active) -> Iterator[tuple]:
    """Every distinct key of ``_entries`` over a block of trials, built from
    its (R, B) arrays, one at a time.

    Each key is first one row of ``_basket_codes`` codes and states; only
    the distinct rows become key tuples, with the same Python numbers and
    float operations as ``_entries``.
    """
    codes, w, prior_rows = _basket_codes(prior, y, n, active)
    states = codes % (w * w)  # a basket's counts without its prior row
    B = codes.shape[1]
    if engine == "geb":
        # basket i's neighbours are the sorted states without one copy of its
        # own, the copy at the count of states below it; stopped ones are 0
        below = (states[:, None, :] < states[:, :, None]).sum(axis=2)
        drop = np.array([[k for k in range(B) if k != p] for p in range(B)]).reshape(B, B - 1)
        r, i = np.nonzero(active)
        others = np.sort(states, axis=1)[r[:, None], drop[below[r, i]]]
        rows = np.column_stack([codes[r, i], others])
        for code, *neighbours in rows[_distinct_rows(rows)[0]].tolist():
            g, state = divmod(code, w * w)
            key_neighbours = tuple(sorted(_counts(s, w) for s in neighbours if s))
            yield (*_counts(state, w), *prior_rows[g], key_neighbours)
        return
    # PEB reads basket i's prior for each ordered pair, JSD both baskets'
    # for each unordered pair, in code order, since its similarity is symmetric
    i, j = np.nonzero(~np.eye(B, dtype=bool)) if engine == "peb" else np.triu_indices(B, 1)
    both = active[:, i] & active[:, j]
    donors = (states if engine == "peb" else codes)[:, j][both]
    rows = np.column_stack([codes[:, i][both], donors])
    if engine == "jsd":
        rows.sort(axis=1)
    for code, donor in rows[_distinct_rows(rows)[0]].tolist():
        g, state = divmod(code, w * w)
        (y_i, n_i), (b1_i, b2_i) = _counts(state, w), prior_rows[g]
        if engine == "peb":
            yield (y_i, n_i, *_counts(donor, w), b1_i, b2_i)
            continue
        g_j, state_j = divmod(donor, w * w)
        (y_j, n_j), (b1_j, b2_j) = _counts(state_j, w), prior_rows[g_j]
        first, second = (b1_i + y_i, b2_i + n_i - y_i), (b1_j + y_j, b2_j + n_j - y_j)
        yield (min(first, second), max(first, second))


def prefill_weights(config: BorrowingConfig, y, n, active) -> None:
    """Solve, in one batch, every similarity a block of trials needs that is not cached.

    ``y``, ``n`` and ``active`` hold the block as (R, B) arrays.  A no-op for
    the independent model.  Afterwards every ``build_weight_matrix(config,
    data)`` call for these trials is served from the cache.
    """
    engine = _engine(config.method)
    if engine is None:
        return
    y, n, active = np.asarray(y), np.asarray(n), np.asarray(active, dtype=bool)
    if config.prior.n_baskets != y.shape[1]:
        raise ValueError("prior and data disagree on the number of baskets")
    _fill_cache(engine, _block_keys(engine, config.prior, y, n, active))


# The method of each engine that applies no transform: under it,
# ``build_weight_matrix`` gives the bare similarities, which every method on
# the engine shares.  JSD's power 1 and threshold 0 leave every similarity
# as it is, since each is at least 1 - ln 2.
_BARE = {
    None: IndependentModel(),
    "peb": PowerPriorPEB(),
    "geb": PowerPriorGEB(),
    "jsd": JSDWeights(1.0, 0.0),
}


def similarity_config(config: BorrowingConfig) -> BorrowingConfig:
    """``config``'s engine and prior under the engine's untransformed method.

    Its weight matrices are the similarities that ``transform_block`` turns
    into ``config``'s weights, so configs that share this one share them.
    """
    return BorrowingConfig(_BARE[_engine(config.method)], config.prior)


def transform_block(
    method: Method, s: np.ndarray, y: np.ndarray, n: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """The method's weights from a block of bare similarity matrices.

    ``s`` is (R, B, B), one trial's ``similarity_config`` weight matrix per
    row, and ``y``, ``n``, ``active`` are (R, B).  The local power prior
    applies its cap and threshold (``three_component_adjust``), JSD its power
    and threshold (``_jsd_power``); the other methods use the similarities
    as they are.
    """
    if isinstance(method, LocalPowerPrior):
        return _cap_and_gate(s, y, n, active, method.a, method.delta)
    if isinstance(method, JSDWeights):
        return _power_and_gate(s, method.epsilon, method.tau)
    return s


def build_weight_matrix(config: BorrowingConfig, data: BasketData) -> np.ndarray:
    """Assemble the full B x B borrowing matrix for the configured method.

    Weights are computed only among active baskets; rows and columns touching
    a futility-stopped basket are zero off the diagonal, and the diagonal is
    always 1.  The engine's similarities are gathered from the shared table,
    then ``transform_block`` applies the method's transform to the block of
    this one trial.
    """
    if config.prior.n_baskets != data.n_baskets:
        raise ValueError("prior and data disagree on the number of baskets")
    method = config.method
    engine = _engine(method)
    w = np.eye(data.n_baskets)
    if engine is None:
        return w
    entries = _entries(engine, data, config.prior)
    keys = [key for _, _, key in entries]
    cache, _ = _ENGINES[engine]
    try:
        values = list(map(cache.__getitem__, keys))
    except KeyError:  # keys that no prefill has solved
        values = list(map(_fill_cache(engine, keys).__getitem__, keys))
    for (i, j, _), value in zip(entries, values):
        w[i, j] = value
    if method == _BARE[engine]:  # the similarities themselves
        return w
    return transform_block(method, w[None], *_block_of_one(data))[0]
