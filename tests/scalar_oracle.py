"""Scalar references for the weight solvers and the trial analysis.

Weight solvers: one maximization at a time in plain Python floats, a
101-point scan of [0, 1], golden-section refinement on the bracketing
interval, and cyclic coordinate ascent for the global engine.  The batched
pairwise solver in ``basketsim.weights`` follows the same rules and is
checked against this code to a fixed tolerance.  The global engine searches
the boundary of the reachable polygon instead; it is checked against
coordinate ascent on what both identify: each equal-rate group's average
similarity and the objective.

Trial analysis: the interim stops, the local power prior's cap and
threshold, posterior shapes, posterior probabilities and decisions one basket
at a time.  The whole-trial functions of ``basketsim.trial``,
``basketsim.posterior`` and ``basketsim.weights`` must match them bit for bit.
"""

import math

import numpy as np
from scipy.special import betainc, gammaln

from basketsim.weights import GOLDEN_TOL, SCAN_POINTS, TIE_TOL

# stopping rules of the coordinate ascent
COORD_TOL = 1e-4
MAX_SWEEPS = 100

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_bracket(f, lo, hi, tol):
    # Golden-section shrink of [lo, hi] around a maximum of f.  Ties move the
    # right edge, biasing toward smaller arguments.
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return a, b


def argmax_unit(f_scalar, f_grid):
    """Maximize over [0, 1]; among near-equal maxima the smallest argument wins."""
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    vals = np.asarray(f_grid(grid), dtype=float)
    vmax = float(np.max(vals))
    k = int(np.nonzero(vals >= vmax - TIE_TOL)[0][0])
    lo = grid[k - 1] if k > 0 else grid[0]
    hi = grid[k + 1] if k < SCAN_POINTS - 1 else grid[-1]
    a, b = _golden_bracket(f_scalar, lo, hi, GOLDEN_TOL)
    refined = 0.5 * (a + b)
    best_s, best_f = None, -math.inf
    for s in sorted((grid[k], refined)):
        fs = f_scalar(s)
        if fs > best_f + TIE_TOL:
            best_s, best_f = s, fs
    return float(best_s)


def _log_marginal(lgamma, s, y_i, n_i, y_j, n_j, b1, b2):
    a1 = b1 + s * y_j
    a2 = b2 + s * (n_j - y_j)
    return (
        lgamma(a1 + y_i)
        + lgamma(a2 + n_i - y_i)
        - lgamma(a1 + a2 + n_i)
        - lgamma(a1)
        - lgamma(a2)
        + lgamma(a1 + a2)
    )


def peb_weight(y_i, n_i, y_j, n_j, b1, b2):
    """Pairwise similarity of basket j's data for basket i."""
    return argmax_unit(
        lambda s: _log_marginal(math.lgamma, s, y_i, n_i, y_j, n_j, b1, b2),
        lambda s: _log_marginal(gammaln, s, y_i, n_i, y_j, n_j, b1, b2),
    )


def geb_similarities(y_i, n_i, b1, b2, neighbors):
    """Global similarities of ``neighbors`` ((y_j, n_j) pairs, in sweep order) for basket i."""
    yj = np.array([y for y, _ in neighbors], dtype=float)
    nj = np.array([n for _, n in neighbors], dtype=float)
    s = np.zeros(len(neighbors))
    for _ in range(MAX_SWEEPS):
        largest_move = 0.0
        for k in range(len(neighbors)):
            sy = float(np.dot(s, yj) - s[k] * yj[k])
            sf = float(np.dot(s, nj - yj) - s[k] * (nj[k] - yj[k]))
            args = (y_i, n_i, yj[k], nj[k], b1 + sy, b2 + sf)
            new = argmax_unit(
                lambda x: _log_marginal(math.lgamma, x, *args),
                lambda x: _log_marginal(gammaln, x, *args),
            )
            largest_move = max(largest_move, abs(new - s[k]))
            s[k] = new
        if largest_move < COORD_TOL:
            break
    return s


def geb_objective(y_i, n_i, b1, b2, neighbors, s):
    """Basket i's log-marginal at similarities ``s`` over ``neighbors``."""
    sy = math.fsum(w * y for w, (y, _) in zip(s, neighbors))
    sf = math.fsum(w * (n - y) for w, (y, n) in zip(s, neighbors))
    return _log_marginal(math.lgamma, 1.0, y_i, n_i, sy, sy + sf, b1, b2)


def apply_interims(accrual, design):
    """(y, n, active) after each basket's interim looks, one basket at a time."""
    y_out, n_out, active_out = [], [], []
    for i in range(design.n_baskets):
        cum = np.cumsum(np.asarray(accrual[i], dtype=np.int64)[: design.n_max[i]])
        stopped = False
        for lk in design.looks[i]:
            if cum[lk.size - 1] <= lk.futility_max_responses:
                stopped = True
                y_out.append(int(cum[lk.size - 1]))
                n_out.append(lk.size)
                break
        if not stopped:
            y_out.append(int(cum[design.n_max[i] - 1]))
            n_out.append(design.n_max[i])
        active_out.append(not stopped)
    return tuple(y_out), tuple(n_out), tuple(active_out)


def three_component_adjust(s, data, a, delta):
    """Cap and threshold one pair at a time, re-summing n_-i for every basket."""
    B = data.n_baskets
    phat = [data.y[i] / data.n[i] for i in range(B)]
    out = np.eye(B)
    for i in range(B):
        if not data.active[i]:
            continue
        n_other = sum(data.n[k] for k in range(B) if k != i and data.active[k])
        if n_other == 0:
            continue
        cap = min(a * data.n[i] / n_other, 1.0)
        for j in range(B):
            if j == i or not data.active[j]:
                continue
            inside = 1.0 if abs(phat[i] - phat[j]) < delta else 0.0
            out[i, j] = cap * s[i, j] * inside
    return out


def posterior_shapes(i, data, prior, weights):
    """Basket i's posterior shapes: its own data plus active donors, in
    ascending (b1, b2, n, y) of the donor, ties in basket order."""
    shape1 = prior.b1[i] + data.y[i]
    shape2 = prior.b2[i] + (data.n[i] - data.y[i])
    donors = sorted(
        range(data.n_baskets), key=lambda j: (prior.b1[j], prior.b2[j], data.n[j], data.y[j])
    )
    for j in donors:
        if j == i or not data.active[j]:
            continue
        shape1 += weights[i, j] * data.y[j]
        shape2 += weights[i, j] * (data.n[j] - data.y[j])
    return shape1, shape2


def final_analysis(data, prior, weights, cutoffs, p0):
    """(q, promising) one basket at a time; stopped baskets get q = 0."""
    q, promising = [], []
    for i in range(data.n_baskets):
        if data.active[i]:
            qi = float(1.0 - betainc(*posterior_shapes(i, data, prior, weights), p0))
        else:
            qi = 0.0
        q.append(qi)
        promising.append(data.active[i] and cutoffs is not None and qi > cutoffs[i])
    return q, promising
