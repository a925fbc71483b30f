"""The model-free least-squares core of every fit: LM and variable projection.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) loop with a
monotone acceptance rule: a step is taken only if it lowers the weighted
sum of squares.  Every fit is separable, a nonlinear basis u(x) times a
linear pair: y ~ a u(x) + c.  LM searches the nonlinear parameters alone
(variable projection, Golub & Pereyra, Inverse Problems 19 (2003) R1):
the pair is solved in closed form at each x, and LM gets the projected
residual with Kaufman's Jacobian (BIT 15 (1975) 49).  The echo, Rabi and
spot fits all run through one driver, :func:`fit_separable`: each writes
its basis and its exact derivative rows du/dx into one buffer that also
holds its weights and data, and one product of that buffer gives every sum
a step takes.
Sigma enters there once, as :func:`data_rows` scales 1/sigma and y/sigma.
The echo and Rabi fits rank their starts by the pair's SSE over a grid, in
blocks of bounded size (:func:`scan_sse`) whose cells keep their bits at any
block size and BLAS thread count; one rule, :func:`free_pair`, gives a flat
pair a = 0 and c alone, in the scans and in LM alike.
Every fit stops when the gradient falls below 1e-8 of the cost (of 1 below a
cost of 1: in that scale, a residual below 1.7e-7 of the largest weighted
datum, in any unit of sigma) or when no trial step could lower the cost by
more than its rounding.  One SVD of the full Jacobian at the optimum gives
the fit's covariance, or above condition 1e12 IdentifiabilityError
(:func:`check_identified`).  The models live with their fits: the echo and
Rabi bases in :mod:`estimation`, the spot basis in :mod:`imaging`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IdentifiabilityError, record

# LM stops at a gradient below _GRAD_TOL of the cost, above the rounding
# floor (~1e-10 to 1e-9 of the cost) that a smaller tolerance would wait
# out in ~10 rejected steps, or at an accepted step below _STEP_TOL of |x|.
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-13
# A trial step whose Gauss-Newton predicted reduction of the cost is below
# this fraction of the cost lies under the cost's rounding floor, where no
# damping can lower the cost by a resolvable amount: LM stops there instead
# of rejecting 10-20 ever shorter trials (MINPACK's "no further reduction
# in the sum of squares is possible", More, Garbow & Hillstrom, ANL-80-74).
_COST_RESOLUTION = 4.0 * np.finfo(float).eps
# An optimum whose full Jacobian has a larger condition is not identified.
_MAX_CONDITION = 1e12
# data_rows puts the weighted data's largest entry in [2^23, 2^24) by a power
# of two, which keeps every product exact: a power-of-two unit of sigma, or of
# signal and sigma, moves only chi-square and the residual norm.  LM's max(1,
# cost) floors then bind only at a residual below 1.7e-7 of that entry, a
# zero-residual stop at any shots (at 1e12, a scan's residual is still 1.6e-5
# of it).
_DATA_EXPONENT = 24
# A pair whose determinant s_uu s_1 - s_u^2 lies within this fraction of
# s_uu s_1, or below 1e-300 (where a subnormal s_uu s_1 leaves the fraction
# no meaning), is flat: u is a constant to rounding.
_FLAT_RTOL = 4.0 * np.finfo(float).eps
# A start scan evaluates its basis over at most this many floats at a time.
_SCAN_FLOATS = 2_000_000


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core


@record(frozen=False)
class LMResult:
    x: np.ndarray
    cost: float  # 0.5 * sum(residual^2)
    grad_norm: float
    iterations: int
    converged: bool


def levenberg_marquardt(residual_fn, jacobian_fn, x0, max_iter: int = 200) -> LMResult:
    """Damped Gauss-Newton with monotone acceptance.

    The weighted SSE never increases across accepted iterations.  A run
    converges at a gradient below _GRAD_TOL of the cost, at an accepted
    step below _STEP_TOL of |x|, or at the cost's rounding floor: a trial
    step whose Gauss-Newton predicted reduction -(g.s + s^T J^T J s / 2)
    is below _COST_RESOLUTION of the cost ends the run at x before its
    residual is evaluated.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    grad_norm = np.inf
    for iterations in range(1, max_iter + 1):
        jac = np.asarray(jacobian_fn(x), dtype=float)
        grad = jac.T @ r
        grad_norm = float(np.abs(grad).max())
        if grad_norm < _GRAD_TOL * max(1.0, cost):
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.maximum(jtj.diagonal(), 1e-30)
        accepted = False
        for _ in range(50):
            damped = jtj.copy()
            damped.reshape(-1)[:: diag.size + 1] += lam * diag
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if -(grad @ step + 0.5 * step @ jtj @ step) < _COST_RESOLUTION * cost:
                converged = True
                break
            x_new = x + step
            r_new = np.asarray(residual_fn(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                rel_step = math.sqrt(step @ step) / max(math.sqrt(x @ x), 1e-12)
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam * 0.3, 1e-14)
                accepted = True
                if rel_step < _STEP_TOL:
                    converged = True
                break
            lam *= 4.0
        if converged:
            break
        if not accepted:
            # no descent direction left at any damping: numerical optimum
            converged = grad_norm < 1e-6 * max(1.0, cost)
            break
    return LMResult(x=x, cost=cost, grad_norm=grad_norm, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# separable least squares: y ~ a u(x) + c


def data_rows(q: int, y, sigma=None) -> tuple[np.ndarray, int]:
    """The (q + 3, n) rows of :func:`fit_separable` for data ``y`` +- ``sigma`` (1 if None), and e.

    The last two rows hold 1/sigma and y/sigma over 2^e, which puts their largest entry in
    [2^23, 2^24); without sigma they hold 1 and y themselves (e = 0), in y's unit.
    """
    rows = np.empty((q + 3, len(y)))
    rows[q + 1], rows[q + 2] = (1.0, y) if sigma is None else (1.0 / sigma, y / sigma)
    e = 0 if sigma is None else math.frexp(float(np.abs(rows[q + 1 :]).max()))[1] - _DATA_EXPONENT
    np.ldexp(rows[q + 1 :], -e, out=rows[q + 1 :])
    return rows, e


def free_pair(det, s_uu, s_1):
    """Whether the pair y ~ a u + c of determinant ``det`` = s_uu s_1 - s_u^2 is free (not flat): floats or arrays."""
    return (det > _FLAT_RTOL * s_uu * s_1) & (det > 1e-300)


def pair_from_sums(s_uu, s_u, s_1, s_uy, s_y, s_yy):
    """(a, c, SSE) of the weighted pair y ~ a*u + c from its sums.

    The sums are s_uu = sum w u^2, s_u = sum w u, s_1 = sum w, s_uy =
    sum w u y, s_y = sum w y, s_yy = sum w y^2.  A flat pair (:func:`free_pair`)
    takes a = 0 and c = s_y / s_1.  The SSE is S_yy - a (2 S_uy - a S_uu) from the
    centred sums S_xz = s_xz - s_x s_z / s_1: a nearly flat u cancels no s_yy.
    """
    det = s_uu * s_1 - s_u**2
    free = free_pair(det, s_uu, s_1)
    a = np.where(free, s_uy * s_1 - s_u * s_y, 0.0) / np.where(free, det, 1.0)
    return a, (s_y - a * s_u) / s_1, s_yy - s_y * s_y / s_1 - a * (2.0 * (s_uy - s_u * s_y / s_1) - a * det / s_1)


def scan_sse(basis, shape: tuple, data) -> np.ndarray:
    """The pair's SSE (:func:`pair_from_sums`) at each cell of a grid of ``shape``, by ``data`` = data_rows[-2:].

    ``basis(lo, hi)``, (hi - lo, *shape[1:], n), is u at cells [lo:hi] of axis 0: _SCAN_FLOATS floats or one index.
    """
    inv, wy = data
    # numpy's pairwise sums, not BLAS products, whose rounding of a cell can
    # follow the block's size and the thread count
    s_1, s_y, s_yy = (inv * inv).sum(), (inv * wy).sum(), (wy * wy).sum()
    sse = np.empty(shape)
    step = max(1, _SCAN_FLOATS // (sse[0].size * inv.size))
    for lo in range(0, shape[0], step):
        uw = basis(lo, lo + step) * inv
        s_uu, s_u, s_uy = (uw * uw).sum(-1), (uw * inv).sum(-1), (uw * wy).sum(-1)
        sse[lo : lo + step] = pair_from_sums(s_uu, s_u, s_1, s_uy, s_y, s_yy)[2]
    return sse


def fit_separable(rows, fill, x0, lo=-math.inf, hi=math.inf, max_iter: int = 200):
    """LM over the q nonlinear parameters x of y ~ a u(x) + c: (LMResult, a, c).

    ``rows`` is a :func:`data_rows` buffer, whose last two rows hold the
    weight w (1/sigma over its scale) and y w.  ``fill(rows, x)`` writes the
    q derivative rows du/dx_i w and then u w into rows[:q + 1].  One
    product rows @ rows[q:].T gives every weighted sum a step takes.  At each x the pair is solved in closed form;
    an ``a`` outside [lo, hi], or 0 for a flat pair (:func:`free_pair`), is
    clamped and c re-solved alone.  LM runs on the projected residual (a u + c - y) w and
    Kaufman's Jacobian (n, p): a du w projected off the free linear columns.
    The Golub-Pereyra term it drops lies in their span, orthogonal to the
    residual, so J^T r is the exact gradient.  The Jacobian reuses the rows,
    sums and pair determinant of the residual at its x, and ``rows`` is left
    filled where LM stops.
    """
    q = rows.shape[0] - 3
    coef = np.zeros((q, q + 2))  # a on the diagonal, then the projection's coefficients
    latest = [b""]  # x, sums, a, c and the free pair's determinant (else None) at the last x only

    def residual(x):
        fill(rows, x)
        # the (q + 3, 3) block alone: numpy hands the whole rows @ rows.T to
        # BLAS syrk, which measured 3x slower at the spot fit's size
        sums = rows @ rows[q:].T
        (s_uu, s_u, s_uy), (s_1, s_y) = sums[q].tolist(), sums[q + 1, 1:].tolist()
        det = s_uu * s_1 - s_u * s_u
        a = (s_uy * s_1 - s_u * s_y) / det if free_pair(det, s_uu, s_1) else math.nan
        if free := lo < a < hi:  # False for NaN (a flat pair)
            c = (s_uu * s_y - s_u * s_uy) / det
        else:
            a = min(max(0.0 if math.isnan(a) else a, lo), hi)
            c = (s_y - a * s_u) / s_1
        latest[:] = x.tobytes(), sums, a, c, det if free else None
        return np.array([a, c, -1.0]) @ rows[q:]

    def jacobian(x):
        if latest[0] != x.tobytes():
            residual(x)
        _, sums, a, _, det = latest
        np.fill_diagonal(coef, a)
        (s_uu, s_u, _), s_1 = sums[q].tolist(), sums[q + 1, 1]
        if det is not None:  # minus the rows' least-squares coefficients on (u, 1)
            coef[:, q:] = a * (sums[:q, :2] @ [[-s_1, s_u], [s_u, -s_uu]]) / det
        else:  # on 1 alone: a is fixed at its bound, or at 0 where u is flat
            coef[:, q] = 0.0
            coef[:, q + 1] = a * sums[:q, 1] / -s_1
        return (coef @ rows[: q + 2]).T

    lm = levenberg_marquardt(residual, jacobian, x0, max_iter=max_iter)
    if latest[0] != lm.x.tobytes():
        residual(lm.x)
    return lm, latest[2], latest[3]


def full_jacobian(rows: np.ndarray, a: float) -> np.ndarray:
    """The Jacobian (a du/dx w, u w, w) of (a u + c - y) w in (x, a, c), from ``rows`` filled at x."""
    q = rows.shape[0] - 3
    return (np.diag([a] * q + [1.0, 1.0]) @ rows[: q + 2]).T


def check_identified(jac: np.ndarray) -> np.ndarray:
    """The unscaled covariance (J^T J)^-1 of ``jac`` from one thin SVD J = U S V^T, or IdentifiabilityError.

    A condition above _MAX_CONDITION is refused, and quoted only where it is
    resolved: at or below numpy's rank tolerance (sv_max max(m, n) eps), the
    smallest singular value is rounding noise (rank-deficient).  W^T W, with
    W = S^-1 V^T, is exactly symmetric and never formed from J^T J, whose
    condition is J's squared (Golub & Van Loan, Matrix Computations, 5.3).
    """
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1.0 / _MAX_CONDITION:
        resolved = sv[-1] > sv[0] * max(jac.shape) * np.finfo(float).eps  # False where sv[0] is 0
        condition = f"condition {sv[0] / sv[-1]:.3g}" if resolved else "numerically rank-deficient"
        raise IdentifiabilityError(
            f"singular Jacobian at the optimum ({condition}); "
            "one or more parameters are unconstrained by the data"
        )
    scaled = vt / sv[:, None]
    return scaled.T @ scaled
