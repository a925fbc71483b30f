"""Finite-difference references for the least-squares fits.

``numeric_jacobian`` checks analytic Jacobians, and ``lm_problem`` hands
a test the residual and Jacobian that a fit gives LM.
``spot_width_oracle`` is the spot fit without variable projection or
analytic derivatives: LM over all six parameters (amplitude, centre,
widths, background) with a central-difference Jacobian, the way the widths
were fitted before the separable fit replaced it.
``grid_oracle`` is the echo fit without a search: the weighted SSE
minimised over a (b_perp, phi0) grid, contrast and baseline solved exactly
at every node by a QR factorisation of that node's weighted design, free of
the fit's own rows, sums and pair solve.
``exact_covariance`` is (J^T J)^-1 in rational arithmetic, free of rounding.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from rotornv import lsq
from rotornv.errors import FitError
from rotornv.estimation import EchoFitModel
from rotornv.lsq import levenberg_marquardt
from rotornv.geometry import TWO_PI


def numeric_jacobian(residual_fn, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``residual_fn`` at ``x``."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residual_fn(x))
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(residual_fn(xp)) - np.asarray(residual_fn(xm))) / (2 * h)
    return jac


def exact_covariance(jac: np.ndarray) -> np.ndarray:
    """(J^T J)^-1 of the float Jacobian ``jac`` (n, p), exact before its final rounding to floats.

    J^T J is summed and inverted by Gauss-Jordan elimination in fractions.
    """
    cols = [[Fraction(v) for v in col] for col in np.asarray(jac, dtype=float).T.tolist()]
    p = len(cols)
    rows = [
        [sum(a * b for a, b in zip(ci, cj)) for cj in cols] + [Fraction(int(i == j)) for j in range(p)]
        for i, ci in enumerate(cols)
    ]
    for k in range(p):
        pivot = next(i for i in range(k, p) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(p):
            if i != k and rows[i][k] != 0:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return np.array([[float(v) for v in row[p:]] for row in rows])


def lm_problem(fit, *args):
    """The residual and Jacobian that ``fit(*args)`` hands to LM, and the point LM ends at.

    Every fit reaches LM through ``lsq.levenberg_marquardt``; this
    spies on it there and keeps the first call.
    """
    seen = []
    real = lsq.levenberg_marquardt

    def spy(residual, jacobian, x0, **kwargs):
        lm = real(residual, jacobian, x0, **kwargs)
        seen.append((residual, jacobian, lm.x))
        return lm

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsq, "levenberg_marquardt", spy)
        fit(*args)
    return seen[0]


def spot_width_oracle(image, initial_center_um, fit_radius_um: float = 2.5):
    """(radial, azimuthal) 1/e^2 widths by a 6-parameter central-difference LM fit."""
    cx, cy = initial_center_um
    sel_x = np.abs(image.x_um - cx) <= fit_radius_um
    sel_y = np.abs(image.y_um - cy) <= fit_radius_um
    sub = image.counts[np.ix_(sel_y, sel_x)].astype(float)
    gx, gy = np.meshgrid(image.x_um[sel_x], image.y_um[sel_y])
    peak = np.unravel_index(np.argmax(sub), sub.shape)
    r_norm = math.hypot(cx, cy)
    u_r = np.array([cx, cy]) / r_norm if r_norm > 1e-9 else np.array([1.0, 0.0])
    u_a = np.array([-u_r[1], u_r[0]])
    flat, px, py = sub.ravel(), gx.ravel(), gy.ravel()
    median = float(np.median(sub))
    x0 = np.array([max(float(sub[peak]) - median, 1.0), gx[peak], gy[peak], 0.5, 0.5, median])

    def residual(p):
        amp, mx, my, sr, sa, bg = p
        dr = (px - mx) * u_r[0] + (py - my) * u_r[1]
        da = (px - mx) * u_a[0] + (py - my) * u_a[1]
        return amp * np.exp(-2.0 * (dr**2 / sr**2 + da**2 / sa**2)) + bg - flat

    lm = levenberg_marquardt(residual, lambda p: numeric_jacobian(residual, p), x0, max_iter=300)
    if not lm.converged or lm.x[0] <= 0:
        raise FitError(f"oracle spot fit did not converge: params={np.round(lm.x, 4).tolist()}")
    return abs(float(lm.x[3])), abs(float(lm.x[4]))


@dataclass(frozen=True)
class GridFitResult:
    params: dict
    sse: float


def grid_oracle(
    data,
    model: EchoFitModel,
    b_bounds: tuple[float, float] = (0.0, 0.3),
    n_b: int = 121,
    n_phi: int = 96,
) -> GridFitResult:
    """Exhaustive weighted-SSE minimisation over (b_perp, phi0) in [0, 2 pi).

    Contrast and baseline are solved exactly (linear in the model) at every
    grid node, so the oracle is limited only by the grid resolution.  Each
    node's design [u, 1] / sigma is factored Q R, and its SSE is that of the
    residual off Q's span; where the fringe u is flat (b = 0), the two
    columns are one and the node's SSE is that of the baseline alone.
    """
    b_grid = np.linspace(b_bounds[0], b_bounds[1], n_b)
    phi_grid = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    k = model.phase_factor(data.tau_us, phi_grid[:, None])
    u = 0.5 * model.envelope_values(data.tau_us) * np.cos(b_grid[:, None, None] * k)
    design = np.stack([u, np.ones_like(u)], axis=-1) / data.sigma[:, None]
    target = data.signal / data.sigma
    q, r = np.linalg.qr(design)
    residual = target - np.einsum("...ji,...i->...j", q, np.einsum("...ji,j->...i", q, target))
    sse = np.sum(residual**2, axis=-1)
    mean = (target / data.sigma).sum() / (1.0 / data.sigma**2).sum()
    flat = np.abs(r[..., 1, 1]) <= 1e-9 * np.abs(r[..., 0, 0])
    sse[flat] = np.sum(((data.signal - mean) / data.sigma) ** 2)
    i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
    (contrast, baseline), *_ = np.linalg.lstsq(design[i, j], target, rcond=None)
    params = {
        "b_perp_gauss": float(b_grid[i]),
        "phi0_rad": float(phi_grid[j] % TWO_PI),
        "contrast": float(contrast),
        "baseline": float(baseline),
    }
    return GridFitResult(params=params, sse=float(sse[i, j]))
