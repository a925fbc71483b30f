"""Finite-difference references for the least-squares fits.

``numeric_jacobian`` checks analytic Jacobians, and ``lm_problem`` hands
a test the residual and Jacobian that a fit gives LM.
``spot_width_oracle`` is the spot fit without variable projection or
analytic derivatives: LM over all six parameters (amplitude, centre,
widths, background) with a central-difference Jacobian, the way the widths
were fitted before the separable fit replaced it.
"""

import math

import numpy as np
import pytest

from rotornv import estimation
from rotornv.errors import FitError
from rotornv.estimation import levenberg_marquardt


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


def lm_problem(fit, *args):
    """The residual and Jacobian that ``fit(*args)`` hands to LM, and the point LM ends at.

    Every fit reaches LM through ``estimation.levenberg_marquardt``; this
    spies on it there and keeps the first call.
    """
    seen = []
    real = estimation.levenberg_marquardt

    def spy(residual, jacobian, x0, **kwargs):
        lm = real(residual, jacobian, x0, **kwargs)
        seen.append((residual, jacobian, lm.x))
        return lm

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "levenberg_marquardt", spy)
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
