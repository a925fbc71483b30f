"""Weighted nonlinear least squares for echo fringes and Rabi scans.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) loop with a
monotone acceptance rule: a step is taken only if it lowers the weighted
sum of squares.  The echo model is smooth and cheap, so analytic Jacobians
are used throughout and cross-checked against finite differences in the
test suite.  A brute-force grid minimiser over the two nonlinear
parameters (with the two linear ones solved exactly per grid point) serves
as the independent oracle.

Fringe model
------------
    signal(tau) = baseline + (contrast / 2) * env(tau) * cos(phi(tau))

with phi(tau) the closed-form echo phase of :func:`spindyn.echo_ac_phase`,
linear in the AC-field amplitude ``b_perp``.  Contrast and baseline enter
linearly, so :func:`fit_echo` searches (b_perp, phi0) alone by variable
projection (Golub & Pereyra, Inverse Problems 19 (2003) R1) with Kaufman's
Jacobian (BIT 15 (1975) 49), solving the linear pair exactly at every point
with the contrast bounded to [0, 1].  The four parameters are strongly
covariant on short-tau data; :func:`profile_identifiability` exposes the
valleys.  Covariances of all four are scaled by the reduced chi-square, so
overdispersed data inflate the reported uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentifiabilityError, ValidationError
from .geometry import TWO_PI, PhysicalConstants
from .spindyn import EchoParams, c13_envelope, echo_ac_phase

ECHO_PARAM_NAMES = ("b_perp_gauss", "phi0_rad", "contrast", "baseline")


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class EchoDataset:
    """(tau, signal, sigma) records; tau strictly increasing, sigma positive.

    For Rabi scans the same container is used with tau_us holding the pulse
    duration.
    """

    tau_us: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_us, dtype=float)
        sig = np.asarray(self.signal, dtype=float)
        err = np.asarray(self.sigma, dtype=float)
        if not (tau.shape == sig.shape == err.shape) or tau.ndim != 1:
            raise ValidationError("tau, signal and sigma must be equal-length 1-D arrays")
        for name, column in (("tau_us", tau), ("signal", sig), ("sigma", err)):
            if not np.all(np.isfinite(column)):
                raise ValidationError(f"{name} values must be finite")
        if np.any(np.diff(tau) <= 0):
            raise ValidationError("tau values must be strictly increasing")
        if np.any(err <= 0):
            raise ValidationError("sigma values must be positive")
        object.__setattr__(self, "tau_us", tau)
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "sigma", err)

    def __len__(self) -> int:
        return self.tau_us.size


@dataclass(frozen=True)
class EchoFitModel:
    """Fixed quantities of the fringe model: constants, rotation rate, envelope.

    The collapse-revival envelope parameters are never fitted; over the
    short-tau window they multiply the contrast by a known, nearly-unity
    factor.  Set ``envelope`` to None to pin it at exactly 1.
    """

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    f_rot_hz: float = 3333.33
    envelope: EchoParams | None = None

    def envelope_values(self, tau_us: np.ndarray) -> np.ndarray:
        if self.envelope is None:
            return np.ones_like(np.asarray(tau_us, dtype=float))
        return np.asarray(c13_envelope(self.envelope, self.constants, tau_us))

    def phase_factor(self, tau_us, phi0):
        """phi(tau) / b_perp: rad per gauss, shared by model and Jacobian.

        Broadcasts over ``phi0``; d/d phi0 is the factor at phi0 + pi/2.
        """
        tau = np.asarray(tau_us, dtype=float)
        return echo_ac_phase(self.constants, self.f_rot_hz, 1.0, phi0, tau)

    def predict(self, tau_us, b_perp, phi0, contrast, baseline):
        env = self.envelope_values(tau_us)
        return baseline + 0.5 * contrast * env * np.cos(b_perp * self.phase_factor(tau_us, phi0))


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with covariance and convergence metadata."""

    params: dict
    sigmas: dict
    covariance: np.ndarray
    residual_norm: float
    chi2_reduced: float
    converged: bool
    iterations: int
    n_points: int
    param_names: tuple = ECHO_PARAM_NAMES

    def as_text(self) -> str:
        lines = ["# fit result"]
        lines.append(f"converged: {'yes' if self.converged else 'no'}")
        lines.append(f"iterations: {self.iterations}")
        lines.append(f"n_points: {self.n_points}")
        lines.append(f"residual_norm: {self.residual_norm:.9g}")
        lines.append(f"chi2_reduced: {self.chi2_reduced:.9g}")
        for name in self.param_names:
            lines.append(f"{name}: {self.params[name]:.9g} +- {self.sigmas[name]:.9g}")
        lines.append("covariance:")
        for row in self.covariance:
            lines.append("  " + " ".join(f"{v:.9g}" for v in row))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core


@dataclass
class LMResult:
    x: np.ndarray
    cost: float  # 0.5 * sum(residual^2)
    grad_norm: float
    iterations: int
    converged: bool


def numeric_jacobian(residual_fn, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, for fits without analytic derivatives."""
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


def levenberg_marquardt(
    residual_fn,
    jacobian_fn,
    x0,
    max_iter: int = 200,
    gtol: float = 1e-10,
    xtol: float = 1e-13,
) -> LMResult:
    """Damped Gauss-Newton with monotone acceptance.

    ``jacobian_fn`` may be None, in which case central differences are
    used.  The weighted SSE never increases across accepted iterations.
    """
    if jacobian_fn is None:
        jacobian_fn = lambda x: numeric_jacobian(residual_fn, x)
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
        grad_norm = float(np.linalg.norm(grad, np.inf))
        if grad_norm < gtol * max(1.0, cost):
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.clip(np.diag(jtj), 1e-30, None)
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new = np.asarray(residual_fn(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                rel_step = np.linalg.norm(step) / max(np.linalg.norm(x), 1e-12)
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam * 0.3, 1e-14)
                accepted = True
                if rel_step < xtol:
                    converged = True
                break
            lam *= 4.0
        if not accepted:
            # no descent direction left at any damping: numerical optimum
            converged = grad_norm < 1e-6 * max(1.0, cost)
            break
        if converged:
            break
    return LMResult(x=x, cost=cost, grad_norm=grad_norm, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# echo fringe fit


def echo_jacobian(data: EchoDataset, model: EchoFitModel, params: dict) -> np.ndarray:
    """Weighted Jacobian of the fringe residual in the reported parameters."""
    tau = data.tau_us
    b, phi0, contrast = params["b_perp_gauss"], params["phi0_rad"], params["contrast"]
    env = model.envelope_values(tau)
    k, k_dphi = model.phase_factor(tau, np.array([[phi0], [phi0 + 0.5 * math.pi]]))
    amp_sin = 0.5 * contrast * env * np.sin(b * k)
    cols = np.stack(
        [-amp_sin * k, -amp_sin * b * k_dphi, 0.5 * env * np.cos(b * k), np.ones_like(tau)],
        axis=1,
    )
    return cols / data.sigma[:, None]


def _solve_linear_pair(u: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted LS for y ~ a*u + c: returns (a, c) and the weighted SSE."""
    s_uu = np.sum(w * u * u, axis=-1)
    s_u = np.sum(w * u, axis=-1)
    s_1 = np.sum(w, axis=-1)
    s_uy = np.sum(w * u * y, axis=-1)
    s_y = np.sum(w * y, axis=-1)
    det = s_uu * s_1 - s_u**2
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    a = (s_uy * s_1 - s_u * s_y) / det
    cc = (s_uu * s_y - s_u * s_uy) / det
    sse = np.sum(w * y * y, axis=-1) - a * s_uy - cc * s_y
    return a, cc, sse


def _linear_landscape(data: EchoDataset, model: EchoFitModel, b_grid, phi_grid):
    """(contrast, baseline, weighted SSE) solved exactly on a (b, phi0) grid.

    Evaluated in blocks along the amplitude axis so dense grids stay within
    a modest memory footprint.
    """
    env = model.envelope_values(data.tau_us)
    w = 1.0 / data.sigma**2
    k = model.phase_factor(data.tau_us, np.asarray(phi_grid)[:, None])
    b_grid = np.asarray(b_grid)
    n_b, n_phi = b_grid.size, len(phi_grid)
    a = np.empty((n_b, n_phi))
    cc = np.empty((n_b, n_phi))
    sse = np.empty((n_b, n_phi))
    block = max(1, int(2_000_000 // max(k.size, 1)))
    for lo in range(0, n_b, block):
        hi = min(lo + block, n_b)
        phase = b_grid[lo:hi, None, None] * k[None, :, :]
        u = 0.5 * env * np.cos(phase)
        a[lo:hi], cc[lo:hi], sse[lo:hi] = _solve_linear_pair(u, data.signal, w)
    return a, cc, np.where(np.isfinite(sse), sse, np.inf)


def _landscape_starts(data: EchoDataset, model: EchoFitModel, b_max: float):
    """(b_perp, phi0) starts: the 10 best cells of a coarse landscape probe.

    The amplitude step resolves a quarter fringe at the largest phase factor,
    so every basin of the aliased landscape gets sampled.
    """
    phi_grid = np.arange(64) * (math.pi / 64.0)  # phi0 and phi0 + pi are degenerate
    k_absmax = float(np.max(np.abs(model.phase_factor(data.tau_us, phi_grid[:, None]))))
    b_step = (math.pi / 2.0) / max(k_absmax, 1e-9)
    n_b = int(min(400, max(60, round(b_max / b_step))))
    b_grid = np.linspace(b_max / (2.0 * n_b), b_max, n_b)
    _, _, sse = _linear_landscape(data, model, b_grid, phi_grid)
    i, j = np.unravel_index(np.argsort(sse, axis=None)[:10], sse.shape)
    return [np.array([b_grid[m], phi_grid[n]]) for m, n in zip(i, j)]


def _projected_problem(data: EchoDataset, model: EchoFitModel):
    """Linear solve, residual and Jacobian of the fringe fit over x = (b_perp, phi0).

    The contrast is clamped to [0, 1], and the baseline re-solved at the
    bound.  The Jacobian is the b and phi0 columns of :func:`echo_jacobian`
    projected off the columns of the linear parameters left free; the
    residual is orthogonal to those, so J^T r is the exact gradient.
    """
    tau, y = data.tau_us, data.signal
    w = 1.0 / data.sigma**2
    env = model.envelope_values(tau)

    def linear(x):
        u = 0.5 * env * np.cos(x[0] * model.phase_factor(tau, x[1]))
        a, c, _ = _solve_linear_pair(u, y, w)
        if not 0.0 <= a <= 1.0:  # also NaN, when u carries no contrast
            a = 0.0 if math.isnan(a) else min(max(a, 0.0), 1.0)
            c = np.sum(w * (y - a * u)) / np.sum(w)
        return float(a), float(c), u

    def residual(x):
        a, c, u = linear(x)
        return (a * u + c - y) / data.sigma

    def jacobian(x):
        a, c, _ = linear(x)
        jac = echo_jacobian(data, model, dict(zip(ECHO_PARAM_NAMES, (x[0], x[1], a, c))))
        q, _ = np.linalg.qr(jac[:, 2:] if 0.0 < a < 1.0 else jac[:, 3:])
        return jac[:, :2] - q @ (q.T @ jac[:, :2])

    return linear, residual, jacobian


def _check_max_iter(max_iter: int) -> None:
    if max_iter < 1:
        raise ValidationError(f"--max-iter (max_iter) must be >= 1, got {max_iter}")


def fit_echo(
    data: EchoDataset,
    model: EchoFitModel | None = None,
    initial: dict | None = None,
    b_max: float = 0.5,
    max_iter: int = 200,
) -> FitResult:
    """Weighted fringe fit over (b_perp, phi0), contrast bounded to [0, 1].

    The fringe is even in b_perp and odd under phi0 -> phi0 + pi, so
    |b_perp| is reported and phi0 is folded into [0, pi).

    Parameters
    ----------
    data : EchoDataset
        At least 8 points.
    model : EchoFitModel
        Fixed constants, rotation frequency and (optional) envelope.
    initial : dict, optional
        Start from its b_perp_gauss and phi0_rad (any other key is ignored)
        instead of the 10 best cells of a landscape probe.
    b_max : float
        Amplitude search domain: the probe spans (0, b_max], and solutions
        beyond it are taken only if no start ends inside (aliasing guard).

    Raises
    ------
    IdentifiabilityError
        If the Jacobian at the optimum is numerically rank-deficient.
    """
    if not (math.isfinite(b_max) and b_max > 0):
        raise ValidationError(f"--b-max (b_max) must be finite and positive, got {b_max}")
    _check_max_iter(max_iter)
    if model is None:
        model = EchoFitModel()
    if len(data) < 8:
        raise ValidationError("fit_echo needs at least 8 data points")
    if initial is None:
        starts = _landscape_starts(data, model, b_max)
    elif {"b_perp_gauss", "phi0_rad"} <= initial.keys():
        starts = [np.array([initial["b_perp_gauss"], initial["phi0_rad"]], dtype=float)]
    else:
        raise ValidationError("initial needs both b_perp_gauss and phi0_rad")

    linear, residual, jacobian = _projected_problem(data, model)
    # prefer solutions inside the physical amplitude domain: beyond b_max the
    # fringe aliases between sample points and can overfit pure noise
    best: LMResult | None = None
    best_any: LMResult | None = None
    for x0 in starts:
        res = levenberg_marquardt(residual, jacobian, x0, max_iter=max_iter)
        if best_any is None or res.cost < best_any.cost:
            best_any = res
        if abs(res.x[0]) <= b_max * (1.0 + 1e-9):
            if best is None or res.cost < best.cost - 1e-15 or (
                abs(res.cost - best.cost) <= 1e-15 and res.converged and not best.converged
            ):
                best = res
    if best is None:
        best = best_any

    a, c, _ = linear(best.x)
    params = canonical_fringe_params(
        dict(zip(ECHO_PARAM_NAMES, (abs(float(best.x[0])), float(best.x[1]), a, c)))
    )
    return _finalize_fit(data, params, echo_jacobian(data, model, params), best, ECHO_PARAM_NAMES)


def _finalize_fit(data, params: dict, jac_ext: np.ndarray, lm: LMResult, names) -> FitResult:
    n, p = jac_ext.shape
    if n <= p:
        raise ValidationError("more parameters than data points")
    sse = 2.0 * lm.cost
    chi2_red = sse / (n - p)
    sv = np.linalg.svd(jac_ext, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        raise IdentifiabilityError(
            f"singular Jacobian at the optimum (condition {sv[0] / max(sv[-1], 1e-300):.3g}); "
            "one or more parameters are unconstrained by the data"
        )
    cov = np.linalg.pinv(jac_ext.T @ jac_ext) * max(chi2_red, 1e-300)
    cov = 0.5 * (cov + cov.T)
    sigmas = {name: float(np.sqrt(max(cov[i, i], 0.0))) for i, name in enumerate(names)}
    return FitResult(
        params=params,
        sigmas=sigmas,
        covariance=cov,
        residual_norm=float(np.sqrt(sse)),
        chi2_reduced=float(chi2_red),
        converged=lm.converged,
        iterations=lm.iterations,
        n_points=n,
        param_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass(frozen=True)
class GridFitResult:
    params: dict
    sse: float
    b_step: float
    phi_step: float


def grid_oracle(
    data: EchoDataset,
    model: EchoFitModel | None = None,
    b_bounds: tuple[float, float] = (0.0, 0.3),
    phi_bounds: tuple[float, float] = (0.0, TWO_PI),
    n_b: int = 121,
    n_phi: int = 96,
) -> GridFitResult:
    """Exhaustive weighted-SSE minimisation over (b_perp, phi0).

    Contrast and baseline are solved exactly (linear in the model) at every
    grid node, so the oracle is limited only by the grid resolution.
    """
    if model is None:
        model = EchoFitModel()
    if not (np.isfinite(b_bounds).all() and np.isfinite(phi_bounds).all()):
        raise ValidationError("grid bounds must be finite")
    b_grid = np.linspace(b_bounds[0], b_bounds[1], n_b)
    phi_grid = np.linspace(phi_bounds[0], phi_bounds[1], n_phi, endpoint=False)
    a, cc, sse = _linear_landscape(data, model, b_grid, phi_grid)
    i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
    params = {
        "b_perp_gauss": float(b_grid[i]),
        "phi0_rad": float(phi_grid[j] % TWO_PI),
        "contrast": float(a[i, j]),
        "baseline": float(cc[i, j]),
    }
    return GridFitResult(
        params=params,
        sse=float(sse[i, j]),
        b_step=float(b_grid[1] - b_grid[0]) if n_b > 1 else 0.0,
        phi_step=float(phi_grid[1] - phi_grid[0]) if n_phi > 1 else 0.0,
    )


def canonical_fringe_params(params: dict) -> dict:
    """Fold phi0 into [0, pi): the phase factor is odd under phi0 -> phi0 + pi
    and the fringe takes its cosine, so the two branches are exactly degenerate."""
    out = dict(params)
    out["phi0_rad"] = out["phi0_rad"] % math.pi
    return out


# ---------------------------------------------------------------------------
# Rabi fit


RABI_PARAM_NAMES = ("rabi_freq_mhz", "contrast", "baseline")


def _rabi_residual_and_jac(data: EchoDataset):
    t = data.tau_us
    inv_sigma = 1.0 / data.sigma
    y = data.signal

    def residual(x):
        omega, contrast, baseline = x
        pred = baseline + contrast * np.sin(math.pi * omega * t) ** 2
        return (pred - y) * inv_sigma

    def jacobian(x):
        omega, contrast, baseline = x
        s = np.sin(math.pi * omega * t)
        cols = np.stack(
            [
                contrast * math.pi * t * np.sin(2.0 * math.pi * omega * t),
                s**2,
                np.ones_like(t),
            ],
            axis=1,
        )
        return cols * inv_sigma[:, None]

    return residual, jacobian


def fit_rabi(data: EchoDataset, initial: dict | None = None, max_iter: int = 200) -> FitResult:
    """Fit signal = baseline + contrast * sin^2(pi * Omega * t) to a duration scan.

    The frequency start comes from a coarse scan with the linear
    (contrast, baseline) pair solved exactly per candidate.  Data that do
    not constrain the frequency (zero contrast) raise IdentifiabilityError.
    """
    _check_max_iter(max_iter)
    if len(data) < 6:
        raise ValidationError("fit_rabi needs at least 6 data points")
    span = float(data.tau_us[-1] - data.tau_us[0])
    if span <= 0:
        raise ValidationError("duration scan has zero span")
    residual, jacobian = _rabi_residual_and_jac(data)

    if initial is not None and "rabi_freq_mhz" in initial:
        omega_candidates = np.array([initial["rabi_freq_mhz"]], dtype=float)
    else:
        omega_candidates = np.linspace(0.25 / span, 0.5 * len(data) / span, 256)
    u = np.sin(math.pi * omega_candidates[:, None] * data.tau_us) ** 2
    a, cc, sse = _solve_linear_pair(u, data.signal, 1.0 / data.sigma**2)
    finite = np.flatnonzero(np.isfinite(sse))
    if finite.size == 0:
        raise IdentifiabilityError("could not bracket a Rabi frequency")
    i = finite[np.argmin(sse[finite])]  # the first minimum among finite SSE
    best_start = np.array([float(omega_candidates[i]), float(a[i]), float(cc[i])])
    if initial is not None:
        best_start = np.array(
            [
                initial.get("rabi_freq_mhz", best_start[0]),
                initial.get("contrast", best_start[1]),
                initial.get("baseline", best_start[2]),
            ]
        )

    lm = levenberg_marquardt(residual, jacobian, best_start, max_iter=max_iter)
    omega, contrast, baseline = lm.x
    params = {
        "rabi_freq_mhz": float(abs(omega)),
        "contrast": float(contrast),
        "baseline": float(baseline),
    }
    jac = jacobian(np.array([params["rabi_freq_mhz"], contrast, baseline]))
    return _finalize_fit(data, params, jac, lm, RABI_PARAM_NAMES)


# ---------------------------------------------------------------------------
# identifiability profiles


@dataclass(frozen=True)
class ProfileResult:
    param_name: str
    values: np.ndarray
    sse: np.ndarray
    fits: tuple


def profile_identifiability(
    data: EchoDataset,
    model: EchoFitModel | None = None,
    param_name: str = "b_perp_gauss",
    values=None,
    max_iter: int = 120,
) -> ProfileResult:
    """SSE profile vs b_perp or phi0, re-fitting the other on the projected cost.

    Contrast and baseline are solved exactly (contrast bounded, as in
    :func:`fit_echo`) at every point.  Exposes the covariance valleys of the
    fringe model: on short-tau data the profile around the optimum is nearly
    flat.
    """
    if model is None:
        model = EchoFitModel()
    if param_name not in ECHO_PARAM_NAMES[:2]:
        raise ValidationError(
            f"param_name must be one of {ECHO_PARAM_NAMES[:2]}, got {param_name!r}"
        )
    if values is None:
        raise ValidationError("values to profile over are required")
    values = np.asarray(values, dtype=float)
    idx = ECHO_PARAM_NAMES.index(param_name)
    linear, residual_full, jacobian_full = _projected_problem(data, model)
    base_fit = fit_echo(data, model)
    x_base = np.array([base_fit.params[name] for name in ECHO_PARAM_NAMES[:2]])

    free = [1 - idx]
    sse = np.empty(values.size)
    fits = []
    for i, v in enumerate(values):

        def full(xf):
            return np.insert(xf, idx, v)

        lm = levenberg_marquardt(
            lambda xf: residual_full(full(xf)),
            lambda xf: jacobian_full(full(xf))[:, free],
            x_base[free],
            max_iter=max_iter,
        )
        sse[i] = 2.0 * lm.cost
        x = full(lm.x)
        fits.append(dict(zip(ECHO_PARAM_NAMES, (*map(float, x), *linear(x)[:2]))))
    return ProfileResult(param_name=param_name, values=values, sse=sse, fits=tuple(fits))
