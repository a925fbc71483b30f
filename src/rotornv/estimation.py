"""Weighted nonlinear least squares for echo fringes and Rabi scans.

Each fit is a separable model, a nonlinear basis times a linear pair, run
through the variable-projection core of :mod:`lsq`, as the spot fit of
:mod:`imaging` is: each fit writes its basis and its exact derivative
rows du/dx, over sigma, into the core's buffer.  Analytic derivatives of each
basis are cross-checked against finite differences in the test suite, and
the echo fit against the suite's independent oracle, a brute-force grid
minimiser over the two nonlinear echo parameters.

Fringe model
------------
    signal(tau) = baseline + (contrast / 2) * env(tau) * cos(phi(tau))

with phi(tau) the closed-form echo phase of :func:`spindyn.echo_ac_phase`,
linear in the AC-field amplitude ``b_perp``.  :func:`fit_echo` searches
(b_perp, phi0) with the contrast bounded to [0, 1]; :func:`fit_rabi`
searches the Rabi frequency with its contrast unbounded (a Rabi scan dips).
The four echo parameters are strongly covariant on short-tau data.
Covariances of all parameters are scaled by the reduced chi-square, so
overdispersed data inflate the reported uncertainties.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import lsq
from .config import PhysicalConstants, check_ranges, check_value, check_values
from .errors import ValidationError, record
# perfbench/spantrace.py finds levenberg_marquardt on this module and rebinds
# that object in lsq too, where fit_separable looks it up at call time
from .lsq import levenberg_marquardt  # noqa: F401
from .spindyn import EchoParams, c13_envelope, echo_ac_phase

ECHO_PARAM_NAMES = ("b_perp_gauss", "phi0_rad", "contrast", "baseline")


# ---------------------------------------------------------------------------
# datasets


@record(eq=False)
class EchoDataset:
    """(tau, signal, sigma) records; tau strictly increasing, signal and sigma in their DOMAINS rows.

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
        if not np.all(np.isfinite(tau)):
            raise ValidationError("tau_us values must be finite")
        check_values("signal", sig)
        check_values("sigma", err)
        if np.any(np.diff(tau) <= 0):
            raise ValidationError("tau values must be strictly increasing")
        object.__setattr__(self, "tau_us", tau)
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "sigma", err)

    def __len__(self) -> int:
        return self.tau_us.size


@record(check=lambda model: check_ranges(model, [("f_rot_hz", "geometry.f_rot_hz")]))
class EchoFitModel:
    """Fixed quantities of the fringe model: constants, rotation rate, envelope.

    The collapse-revival envelope parameters are never fitted; over the
    short-tau window they multiply the contrast by a known, nearly-unity
    factor.  Set ``envelope`` to None to pin it at exactly 1.
    """

    constants: PhysicalConstants = partial(PhysicalConstants)
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


@record
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
# echo fringe fit


def _echo_rows(data: EchoDataset, model: EchoFitModel):
    """The fringe fit's rows, their scale's exponent and their fill at x = (b_perp, phi0).

    The fill writes the basis u = env cos(b k) / 2 and its (b, phi0)
    derivatives, each times the weight row; d k / d phi0 is k at phi0 + pi/2.
    """
    rows, e = lsq.data_rows(2, data.signal, data.sigma)
    half_env = 0.5 * model.envelope_values(data.tau_us) * rows[3]

    def fill(rows, x):
        k = model.phase_factor(data.tau_us, np.array([[x[1]], [x[1] + 0.5 * math.pi]]))
        phase = x[0] * k[0]
        half_sin = -half_env * np.sin(phase)
        rows[0], rows[1], rows[2] = half_sin * k[0], half_sin * x[0] * k[1], half_env * np.cos(phase)

    return rows, e, fill


def _echo_full_jacobian(rows, fill, params: dict) -> np.ndarray:
    """:func:`lsq.full_jacobian` of the fringe fit's ``rows``, refilled at the reported parameters."""
    fill(rows, np.array([params["b_perp_gauss"], params["phi0_rad"]]))
    return lsq.full_jacobian(rows, params["contrast"])


def echo_jacobian(data: EchoDataset, model: EchoFitModel, params: dict) -> np.ndarray:
    """Jacobian of the weighted fringe residual (model - signal) / sigma in the reported parameters."""
    rows, e, fill = _echo_rows(data, model)
    return np.ldexp(_echo_full_jacobian(rows, fill, params), e)


# The landscape probe's phi0 grid: phi0 and phi0 + pi are degenerate.
_PHI_GRID = np.arange(64) * (math.pi / 64.0)
# LM ends within this fraction of the lowest cost tie with it: the starts
# that reach one optimum end within about 3e-13 of its cost, by rounding.
_TIE_RTOL = 1e-10
# The largest fringe phase b_max * |phase factor| a fit may search, rad.  Float
# spacing there is about 1 rad, so a larger phase has no meaning.
MAX_FRINGE_PHASE_RAD = 2.0**52


def _landscape_starts(data: EchoDataset, model: EchoFitModel, rows, b_max: float, k, k_absmax: float):
    """(b_perp, phi0) starts: the 10 best cells of a coarse landscape probe.

    ``k`` holds the phase factors at the probe's phi0 grid; the amplitude step
    resolves a quarter fringe at the largest, ``k_absmax``, so every basin of
    the aliased landscape gets sampled.  The pair's SSE in every cell, by the
    fit's ``rows``, comes from :func:`lsq.scan_sse`, in blocks of amplitudes.
    """
    b_step = (math.pi / 2.0) / max(k_absmax, 1e-9)
    n_b = int(min(400, max(60, round(b_max / b_step))))
    b_grid = np.linspace(b_max / (2.0 * n_b), b_max, n_b)
    half_env = 0.5 * model.envelope_values(data.tau_us)
    sse = lsq.scan_sse(lambda lo, hi: half_env * np.cos(b_grid[lo:hi, None, None] * k), (n_b, len(k)), rows[-2:])
    i, j = np.unravel_index(np.argsort(sse, axis=None)[:10], sse.shape)
    return [np.array([b_grid[m], _PHI_GRID[n]]) for m, n in zip(i, j)]


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
        instead of the 10 best cells of a landscape probe.  Of the starts
        that end within ``_TIE_RTOL`` of the lowest cost, the earliest is
        reported, unless only a later one converged.
    b_max : float
        Amplitude search domain: the probe spans (0, b_max], and solutions
        beyond it are taken only if no start ends inside (aliasing guard).
        Refused outside its ``config.DOMAINS`` row, as ``max_iter`` is, or
        if its fringe phase at the dataset's largest phase factor passes
        ``MAX_FRINGE_PHASE_RAD``.

    Raises
    ------
    IdentifiabilityError
        If the Jacobian at the optimum is numerically rank-deficient.
    """
    check_value("b_max", b_max)
    check_value("max_iter", max_iter)
    if model is None:
        model = EchoFitModel()
    if len(data) < 8:
        raise ValidationError("fit_echo needs at least 8 data points")
    k = model.phase_factor(data.tau_us, _PHI_GRID[:, None])  # rad/G
    k_absmax = float(np.max(np.abs(k)))
    if b_max * k_absmax > MAX_FRINGE_PHASE_RAD:
        raise ValidationError(
            f"--b-max (b_max) {b_max:g} G turns the fringe phase beyond 2**52 rad at the "
            f"largest phase factor {k_absmax:.4g} rad/G of the dataset's tau, where floats "
            f"are 1 rad apart; lower it below {MAX_FRINGE_PHASE_RAD / k_absmax:.4g} G"
        )
    rows, e, fill = _echo_rows(data, model)
    if initial is None:
        starts = _landscape_starts(data, model, rows, b_max, k, k_absmax)
    elif {"b_perp_gauss", "phi0_rad"} <= initial.keys():
        starts = [np.array([initial["b_perp_gauss"], initial["phi0_rad"]], dtype=float)]
    else:
        raise ValidationError("initial needs both b_perp_gauss and phi0_rad")

    fits = [lsq.fit_separable(rows, fill, x0, 0.0, 1.0, max_iter) for x0 in starts]
    # prefer solutions inside the physical amplitude domain: beyond b_max the
    # fringe aliases between sample points and can overfit pure noise
    fits = [fit for fit in fits if abs(fit[0].x[0]) <= b_max * (1.0 + 1e-9)] or fits
    # of the ends tied with the lowest cost, the earliest start in landscape
    # order, unless only a later one converged
    low = min(fit[0].cost for fit in fits)
    tied = [fit for fit in fits if fit[0].cost <= low * (1.0 + _TIE_RTOL)] or fits
    lm, a, c = next((fit for fit in tied if fit[0].converged), tied[0])

    params = canonical_fringe_params(dict(zip(ECHO_PARAM_NAMES, (abs(float(lm.x[0])), float(lm.x[1]), a, c))))
    return _finalize_fit(params, _echo_full_jacobian(rows, fill, params), e, lm, ECHO_PARAM_NAMES)


def _finalize_fit(params: dict, jac: np.ndarray, e: int, lm: lsq.LMResult, names) -> FitResult:
    """The report of a fit at ``params``, whose full Jacobian in ``names`` is ``jac``, from rows over 2^e.

    The covariance is :func:`lsq.check_identified`'s times max(chi2_reduced, 1e-300), both over 4^e.
    """
    n, p = jac.shape
    chi2_red = 2.0 * lm.cost / (n - p)
    cov = lsq.check_identified(jac) * max(chi2_red, 1e-300)
    return FitResult(
        params=params,
        sigmas={name: math.sqrt(cov[i, i]) for i, name in enumerate(names)},
        covariance=cov,
        residual_norm=math.ldexp(math.sqrt(2.0 * lm.cost), e),
        chi2_reduced=math.ldexp(chi2_red, 2 * e),
        converged=lm.converged,
        iterations=lm.iterations,
        n_points=n,
        param_names=tuple(names),
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
# Durations within this many steps of a uniform grid take the chirp-z start
# scan: the phase at the top of its 2 Omega grid then errs by under 1e-4 rad.
# The %.9g dataset text of a start:stop:n scan from 0 lies within 1e-8 (n - 1)
# steps of one, so such scans of up to 1000 points take it read back too.
_UNIFORM_STEP_TOLERANCE = 1e-5


def _sine_grid_sse(t, data, omega):
    """Weighted SSE of y ~ a sin^2(pi Omega t) + c at each Omega: :func:`lsq.scan_sse` by the fit's ``data`` rows."""
    return lsq.scan_sse(lambda lo, hi: np.sin(math.pi * omega[lo:hi, None] * t) ** 2, omega.shape, data)


def _chirp_z_sse(t0, dt, data, omega):
    """:func:`_sine_grid_sse` for durations t0 + j dt on a uniform ``omega`` grid, by chirp-z.

    With u = sin^2(pi Omega t) = (1 - cos)/2 and u^2 = (3 - 4 cos + cos2)/8,
    where cos = cos(2 pi Omega t) and cos2 = cos(4 pi Omega t), the pair needs
    only C = sum w cos, C_y = sum w y cos and C_2 = sum w cos2 (w the square
    of ``data``'s weight row): the floating-mean Lomb-Scargle sums (Zechmeister & Kuerster, A&A 496 (2009)
    577).  Each is the real part of S_k = sum_j x_j exp(2 pi i f_k t_j) on a
    grid f_k = f0 + k df, and with W = exp(2 pi i df dt) and
    jk = (j^2 + k^2 - (k - j)^2) / 2,

        S_k = W^(k^2/2) e^(2 pi i k df t0) sum_j [x_j e^(2 pi i f0 t_j) W^(j^2/2)] W^(-(k-j)^2/2),

    one convolution, taken by FFT: Bluestein's chirp-z transform (Rabiner,
    Schafer & Rader, Bell Syst. Tech. J. 48 (1969) 1249).  C_2 is on the
    grid 2 Omega, whose every factor is the square of the one on Omega.
    Phases are reduced to one turn before the exponential.
    """
    n, m = data.shape[1], omega.size
    f0, df = float(omega[0]), float(omega[-1] - omega[0]) / (m - 1)
    size = 1 << (n + m - 2).bit_length()  # a power of two >= n + m - 1
    k = np.arange(max(n, m))
    chirp = np.exp(1j * math.pi * ((df * dt * (k * k)) % 2.0))  # W^(k^2/2)
    head = np.exp(2j * math.pi * ((f0 * (t0 + dt * k[:n])) % 1.0)) * chirp[:n]
    tail = chirp[:m] * np.exp(2j * math.pi * ((df * t0 * k[:m]) % 1.0))
    kernel = np.zeros(size, dtype=complex)  # W^(-l^2/2) at l mod size, for -n < l < m
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1 :] = chirp[n - 1 : 0 : -1].conj()
    inv, wy = data
    x = inv * inv * head
    spec = np.fft.fft(np.stack([x, inv * wy * head, x * head]), size)
    spec *= np.fft.fft(np.stack([kernel, kernel * kernel]))[[0, 0, 1]]
    c, c_y, c_2 = (np.fft.ifft(spec)[:, :m] * np.stack([tail, tail, tail * tail])).real
    s_1, s_y = inv @ inv, inv @ wy
    s_uu = 0.125 * (3.0 * s_1 - 4.0 * c + c_2)
    return lsq.pair_from_sums(s_uu, 0.5 * (s_1 - c), s_1, 0.5 * (s_y - c_y), s_y, wy @ wy)[2]


def fit_rabi(data: EchoDataset, initial: dict | None = None, max_iter: int = 200) -> FitResult:
    """Fit signal = baseline + contrast * sin^2(pi * Omega * t) to a duration scan.

    LM searches Omega alone; the (contrast, baseline) pair is solved exactly
    at each Omega and left unbounded, since a scan from ms = 0 dips.  The
    start is ``initial["rabi_freq_mhz"]`` (any other key is ignored) or the
    first minimum of the pair's weighted SSE over 256 frequencies from 1/4
    to n/2 cycles per scan span.  Durations within
    ``_UNIFORM_STEP_TOLERANCE`` steps of a uniform grid (a start:stop:n scan,
    also read back from its dataset text) take that scan's sums from
    chirp-z transforms, :func:`_chirp_z_sse`; others, such as a comma list,
    evaluate the sines in blocks, :func:`_sine_grid_sse`.  The two agree to rounding.
    Data that do not constrain the frequency (zero contrast) raise
    IdentifiabilityError.
    """
    check_value("max_iter", max_iter)
    if len(data) < 6:
        raise ValidationError("fit_rabi needs at least 6 data points")
    t = data.tau_us
    span = float(t[-1] - t[0])

    rows, e = lsq.data_rows(1, data.signal, data.sigma)

    def fill(rows, x):
        s = np.sin(math.pi * x[0] * t)
        rows[0], rows[1] = math.pi * t * np.sin(2.0 * math.pi * x[0] * t) * rows[2], s * s * rows[2]

    if initial is not None and "rabi_freq_mhz" in initial:
        start = np.array([initial["rabi_freq_mhz"]], dtype=float)
    else:
        grid = np.linspace(0.25 / span, 0.5 * len(data) / span, 256)
        dt = span / (len(data) - 1)
        uniform = np.max(np.abs((t - t[0]) / dt - np.arange(len(data)))) <= _UNIFORM_STEP_TOLERANCE
        sse = _chirp_z_sse(t[0], dt, rows[2:], grid) if uniform else _sine_grid_sse(t, rows[2:], grid)
        start = grid[[np.argmin(sse)]]  # the first minimum
    lm, contrast, baseline = lsq.fit_separable(rows, fill, start, max_iter=max_iter)
    omega = abs(float(lm.x[0]))
    params = {"rabi_freq_mhz": omega, "contrast": contrast, "baseline": baseline}
    fill(rows, [omega])
    return _finalize_fit(params, lsq.full_jacobian(rows, contrast), e, lm, RABI_PARAM_NAMES)
