"""Optical pumping, spin-dependent fluorescence and photon counting for a moving NV.

The level scheme is the usual five-level reduction: two ground spin states
(g0 bright, g1 dark), two excited states (e0, e1) fed by spin-conserving
pumping, and a metastable singlet shelf reached preferentially from e1.
The shelf decays mostly to g0, which is simultaneously the source of the
fluorescence contrast and of optical spin polarisation.  Coherences are
dropped: readout happens after projective microwave pulses, so classical
rate equations are adequate.

Because the NV orbits the rotation axis, it sweeps through the stationary
laser focus and sees a time-dependent intensity; fluorescence traces are
truncated-Gaussian-like pulses rather than flat readout windows.  The
deterministic transit response is separated from Monte-Carlo photon
sampling so that tests can compare the two.

Rates are per microsecond, detected count rates in counts/s.  The default
rates are literature-typical; only the observable 20-30 % readout contrast
band and the transit-reduced count rate are treated as quantitative.

The rate equations are linear and their generator is affine in the beam
intensity, so the transit readout is one batched array computation
(`_transit_counts`): a fourth-order commutator-free exponential step,
with the step count set by the generator's norm and the transit time.
Each step factor is the exponential of the generator at one intensity
blend, so the factors are interpolated in that blend from a few
Chebyshev nodes; the node exponentials, and the factors themselves where
the rates are too stiff for interpolation to pay, come from a
scaling-and-squaring Pade matrix exponential (`expm`, Higham 2005, SIAM
J. Matrix Anal. Appl. 26:1179) that also serves `step_rates`.  The module
needs numpy only.

The scans read the spin out through the early window of one transit
(`WindowResponse`): one pass gives its bright, dark and background counts,
and a point mixes the first two by its P(m_S = -1).  `sample_window_ratios`
draws each point's signal and a bright reference one revolution later
(the NV repumped, as the experiment normalises): their ratio and its
shot-noise standard error.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import BeamProfile, RateModel, RotorGeometry, check_pulse_in_rotation, check_value
from .config import check_window_in_pulse
from .errors import ValidationError, check_expected_counts, record
from .geometry import TWO_PI


@record(eq=False)
class LevelPopulations:
    """Populations of (g0, g1, e0, e1, singlet); must sum to one."""

    g0: float = 1.0
    g1: float = 0.0
    e0: float = 0.0
    e1: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        vals = self.as_array()
        if not np.all((vals >= -1e-9) & (vals <= 1.0 + 1e-9)):  # NaN fails too
            raise ValidationError("populations must lie in [0, 1]")
        if not abs(float(vals.sum()) - 1.0) <= 1e-9:
            raise ValidationError("populations must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.g0, self.g1, self.e0, self.e1, self.s], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "LevelPopulations":
        g0, g1, e0, e1, s = np.asarray(arr, dtype=float).tolist()
        return cls(g0, g1, e0, e1, s)

    @classmethod
    def ms0(cls) -> "LevelPopulations":
        return cls(g0=1.0)

    @classmethod
    def ms1(cls) -> "LevelPopulations":
        return cls(g0=0.0, g1=1.0)


@record(eq=False)
class PhotonTrace:
    """Binned photon counts accumulated over ``shots`` repetitions."""

    bin_width_us: float
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValidationError("counts must be a 1-D non-negative array")
        check_value("protocol.shots_per_point", self.shots, "shots (--shots)")
        if not self.bin_width_us > 0:
            raise ValidationError("bin_width_us must be positive")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def bin_starts_us(self) -> np.ndarray:
        return np.arange(self.counts.size) * self.bin_width_us


# ---------------------------------------------------------------------------
# beam transit


def _illumination(off, d: float):
    """exp(-2 off^2 / w^2) at non-negative offsets ``off`` from the diameter d = 2 w.

    It is evaluated as exp(-8 (off / d)^2), with offsets past ten diameters
    (e^-800, i.e. 0) clipped, so neither a vanishing waist nor a huge offset
    overflows.
    """
    return np.exp(-8.0 * (np.minimum(off, 10.0 * d) / d) ** 2)


def beam_intensity(b: BeamProfile, offset_um):
    """Relative detected-intensity profile at a lateral offset from focus.

    Illumination is exp(-2 off^2 / w^2) with w the 1/e^2 radius
    (:func:`_illumination`); confocal collection through the same objective
    weights it once more.
    """
    profile = _illumination(np.abs(np.asarray(offset_um, dtype=float)), b.waist_diameter_1e2_um)
    if b.collection_mode == "confocal-squared":
        profile = profile**2
    return float(profile) if np.isscalar(offset_um) else profile


def transit_offset_um(g: RotorGeometry, dt_us):
    """Distance (chord) between the NV and its position ``dt_us`` earlier."""
    ang = TWO_PI * g.f_rot_hz * np.asarray(dt_us, dtype=float) * 1e-6
    out = 2.0 * g.r_nv_um * np.abs(np.sin(ang / 2.0))
    return float(out) if np.isscalar(dt_us) else out


@functools.cache
def _transit_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre rule on [-1, 1] for the transit average, made on first use."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


def expected_count_rate(b: BeamProfile, g: RotorGeometry, t_pulse_us: float) -> float:
    """Mean detected rate under strobed illumination, counts/s.

    The duty-cycle bound N_s * t_pulse / T_rot is multiplied by the
    time-averaged beam intensity along the arc centred on the focus
    (composite Gauss-Legendre quadrature, no Monte Carlo); a stationary NV
    or an empty pulse gets the bound.
    """
    check_value("strobe.t_pulse_us", t_pulse_us)
    check_pulse_in_rotation(t_pulse_us, g)
    bound = b.peak_counts_stationary_cps * t_pulse_us / g.t_rot_us
    if g.r_nv_um == 0.0 or t_pulse_us == 0.0:
        return bound
    # The integrand is even in t, and the offset grows monotonically over
    # half a turn; past 3 waist diameters the intensity is below e^-72, so
    # only [0, span] contributes.  Panels are at most one transit time (of a
    # waist radius) wide.  Both come from the diameter, not the radius: half
    # the smallest positive diameter rounds to 0.
    d = b.waist_diameter_1e2_um
    reach_us = math.asin(min(1.0, 1.5 * d / g.r_nv_um)) * g.t_rot_us / math.pi
    span_us = min(t_pulse_us / 2.0, reach_us)
    transit_us = d * g.t_rot_us / (2.0 * TWO_PI * g.r_nv_um)
    n_panels = max(1, math.ceil(span_us / transit_us))
    half_width = span_us / (2 * n_panels)
    centres = (2 * np.arange(n_panels) + 1) * half_width
    nodes, weights = _transit_rule()
    t = centres[:, None] + half_width * nodes
    val = 2.0 * half_width * float((beam_intensity(b, transit_offset_um(g, t)) @ weights).sum())
    return bound * val / t_pulse_us


# ---------------------------------------------------------------------------
# rate equations


_RATE_KEYS = ("rates.pump_rate_peak_per_us, rates.radiative_rate_per_us, rates.isc_rate_e1_per_us, "
              "rates.isc_rate_e0_per_us and rates.singlet_decay_per_us")


def rate_matrix(m: RateModel, intensity: float) -> np.ndarray:
    """Generator A of dn/dt = A n for populations (g0, g1, e0, e1, s)."""
    if not intensity >= 0:
        raise ValidationError("intensity must be non-negative")
    pump = m.pump_rate_peak_per_us * intensity
    rad = m.radiative_rate_per_us
    i0, i1 = m.isc_rate_e0_per_us, m.isc_rate_e1_per_us
    sdec = m.singlet_decay_per_us
    fs = m.singlet_branching_to_g0
    return np.array(
        [
            [-pump, 0.0, rad, 0.0, fs * sdec],
            [0.0, -pump, 0.0, rad, (1.0 - fs) * sdec],
            [pump, 0.0, -(rad + i0), 0.0, 0.0],
            [0.0, pump, 0.0, -(rad + i1), 0.0],
            [0.0, 0.0, i0, i1, -sdec],
        ]
    )


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, accurate to
# double precision for a 1-norm up to _THETA_13 (Higham 2005)
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix or a stack of them (..., n, n).

    Scaling and squaring with the [13/13] Pade approximant, the scaling set
    by the largest 1-norm in the stack (Higham 2005, SIAM J. Matrix Anal.
    Appl. 26:1179).
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0 else 0
    a = a / 2.0**squarings
    c = _PADE_13
    ident = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
             + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * ident)
    v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
         + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def step_rates(
    p: LevelPopulations, m: RateModel, intensity: float, dt_us: float
) -> LevelPopulations:
    """Advance the rate equations by ``dt_us`` at constant intensity.

    Uses the exact matrix exponential of the (linear, constant) generator,
    so the step is unconditionally stable and conserves the population sum.
    """
    if not dt_us >= 0:
        raise ValidationError("dt_us must be non-negative")
    if dt_us == 0.0:
        return p
    vec = expm(rate_matrix(m, intensity) * dt_us) @ p.as_array()
    vec = np.clip(vec, 0.0, None)
    return LevelPopulations.from_array(vec / vec.sum())


def steady_state(m: RateModel, intensity: float = 1.0) -> LevelPopulations:
    """Illuminated steady state: the null vector of the rate generator.

    The generator must have rank 4 (relative singular-value threshold
    5 * machine epsilon); the null vector is the last right singular vector.
    """
    if not intensity > 0:
        raise ValidationError("steady state requires a positive intensity")
    a = rate_matrix(m, intensity)
    _, sv, vt = np.linalg.svd(a)
    tol = a.shape[0] * np.finfo(float).eps * sv[0]
    if sv[-2] <= tol or sv[-1] > tol:
        raise ValidationError(f"rate matrix has a degenerate steady state; check {_RATE_KEYS}")
    vec = vt[-1]
    vec = vec * math.copysign(1.0, vec.sum())
    vec = np.clip(vec, 0.0, None)
    return LevelPopulations.from_array(vec / vec.sum())


def emission_rate_per_us(p: LevelPopulations, m: RateModel) -> float:
    """Raw photon emission rate, radiative_rate * (e0 + e1), in 1/us."""
    return m.radiative_rate_per_us * (p.e0 + p.e1)


@functools.lru_cache(maxsize=64)
def _bright_emission_rate(m: RateModel) -> float:
    """Emission rate (1/us) of the bright steady state at unit intensity, once per rate model."""
    return emission_rate_per_us(steady_state(m, 1.0), m)


def detection_calibration(m: RateModel, b: BeamProfile) -> float:
    """Counts/s detected per unit emission rate, anchored to the stationary peak.

    A stationary, beam-centred NV pumped to its bright steady state must
    register ``peak_counts_stationary_cps``.
    """
    return b.peak_counts_stationary_cps / _bright_emission_rate(m)


def fluorescence_rate(p: LevelPopulations, m: RateModel, b: BeamProfile) -> float:
    """Detected count rate (counts/s) for populations ``p`` at beam centre."""
    return detection_calibration(m, b) * emission_rate_per_us(p, m)


# ---------------------------------------------------------------------------
# readout of the moving NV


# Commutator-free fourth-order exponential step (Blanes & Moan 2006, Appl.
# Numer. Math. 56:1519): with the generator G_1, G_2 at the two Gauss points
# of a step h and a_+-= 1/4 +- sqrt(3)/6, the propagator is
# exp(h (a_- G_1 + a_+ G_2)) exp(h (a_+ G_1 + a_- G_2)).  Each exponent is
# h/2 times the generator at a blend of the two intensities, clipped at zero
# (a blend is negative only where the intensity is negligible or the step
# does not resolve the beam), so every factor
# is the exponential of a rate generator: populations stay non-negative and
# the step is stable however stiff the rates are.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_CF4_BLEND = 2.0 * np.array([[0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
                             [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0]])
# Step rule: h * sqrt(|A(1)|_1 * v / w) <= _STEP_SCALE, i.e. the geometric
# mean of the fastest rate and the transit rate; at the defaults this keeps
# the per-bin error to a few 1e-8 of the trace peak.
_STEP_SCALE = 0.05
# Most exponential steps (and bins) in one transit; bounds time and memory.
MAX_READOUT_STEPS = 8192
# Uniform bins of the early window's pass, from laser turn-on
WINDOW_BINS = 8
# the refusal of a dark readout window (`WindowResponse.dark`), naming what lights it
DARK_WINDOW = (
    "readout window collects no light from the NV above the background (beam.background_cps); check the "
    "beam (beam.waist_diameter_1e2_um, beam.peak_counts_stationary_cps), the orbit (geometry.r_nv_um, "
    "geometry.f_rot_hz), protocol.turn_on_offset_us and rates.pump_rate_peak_per_us"
)
# A step factor taken with s squarings carries rounding of about eps 2^s,
# 2^s being about its exponent's 1-norm over _THETA_13, so the factors of a
# pass of length T carry eps T |A(1)|_1 / _THETA_13 in all.  A pass above
# this bound is refused: just below it (every default rate times 3.5e10)
# a 2 us trace is off by 4e-4, at 1e12 times by 1.2 %, and from ~1e17
# times the factor products overflow.
_MAX_PASS_ROUNDING = 1e-3
# Bernstein ellipse parameters rho searched for the interpolation node count,
# rho - 1 spaced geometrically from 1e-8 to 1e20
_ELLIPSE_RHO = 1.0 + np.exp(np.linspace(math.log(1e-8), math.log(1e20), 500))
# One direct 6x6 Pade exponential costs about as much as this many
# interpolation weights (~5 us against ~25 ns on a 2-core x86 host), so
# interpolating F factors from K nodes pays while K (F + this) < F * this.
_EXPM_COST_IN_WEIGHTS = 200.0


def _node_count(c: float, log_norm: float) -> float:
    """Fewest Chebyshev points interpolating x -> exp(M + x C) on [-1, 1] to rounding.

    With |C|_1 <= c and the 1-norm log-norm of M + x C at most ``log_norm``
    on [-1, 1], the exponential is bounded by exp(log_norm + c (rho - 1/rho)
    / 2) on the Bernstein ellipse E_rho (its points lie within (rho - 1/rho)
    / 2 of the interval), so the degree-n interpolant in the Chebyshev
    points is within 4 M rho^-n / (rho - 1) of it (Trefethen, Approximation
    Theory and Approximation Practice, Thm 8.2).  Returns n + 1 for the
    smallest n that some rho of the grid brings below the unit roundoff,
    the factors' 1-norms being at least one; inf when none does.
    """
    rho = _ELLIPSE_RHO
    with np.errstate(over="ignore"):  # an ellipse whose bound overflows to inf admits no node count
        log_bound = math.log(4.0 / np.finfo(float).eps) + log_norm + 0.5 * c * (rho - 1.0 / rho)
    degree = float(np.min((log_bound - np.log(rho - 1.0)) / np.log(rho)))
    return 1.0 + math.ceil(max(degree, 0.0)) if degree < math.inf else math.inf


def _barycentric(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lagrange basis of ``nodes`` at every x, (x.size, nodes.size), by the barycentric formula.

    An x that equals a node gets that node's row of the identity.  One
    (x.size, nodes.size) array is filled in place, so that a pass leaves
    no further temporaries of that size behind.
    """
    terms = x[:, None] - nodes
    hit = terms == 0.0
    terms[hit] = 1.0
    np.divide(weights, terms, out=terms)
    on_node = hit.any(axis=1)
    terms[on_node] = hit[on_node]
    terms /= terms.sum(axis=1, keepdims=True)
    return terms


def _bin_products(factors: np.ndarray) -> np.ndarray:
    """Time-ordered product of each bin's (n_bins, n, 6, 6) factors, earliest first, as (n_bins, 1, 6, 6).

    By halving: factors (2j, 2j+1) pair up and an odd last one is carried.
    That groups every product as identities padding the count to a power
    of two would, and a product with an identity is exact.
    """
    while (n := factors.shape[1]) > 1:
        paired = factors[:, 1::2] @ factors[:, 0 : n - 1 : 2]
        factors = np.concatenate([paired, factors[:, n - 1 :]], axis=1) if n % 2 else paired
    return factors


def _transit_counts(
    initial: np.ndarray,
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    turn_on_offset_us: float,
    n_bins: int,
    bin_width_us: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the rate equations along the transit for several initial states.

    ``initial`` holds populations as columns (5, k).  The pass covers
    ``n_bins`` uniform bins of ``bin_width_us`` from laser turn-on, so every
    exponential step has the same length h: the trace's bins tile the pulse
    (`_trace_bins`), the early window's split the window (`_window_counts`).
    The augmented state is
    (g0, g1, e0, e1, s, x), where x integrates the excited population times
    the collection weighting; the detected counts per shot are x times the
    calibrated emission rate plus the background, which integrates in closed
    form (`_background_counts`).  Returns the cumulative counts at every bin
    edge (n_bins + 1, k) and the populations at the last edge (5, k).

    Every step factor exp((h/2) (gen0 + s slope)) is the same analytic
    function of one scalar, the clipped intensity blend s in [0, s_max].
    The factors are therefore interpolated from the exponentials at K
    Chebyshev points of [0, s_max], by the barycentric formula (Berrut &
    Trefethen 2004, SIAM Rev. 46:501), with K the fewest points whose a
    priori bound (`_node_count`, from |(h/2) slope|_1 s_max) is at rounding
    level.  Where K is too large for that to pay (stiff rates, whose step
    count `MAX_READOUT_STEPS` caps), the nodes are the factors' own blends
    and every factor is exponentiated directly.
    """
    check_value("protocol.turn_on_offset_us", turn_on_offset_us)
    # then the steady state refuses a degenerate rate model
    counts_per_excited_us = detection_calibration(m, b) * m.radiative_rate_per_us * 1e-6
    gen0 = np.zeros((6, 6))
    gen1 = np.zeros((6, 6))
    gen0[:5, :5] = rate_matrix(m, 0.0)
    gen1[:5, :5] = rate_matrix(m, 1.0)
    gen1[5, 2:4] = 1.0
    if b.collection_mode != "confocal-squared":
        gen0[5, 2:4] = 1.0
    slope = gen1 - gen0  # the generator is gen0 + intensity * slope

    d = b.waist_diameter_1e2_um
    speed_um_per_us = TWO_PI * g.r_nv_um * g.f_rot_hz * 1e-6
    fastest = float(np.abs(gen1[:5, :5]).sum(axis=0).max())
    if not fastest * n_bins * bin_width_us * np.finfo(float).eps <= _MAX_PASS_ROUNDING * _THETA_13:
        raise ValidationError(
            f"rates up to {fastest:.3g} /us lose a {n_bins * bin_width_us:g} us readout pass "
            f"to rounding; lower {_RATE_KEYS}"
        )
    rate = math.sqrt(fastest * speed_um_per_us * 2.0 / d)
    wanted = bin_width_us * rate / _STEP_SCALE
    steps = MAX_READOUT_STEPS // n_bins
    if wanted < steps:
        steps = max(1, math.ceil(wanted))

    h = bin_width_us / steps
    starts = (bin_width_us * np.arange(n_bins))[:, None, None] + h * np.arange(steps)[:, None]
    gauss_intensity = _illumination(transit_offset_um(g, starts + h * _GAUSS_NODES + turn_on_offset_us), d)
    blend = np.clip(gauss_intensity @ _CF4_BLEND, 0.0, None).ravel()  # earlier factor first
    half = 0.5 * h
    s_max = max(float(blend.max()), np.finfo(float).tiny)  # tiny: no light at all
    k = _node_count(0.5 * half * np.abs(slope).sum(axis=0).max() * s_max, half * max(1.0, s_max))
    if k * (blend.size + _EXPM_COST_IN_WEIGHTS) < blend.size * _EXPM_COST_IN_WEIGHTS:
        theta = (np.arange(k) + 0.5) * (math.pi / k)
        nodes = 0.5 * s_max * (1.0 + np.cos(theta))
        weights = np.sin(theta)  # barycentric weights (-1)^j sin(theta_j)
        weights[1::2] *= -1.0
        lagrange = _barycentric(2.0 * (blend / s_max) - 1.0, np.cos(theta), weights)
    else:
        nodes, lagrange = blend, None
    factors = expm(half * (gen0 + nodes[:, None, None] * slope))
    if lagrange is not None:
        factors = lagrange @ factors.reshape(nodes.size, 36)
    factors = _bin_products(factors.reshape(n_bins, 2 * steps, 6, 6))

    state = np.vstack([initial, np.zeros(initial.shape[1])])
    excited_us = np.zeros((n_bins + 1, initial.shape[1]))
    for i in range(n_bins):
        state = factors[i, 0] @ state
        excited_us[i + 1] = state[5]
    background = _background_counts(b, bin_width_us, np.arange(n_bins + 1)[:, None])
    return counts_per_excited_us * excited_us + background, state[:5]


def _background_counts(b: BeamProfile, bin_width_us: float, edges):
    """Expected background counts per shot from laser turn-on to the bin edges ``edges``."""
    return b.background_cps * 1e-6 * bin_width_us * edges


def _trace_bins(t_pulse_us: float, bin_width_us: float) -> tuple[int, float]:
    """The trace's bins: round(t_pulse_us / bin_width_us) uniform bins tiling the pulse, and their width.

    At least one bin, and at most ``MAX_READOUT_STEPS``: the comparison
    comes first, on the float, since an overflowing ratio is inf, which no
    integer conversion takes.
    """
    if not t_pulse_us > 0:
        raise ValidationError("t_pulse_us must be positive")
    check_value("protocol.bin_width_us", bin_width_us)
    bins = t_pulse_us / bin_width_us
    if not bins <= MAX_READOUT_STEPS + 0.5:  # round(bins) > MAX_READOUT_STEPS
        raise ValidationError(
            f"strobe.t_pulse_us / protocol.bin_width_us = {t_pulse_us} / {bin_width_us} "
            f"gives {bins:.3g} bins, more than {MAX_READOUT_STEPS}"
        )
    n_bins = max(1, round(bins))
    return n_bins, t_pulse_us / n_bins


def readout_response(
    initial: LevelPopulations,
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    t_pulse_us: float = 2.0,
    turn_on_offset_us: float = 0.0,
    bin_width_us: float = 0.05,
) -> tuple[np.ndarray, LevelPopulations]:
    """Deterministic transit readout: expected counts per bin per shot + final populations.

    The laser switches on ``turn_on_offset_us`` after the NV crosses the
    beam centre (negative = before) and stays on for ``t_pulse_us``.  The
    five-level equations are integrated along the transit with a fixed-step
    fourth-order exponential integrator whose step follows the rates and
    the transit time (per-bin error ~1e-8 of the trace peak at the
    defaults); the detected rate is the emission rate times the collection
    weighting at the instantaneous offset.

    The pulse is cut into round(t_pulse_us / bin_width_us) uniform bins
    (`_trace_bins`, at most ``MAX_READOUT_STEPS``), so all steps share one
    length and the step exponentials are interpolated in the beam intensity
    from the fewest Chebyshev nodes that keep them at rounding level, or
    taken directly where that many nodes would not pay (see
    `_transit_counts`).
    """
    n_bins, width = _trace_bins(t_pulse_us, bin_width_us)
    cumulative, pops = _transit_counts(initial.as_array()[:, None], g, b, m, turn_on_offset_us, n_bins, width)
    pops = np.clip(pops[:, 0], 0.0, None)
    return np.diff(cumulative[:, 0]), LevelPopulations.from_array(pops / pops.sum())


def simulate_readout(
    initial: LevelPopulations,
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    t_pulse_us: float = 2.0,
    turn_on_offset_us: float = 0.0,
    shots: int = 100_000,
    seed: int = 0,
    bin_width_us: float = 0.05,
) -> PhotonTrace:
    """Poisson-sampled binned fluorescence trace accumulated over ``shots`` repetitions."""
    check_value("protocol.shots_per_point", shots, "shots (--shots)")
    _, width = _trace_bins(t_pulse_us, bin_width_us)
    expected, _ = readout_response(
        initial, g, b, m, t_pulse_us, turn_on_offset_us, bin_width_us
    )
    check_expected_counts(
        float(np.max(expected)) * shots,
        "beam.peak_counts_stationary_cps, beam.background_cps or protocol.shots_per_point (--shots)",
    )
    rng = np.random.default_rng(seed)
    counts = rng.poisson(np.clip(expected, 0.0, None) * shots)
    return PhotonTrace(bin_width_us=width, counts=counts, shots=shots)


def state_contrast(
    signal: PhotonTrace, reference: PhotonTrace, window_us: float
) -> tuple[float, float]:
    """Early-window count ratio signal/reference with its Poisson standard error.

    Both traces must share the bin width; shot counts may differ and are
    normalised out.  The window is read in whole bins only: ``window_us``
    must be n bins, to 1e-9 relative, with n from one to the traces'
    length.  The standard error follows from independent Poisson
    statistics of the two window sums.
    """
    if abs(signal.bin_width_us - reference.bin_width_us) > 1e-12:
        raise ValidationError("traces must share the same bin width")
    size = min(signal.counts.size, reference.counts.size)
    bins = window_us / signal.bin_width_us
    n = np.rint(bins)
    if not (1 <= n <= size and abs(bins - n) <= 1e-9 * n):  # NaN fails too
        raise ValidationError(
            f"window_us (protocol.readout_window_us) = {window_us:g} us must be a whole number, one to {size}, "
            f"of the traces' {signal.bin_width_us:g} us bins (t_pulse_us / round(t_pulse_us / bin_width_us))"
        )
    n = int(n)
    s = float(signal.counts[:n].sum())
    r = float(reference.counts[:n].sum())
    if r <= 0 or s <= 0:
        raise ValidationError("window contains no counts")
    ratio, sigma = _window_ratio(s, r, signal.shots, reference.shots)
    return ratio, float(sigma)


def _window_ratio(s, r, s_shots, r_shots):
    """Per-shot ratio (s / s_shots) / (r / r_shots) of two Poisson window sums, and its standard error."""
    ratio = (s / s_shots) / (r / r_shots)
    return ratio, ratio * np.sqrt(1.0 / s + 1.0 / r)


@record
class WindowResponse:
    """Expected early-window counts per shot: bright (m_S = 0) and dark (m_S = -1) spin, and background."""

    n_bright: float  # the spin counts include the background's
    n_dark: float
    n_background: float

    @property
    def contrast(self) -> float:
        return 1.0 - self.n_dark / self.n_bright

    @property
    def dark(self) -> bool:
        """No light from the NV: the bright counts are no higher than the background's."""
        return not self.n_bright > self.n_background

    def lit(self) -> WindowResponse:
        """This response, refused when it is dark."""
        if self.dark:
            raise ValidationError(DARK_WINDOW)
        return self

    def expected(self, p_ms1) -> np.ndarray:
        p = np.asarray(p_ms1, dtype=float)
        return (1.0 - p) * self.n_bright + p * self.n_dark


def sample_window_ratios(resp: WindowResponse, p_ms1, shots: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ratio of ``shots`` signal windows, at P(m_S = -1) ``p_ms1``, to as many bright ones.

    One Poisson draw of ``rng`` gives every signal sum, the next every
    reference sum, each clamped at 1.  Returns the ratios and their errors.
    """
    where = "beam.peak_counts_stationary_cps, beam.background_cps or protocol.shots_per_point (--shots)"
    check_expected_counts(max(resp.n_bright, resp.n_dark) * shots, where)
    s = np.maximum(rng.poisson(resp.expected(p_ms1) * shots), 1)
    r = np.maximum(rng.poisson(resp.n_bright * shots, size=np.size(p_ms1)), 1)
    return _window_ratio(s, r, 1, 1)


def _window_counts(initial: np.ndarray, g: RotorGeometry, b: BeamProfile, m: RateModel,
                   t_pulse_us: float, turn_on_offset_us: float, window_us: float) -> np.ndarray:
    """Expected per-shot counts over [0, window_us] from turn-on, for populations as columns of ``initial``.

    The pass integrates the window alone, in ``WINDOW_BINS`` bins of
    ``window_us / WINDOW_BINS``; the pulse only has to hold the window.
    """
    check_value("strobe.t_pulse_us", t_pulse_us)
    check_value("protocol.readout_window_us", window_us)
    check_window_in_pulse(window_us, t_pulse_us)
    counts, _ = _transit_counts(initial, g, b, m, turn_on_offset_us, WINDOW_BINS, window_us / WINDOW_BINS)
    return counts[-1]


def spin_window_counts(
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    t_pulse_us: float,
    turn_on_offset_us: float,
    window_us: float,
) -> WindowResponse:
    """Expected per-shot early-window counts of both spin states, one transit pass."""
    spins = np.column_stack([LevelPopulations.ms0().as_array(), LevelPopulations.ms1().as_array()])
    bright, dark = _window_counts(spins, g, b, m, t_pulse_us, turn_on_offset_us, window_us).tolist()
    return WindowResponse(bright, dark, _background_counts(b, window_us, 1))


def expected_window_counts(
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    t_pulse_us: float,
    turn_on_offset_us: float,
    window_us: float,
    initial: LevelPopulations,
) -> float:
    """Expected per-shot counts in the early window (deterministic helper)."""
    return float(_window_counts(initial.as_array()[:, None], g, b, m, t_pulse_us, turn_on_offset_us, window_us)[0])


def optimal_turn_on(
    g: RotorGeometry,
    b: BeamProfile,
    m: RateModel,
    t_pulse_us: float,
    window_us: float,
) -> float:
    """Laser turn-on offset (relative to beam-centre crossing) maximising contrast SNR.

    The figure of merit is contrast * sqrt(early-window counts), evaluated
    on deterministic traces at 37 offsets from -1.5 to 0.75 pulse lengths;
    each offset integrates both spin states in one pass.  For a stationary
    NV every offset is equivalent and 0 is returned; a window that is dark
    at every offset is refused.
    """
    if g.r_nv_um == 0.0:
        return 0.0
    offsets = np.linspace(-1.5 * t_pulse_us, 0.75 * t_pulse_us, 37)
    responses = [spin_window_counts(g, b, m, t_pulse_us, off, window_us) for off in offsets]
    snrs = [-math.inf if r.dark else r.contrast * math.sqrt(r.n_bright) for r in responses]
    best = int(np.argmax(snrs))  # the first of equal figures
    responses[best].lit()  # dark at every offset: refused
    return float(offsets[best])
