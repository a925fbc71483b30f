"""Strobed scanning-confocal image simulation with rotation-blur mechanisms.

A stationary focus is raster-scanned while the illumination is strobed once
per revolution at a delay ``t_phi`` after the trigger edge, freezing each
emitter at a fixed rotation phase.  Two noise mechanisms blur the strobed
spot: cycle-to-cycle jitter of the rotation period displaces the frozen
phase along the trajectory (azimuthal blur), and wobble of the rotation
axis displaces the whole orbit (mostly radial blur).  The finite strobe
length additionally smears the spot along an arc.

A pixel's expected count lambda is a sum of i.i.d. per-cycle terms, so
the render needs only their mean and variance, which every pixel shares
the form of: the wobble integral is closed-form (Gaussian radius, Gaussian
PSF), and the period draws are integrated by quadrature whose node count
follows from the jitter arc over the PSF width; a short arc takes the
fewest Gauss-Hermite nodes that keep both moments within 1e-8 of their
peaks.  Counts are Poisson in a
Gamma-distributed lambda with those moments, drawn over the whole image
from one generator seeded by the image seed.  Each quadrature node's
rotor angle gets one sin/cos pair, shared by all emitters: since
|R(p) a - b| = |a - R(-p) b|, the pixel is rotated into each emitter's
frame (by minus its orbit phase p) instead of rotating every orbit sample.
A (pixel, node) candidate enters only with a strobe sample above e^-40
of its peak, and both moments sum one block of samples, added in order:
those of the one emitter that reaches the candidate, or all samples where
several do.  A geometric prefilter finds, per emitter, the candidates its
arc can reach.  One loop body evaluates them all: first those admitted
for several emitters, on every sample, then each emitter's own, on that
emitter's samples alone.
Widths are quoted in the 1/e^2 convention: a profile exp(-2 d^2 / sigma^2)
has width sigma.  The spot fit is separable, amplitude x Gaussian basis +
background: the variable-projection core of every fit
(:func:`lsq.fit_separable`) searches (m_r, m_a, sigma_r, sigma_a), the
centre on the spot's own radial and azimuthal axes, from the basis and its
exact derivative rows, and the fit is refused at a singular Jacobian like
every fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from . import lsq
from .config import DOMAINS, RotorGeometry, StrobeConfig, check_pulse_in_rotation, check_value
from .errors import FitError, ValidationError, check_expected_counts
from .geometry import TWO_PI

# Strobe samples (cycles x SUBSTEPS) one pixel may integrate: ~200x the
# default 200 ms dwell at 3.33 kHz.
MAX_STROBE_SAMPLES = 1_000_000
# Quadrature nodes over one cycle's period draws.  The strobed arc over the
# PSF width sets the count: 2 for a strobe at the trigger edge (4 with no
# wobble), 19 at the default 150 us, ~1200 at 150 us with jitter_frac 0.1
# and ~2300 for an emitter 1 mm off the axis.
MAX_PERIOD_NODES = 20_000
# 1/e^2 width of the lateral point response, um; a depth ("xz") scan's axial
# response is AXIAL_PSF_FACTOR times wider.
PSF_WIDTH_UM = 0.3
AXIAL_PSF_FACTOR = 3.0
# Points each strobe is followed at along its arc.
SUBSTEPS = 7
# Half the side of the window a spot-width fit takes around its centre, um.
SPOT_FIT_RADIUS_UM = 2.5

# P(|Z| > 6.5) ~ 8e-11 for a standard normal Z: the quadrature's range.
_Z_TAIL = 6.5
# Gauss-Hermite is used while the arc formula 3 + 7 r + 8 r^2 (r the arc
# per unit z over the PSF standard deviation), which puts the error of a
# Gaussian arc profile below 1e-8 of its peak, asks at most this many
# nodes; the rule then takes the fewest nodes, up to that count, that keep
# a cycle's mean and variance within _MOMENT_TOL of their peaks
# (:func:`_hermite_count`).  Beyond, composite Gauss-Legendre is cheaper:
# 12 nodes over a panel that sweeps at most _GL_PANEL PSF standard
# deviations of arc (and is never wider than _GL_PANEL_MAX in z), fewer,
# down to 4, over a panel cut short by a kink, which also puts a Gaussian
# arc profile's error below 1e-8 of its peak.
_GH_MAX_NODES = 64
_GL_PANEL = 6.0
_GL_PANEL_MAX = 4.25
_GL_NODES = 12
_GL_MIN_NODES = 4
# The lowest z1 nodes of a spilling window, this much of the weight
# together, keep p2 = T: each cycle term lies in [0, c], so no pixel's
# moments move by more than this fraction of c (seen: < 1e-8 of the peak
# at jitter_frac 0.1, where the spill carries 4e-7 of the weight).
_RARE = 1e-6
# Floats in one chunk's largest temporary (256 kB): bounds the peak memory.
_BLOCK_ELEMENTS = 1 << 15
# The Gauss-Hermite count's target, and the pixel offsets it is checked at:
# a lattice of this step (PSF standard deviations) reaching this far past
# each strobe sample's path, and radial offsets out to 4 sqrt(1 + 2q), q the
# wobble variance over the PSF's.
_MOMENT_TOL = 1e-8
_SIZE_STEP = 0.25
_SIZE_REACH = 6.0
_RADIAL_OFFSETS = np.linspace(0.0, 4.0, 33)


@dataclass(frozen=True)
class ScanGrid:
    """Raster extents (um), pixel step and per-pixel dwell time.

    ``plane`` selects a lateral x-y scan or an x-z depth slice at y = 0;
    the second range is the y extent for "xy" and the z extent for "xz".
    Depth scans use an axially elongated response and are qualitative only.
    """

    x_range_um: tuple[float, float]
    y_range_um: tuple[float, float]
    step_um: float = 0.2
    dwell_ms: float = 200.0
    plane: str = "xy"

    def __post_init__(self):
        for name in ("x_range_um", "y_range_um"):
            lo, hi = getattr(self, name)
            check_value(name, lo)
            check_value(name, hi)
            if hi <= lo:
                flags = DOMAINS[name].flag
                raise ValidationError(f"{name} ({flags}) = ({lo:g}, {hi:g}) must be an increasing (min, max) pair")
        check_value("step_um", self.step_um)
        check_value("dwell_ms", self.dwell_ms)
        if self.plane not in ("xy", "xz"):
            raise ValidationError("plane (--plane) must be 'xy' or 'xz'")

    def _axis_size(self, range_um: tuple[float, float]) -> int:
        lo, hi = range_um
        return int(math.floor((hi - lo) / self.step_um + 1e-9)) + 1

    def _axis_um(self, range_um: tuple[float, float]) -> np.ndarray:
        return range_um[0] + self.step_um * np.arange(self._axis_size(range_um))

    @property
    def x_coords_um(self) -> np.ndarray:
        return self._axis_um(self.x_range_um)

    @property
    def y_coords_um(self) -> np.ndarray:
        return self._axis_um(self.y_range_um)

    @property
    def n_pixels(self) -> int:
        """Pixel count from the axis sizes alone, so a budget check allocates nothing."""
        return self._axis_size(self.x_range_um) * self._axis_size(self.y_range_um)


@dataclass(frozen=True)
class Emitter:
    """Point emitter: (x, y) position at the trigger edge and stationary peak brightness."""

    position_um: tuple[float, float]
    brightness_cps: float = 1e5

    def __post_init__(self):
        if len(self.position_um) != 2:
            raise ValidationError(f"position_um must be an (x, y) pair, got {self.position_um!r}")
        for v in self.position_um:
            check_value("position_um", v)
        check_value("beam.peak_counts_stationary_cps", self.brightness_cps, "brightness_cps (--emitters)")


@dataclass(frozen=True)
class EmitterSet:
    emitters: tuple[Emitter, ...]

    def __post_init__(self):
        if not self.emitters:
            raise ValidationError("EmitterSet needs at least one emitter")

    @classmethod
    def single(cls, x_um: float, y_um: float, brightness_cps: float = 1e5) -> "EmitterSet":
        return cls((Emitter((x_um, y_um), brightness_cps),))


@dataclass(frozen=True, eq=False)
class StrobedImage:
    """Rendered count map with its pixel coordinates and render metadata."""

    counts: np.ndarray  # shape (ny, nx), row-major in y
    x_um: np.ndarray  # ascending, as y_um: a spot fit's window is one range of each
    y_um: np.ndarray
    duty_cycle: float
    meta: dict = field(default_factory=dict)


def angular_smear(g: RotorGeometry, t_pulse_us: float) -> float:
    """Angle in degrees swept by the rotor during one strobe window."""
    check_value("strobe.t_pulse_us", t_pulse_us)
    return 360.0 * t_pulse_us * 1e-6 * g.f_rot_hz


def _cycles(grid: ScanGrid, g: RotorGeometry) -> int:
    """Strobe cycles (one per revolution) a pixel integrates over its dwell.

    More than MAX_STROBE_SAMPLES strobe samples per pixel are refused.
    """
    n_cycles = max(1, round(float(grid.dwell_ms) * 1e-3 * float(g.f_rot_hz)))
    if n_cycles * SUBSTEPS > MAX_STROBE_SAMPLES:
        raise ValidationError(
            f"dwell_ms (--dwell-ms) = {grid.dwell_ms:g} at geometry.f_rot_hz = {g.f_rot_hz:g} gives "
            f"{n_cycles:.3g} strobe cycles x {SUBSTEPS} samples per pixel, more than "
            f"{MAX_STROBE_SAMPLES}; shorten the dwell"
        )
    return n_cycles


class _TooManyNodes(Exception):
    """The period quadrature would exceed MAX_PERIOD_NODES."""


@functools.lru_cache(maxsize=None)  # n <= _GH_MAX_NODES + 8
def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    z, w = hermegauss(n)
    return z, w / math.sqrt(TWO_PI)


_gauss_legendre = functools.lru_cache(maxsize=64)(leggauss)
# the sample pairs i <= j of a block, in triangle order
_triangle = functools.lru_cache(maxsize=16)(np.triu_indices)


def _hermite_profiles(base, move, jitter, n, x) -> tuple[np.ndarray, np.ndarray]:
    """E[S] and E[S^2] at pixel offsets ``x`` by the n-node Gauss-Hermite rule.

    S(z) = mean_k exp(-(x - base_k - move_k / max(1 + jitter z, 0.1))^2 / 2):
    one emitter's strobe samples, in PSF standard deviations along the arc.
    """
    z, w = _gauss_hermite(n)
    pos = base + move / np.maximum(1.0 + jitter * z, 0.1)[:, None]  # (n, samples)
    g = x - pos[:, :, None]  # (n, samples, x), worked on in place
    g *= g
    g *= -0.5
    np.maximum(g, -700.0, out=g)  # exp(-700) is far below the target, and exp's underflow path is slow
    s = np.exp(g, out=g).sum(axis=1) / base.size  # (n, x)
    return w @ s, w @ (s * s)


@functools.lru_cache(maxsize=256)
def _hermite_count(base: tuple, move: tuple, wobble: float, jitter: float, cap: int) -> int:
    """The fewest Gauss-Hermite nodes, at most ``cap``, that keep a cycle's moments within _MOMENT_TOL of their peaks.

    Strobe sample k sits base_k + move_k / (1 + jitter z) PSF standard
    deviations along the arc (the strobe angle goes as T / period).  A pixel
    at lateral offset x and radial offset a, in the same units, sees the
    cycle term's mean A1(a) E[S] and second moment A2(a) E[S^2]
    (:func:`_hermite_profiles`), with the wobble factors of
    :func:`_pixel_moments` at q = ``wobble`` = s^2 / v:
    A1 = exp(-a^2 / 2(1 + q)) / sqrt(1 + q) and
    A2 = exp(-a^2 / (1 + 2q)) / sqrt(1 + 2q).  The errors of the mean and
    of the variance A2 E[S^2] - (A1 E[S])^2, worst over a lattice of (x, a),
    are taken against a rule of cap + 8 nodes: the map 1 / (1 + jitter z)
    puts S beyond a closed form, and at the trigger edge the error is 2.5
    times that of a linearised arc.  Bisection from cap - 1 finds the count; a
    large arc misses the target at cap - 1 and stops there.
    """
    base, move = np.array(base), np.array(move)
    # each sample's path over |z| <= _Z_TAIL, about where it sits at z = 0;
    # the longest path sets the lattice points per sample (it is at most
    # 13 r <= 31 long, as r <= 2.35 at 64 nodes), so a sample however far
    # off asks for no more
    back = move / (1.0 + jitter * _Z_TAIL) - move
    ahead = move / (1.0 - jitter * _Z_TAIL) - move
    first = np.floor((base + move + back - _SIZE_REACH) / _SIZE_STEP)
    count = math.ceil(float(np.max(ahead - back) + 2.0 * _SIZE_REACH) / _SIZE_STEP) + 1
    # a set, not np.unique: numpy's first sort maps in ~1 MB of kernels
    x = _SIZE_STEP * np.array(sorted(set((first[:, None] + np.arange(count)).ravel().tolist())))
    m1, m2 = _hermite_profiles(base, move, jitter, cap + 8, x)
    a_sq = _RADIAL_OFFSETS**2 * (1.0 + 2.0 * wobble)
    f1 = (np.exp(-a_sq / (1.0 + wobble)) / (1.0 + wobble))[:, None]  # A1^2
    f2 = (np.exp(-a_sq / (1.0 + 2.0 * wobble)) / math.sqrt(1.0 + 2.0 * wobble))[:, None]  # A2
    var_peak = (f2 * m2 - f1 * m1**2).max()

    def meets(n):
        q1, q2 = _hermite_profiles(base, move, jitter, n, x)
        var_err = f2 * (q2 - m2) - f1 * (q1**2 - m1**2)
        return (np.abs(q1 - m1).max() <= _MOMENT_TOL * m1.max()
                and np.abs(var_err).max() <= _MOMENT_TOL * var_peak)

    lo, hi = 0, cap  # lo nodes miss the target, hi are taken
    n = cap - 1
    while n > lo:
        lo, hi = (lo, n) if meets(n) else (n, hi)
        n = (lo + hi) // 2
    return hi


def _normal_rule(
    scale: float, floor: float, z_floor: float, jitter: float, breaks, limit: int, samples: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for E[f(Z)], Z ~ N(0, 1), with weights summing to ~1.

    ``f`` depends on a period T (1 + jitter Z) clipped at 0.1 T, so below
    z_clip = -0.9 / jitter it is constant: that mass is one node.  Above,
    f sweeps scale / (1 + jitter z)^2 PSF standard deviations of arc per
    unit z (the strobe angle goes as T / period), at least ``floor`` below
    ``z_floor``, and it may have kinks at ``breaks``.  Without a kink and
    with a short arc, probabilists' Gauss-Hermite integrates the normal
    weight exactly and needs the fewest nodes: no more than the arc formula
    asks, and where no sample sweeps at the ``floor`` rate, only as many as
    keep the moments on target (:func:`_hermite_count` of ``samples``, the
    strobe samples' (base, move) and the wobble).  Otherwise composite
    Gauss-Legendre panels, split at every kink, each sweep at most
    _GL_PANEL standard deviations at their steep left end, so their count
    follows the arc the strobe actually sweeps (Gauss-Hermite's grows as
    its square, and ``hermegauss`` returns NaN weights at a few hundred
    nodes).  A rule of more than ``limit`` nodes raises _TooManyNodes
    before it is built.
    """
    z_clip = -0.9 / jitter
    lo = max(-_Z_TAIL, z_clip)
    inside = sorted(b for b in breaks if lo < b < _Z_TAIL)
    ratio = max(scale / (1.0 + jitter * lo) ** 2, floor if lo < z_floor else 0.0)
    # beyond _GH_MAX_NODES the ratio, squared or not, asks more than Gauss-Hermite takes
    r = min(ratio, _GH_MAX_NODES)
    n_gh = 3.0 + 7.0 * r + 8.0 * r * r
    if lo == -_Z_TAIL and not inside and n_gh <= _GH_MAX_NODES:
        n = math.ceil(n_gh)
        if lo >= z_floor:
            n = _hermite_count(*samples, jitter, n)
        return _gauss_hermite(n)
    zs, ws = [], []
    used = 0
    x = lo
    for b in [*inside, _Z_TAIL]:
        while x < b:
            ratio = max(
                scale / (1.0 + jitter * x) ** 2, floor if x < z_floor else 0.0, _GL_PANEL / _GL_PANEL_MAX
            )
            end = min(b, x + _GL_PANEL / ratio)
            # a panel cut short by a kink sweeps less arc and takes fewer nodes
            n = max(_GL_MIN_NODES, math.ceil(_GL_NODES * (end - x) * ratio / _GL_PANEL))
            used += n
            if used > limit:
                raise _TooManyNodes
            gz, gw = _gauss_legendre(n)
            zs.append(x + 0.5 * (end - x) * (gz + 1.0))
            ws.append(0.5 * (end - x) * gw)
            x = end
    z = np.concatenate(zs)
    w = np.concatenate(ws) * np.exp(-0.5 * z**2) / math.sqrt(TWO_PI)
    if lo > -_Z_TAIL:  # the clipped periods
        z = np.concatenate([[z_clip], z])
        w = np.concatenate([[0.5 * math.erfc(-z_clip / math.sqrt(2.0))], w])
    return z, w


def _period_nodes(
    t_in: np.ndarray, t_rot: float, jitter: float, arc_ratio: float, wobble: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature over one cycle's two period draws: (z1, z2, weight) per node.

    A period is T (1 + jitter z), clipped at 0.1 T.  At a delay ``t`` into
    the window the strobe sits at angle 2 pi t / p1, or, once the window
    spills past the next edge (p1 <= t), at 2 pi (1 + (t - p1) / p2).  The
    spill edge of each sample is a kink in z1, so it splits the panels.
    Only z1 nodes where some sample spills carry a second node set over
    z2; elsewhere p2 does not enter.  ``arc_ratio`` is the orbit radius
    over the PSF's standard deviation and ``wobble`` the wobble variance
    over the PSF's.  More than MAX_PERIOD_NODES nodes in all raise
    _TooManyNodes before they are built.
    """
    if jitter == 0.0:
        return np.zeros(1), np.zeros(1), np.ones(1)
    turn = arc_ratio * TWO_PI  # arc of a whole turn, in PSF standard deviations
    arc = turn * jitter  # arc per unit z of a whole turn, at the mean period
    p_min = t_rot * max(1.0 - jitter * _Z_TAIL, 0.1)
    t_max = float(t_in.max())
    spills = t_max >= p_min
    # below the last spill edge a spilled sample sweeps 2 pi T / p2 per unit
    # z1, fastest at the shortest p2
    with np.errstate(over="ignore"):  # a subnormal jitter puts an edge at +-inf, past every node
        spill_edges = (t_in / t_rot - 1.0) / jitter
    z1, w1 = _normal_rule(
        arc * t_max / t_rot, arc * t_rot / p_min, spill_edges.max(), jitter, spill_edges, MAX_PERIOD_NODES,
        ((0.0,) * t_in.size, tuple(turn * t_in / t_rot), wobble),
    )
    if not spills:
        return z1, np.zeros_like(z1), w1
    # The spill arc 2 pi (t - p1) / p2 is short, since t - p1 is a few
    # jitter periods, so each z1 node gets its own second node set.  The
    # earliest nodes, _RARE of the weight together, keep p2 = T.
    p1 = t_rot * np.maximum(1.0 + jitter * z1, 0.1)
    rare = np.cumsum(w1) < _RARE  # z1 ascends
    zs, z2s, ws = [], [], []
    used = 0
    for z, w, p, r in zip(z1, w1, p1, rare):
        if p > t_max or r:
            z2, w2 = np.zeros(1), np.ones(1)
        else:
            # a spilled sample moves on from the full turn as (t - p1) / p2;
            # the others stay where p1 put them
            spilled = t_in >= p
            base = tuple(turn * np.where(spilled, 1.0, t_in / p))
            move = tuple(turn * np.where(spilled, t_in - p, 0.0) / t_rot)
            z2, w2 = _normal_rule(
                arc * (t_max - p) / t_rot, 0.0, -math.inf, jitter, (), MAX_PERIOD_NODES - used, (base, move, wobble)
            )
        used += z2.size
        if used > MAX_PERIOD_NODES:
            raise _TooManyNodes
        zs.append(np.full(z2.size, z))
        z2s.append(z2)
        ws.append(w * w2)
    return np.concatenate(zs), np.concatenate(z2s), np.concatenate(ws)


def _pair_sums(half, a, near, coef, cross) -> np.ndarray:
    """Per candidate, the sum over sample pairs i <= j of coef_ij exp(half_i + half_j + cross a_i a_j).

    ``half``, ``a`` and ``near`` are (samples, candidates); a pair with a
    sample not ``near`` adds an exact zero.  The pair terms are built row
    by row of the triangle i <= j and added one after another in that
    order, as bincount adds them (:func:`_column_sums`).  In a block of
    several emitters' samples, a sample that no candidate reaches is
    dropped with its pairs before any is evaluated: adding their exact
    zeros moves no bit of a sum.  One emitter's block is kept whole, as
    the check costs it more than it saves.
    """
    if half.shape[0] > SUBSTEPS:
        reached = near.any(axis=1)
        if not reached.all():
            i, j = _triangle(half.shape[0])
            coef = coef[reached[i] & reached[j]]
            half, a, near = half[reached], a[reached], near[reached]
    n = half.shape[0]
    exponent = np.empty((n * (n + 1) // 2, half.shape[1]))
    both = np.empty(exponent.shape, dtype=bool)
    ca = cross * a
    k = 0
    for i in range(n):
        rows = slice(k, k + n - i)
        np.add(half[i], half[i:], out=exponent[rows])
        exponent[rows] += ca[i] * a[i:]
        np.logical_and(near[i], near[i:], out=both[rows])
        k += n - i
    terms = np.exp(exponent, out=exponent)
    terms *= both  # an exact 0 off ``both``: the exponent, a sum of negative squares, has a finite exp
    terms *= coef[:, None]
    return _column_sums(terms)


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Each column's sum, its rows added one after another in order.

    The render's one summation rule: every block's samples (the mean) and
    pair terms (the variance) are added so.  numpy sums a C-ordered array
    over its first axis row by row, but sums a lone column, or the columns
    of an F-ordered array, pairwise: ``terms`` must be C-ordered, and a
    lone column is accumulated.
    """
    return terms.sum(axis=0) if terms.shape[1] != 1 else np.add.accumulate(terms[:, 0])[-1:]


def _arc_names(radius_um: float, wobble_um: float) -> tuple[str, str]:
    """What sets the strobed arc, the orbit or the wobble, and the knob that lowers it.

    Whichever is wider sets the arc and so the render's node count; the
    node-count refusal names both.
    """
    if radius_um >= 3.0 * wobble_um:
        return f"an emitter at radius {radius_um:g} um", "the emitter radius (--emitters, geometry.r_nv_um)"
    return f"strobe.wobble_amp_um = {wobble_um:g}", "strobe.wobble_amp_um"


def _pixel_moments(
    grid: ScanGrid, emitters: EmitterSet, g: RotorGeometry, strobe: StrobeConfig, stationary: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of every pixel's expected count, shape (ny, nx) each.

    A pixel's rate is a sum of i.i.d. cycle terms X = sum_e c_e mean_k
    psf(d_ek), so E[lambda] = n E[X] and Var[lambda] = n Var[X].  Wobble
    moves the orbit radius by w ~ N(0, s^2); with the PSF exp(-d^2 / 2v),
    v = psf^2 / 4, and the pixel at radial offset a and distance h from
    the line of sight at the strobe angle, d^2 = (a + w)^2 + h^2, so

        E_w exp(-d^2/2v) = sqrt(v/(v+s^2)) exp(-h^2/2v - a^2/2(v+s^2)),
        E_w [pair] = sqrt(v/(v+2s^2)) exp(-(h1^2+h2^2)/2v
                     - (a1+a2)^2/4(v+2s^2) - (a1-a2)^2/4v),

    the pair term kept as one exponent, which cannot overflow.  The period
    draws enter through :func:`_period_nodes`.  Only pixel-node pairs with
    a strobe sample above e^-40 of its peak at the pixel enter either
    moment, and only sample pairs whose samples both are.  The mean sums
    the same block of samples whose pairs give the variance: a candidate
    that one emitter alone reaches takes that emitter's block of SUBSTEPS
    samples, and one that several emitters reach takes all samples and
    the whole triangle of their pairs.  One loop body evaluates the
    candidates on a slice of the emitters: first those the geometric
    prefilter admits for several emitters, on every sample, where a
    candidate that one emitter alone reaches joins that emitter's
    candidates; then each emitter's candidates, on its samples alone.
    Every block is summed by one rule (:func:`_column_sums`): the pairs in
    triangle order, a skipped pair as an exact zero, which is the order in
    which a bincount over the surviving pairs adds them, and the samples
    in their order, so the grouping moves no bit of either moment.
    Candidates are taken in chunks that bound the temporaries and summed
    in (pixel, node) order, so the sums do not depend on the chunk size
    either.
    """
    xs, ys = grid.x_coords_um, grid.y_coords_um
    n_cycles = _cycles(grid, g)
    depth_scan = grid.plane == "xz"
    pos0 = np.array([e.position_um for e in emitters.emitters])  # (n_e, 2)
    c = np.array([e.brightness_cps for e in emitters.emitters]) * (strobe.t_pulse_us * 1e-6)
    check_expected_counts(
        c.sum() * n_cycles, "the emitter brightness (beam.peak_counts_stationary_cps) or dwell_ms"
    )
    # an "xz" slice lies in the plane y = 0, and the pixel y is the focus depth
    lat_y = np.zeros_like(ys) if depth_scan else ys
    depth_arg = -2.0 * ys**2 / (AXIAL_PSF_FACTOR * PSF_WIDTH_UM) ** 2 if depth_scan else np.zeros_like(ys)
    if stationary:
        d2 = (pos0[:, 0] - xs[:, None]) ** 2 + (pos0[:, 1] - lat_y[:, None, None]) ** 2  # (ny, nx, n_e)
        psf = np.exp(-2.0 * d2 / PSF_WIDTH_UM**2 + depth_arg[:, None, None])
        mean = np.sum(c * psf, axis=2) * n_cycles
        return mean, np.zeros_like(mean)

    v = PSF_WIDTH_UM**2 / 4.0
    s2 = strobe.wobble_amp_um**2
    radii = np.linalg.norm(pos0, axis=1)
    phases0 = np.arctan2(pos0[:, 1], pos0[:, 0])
    t_rot = g.t_rot_us
    full_turns = math.floor(strobe.t_phi_us / t_rot)
    u = (np.arange(SUBSTEPS) + 0.5) * (strobe.t_pulse_us / SUBSTEPS)
    t_in = strobe.t_phi_us - full_turns * t_rot + u  # time since the arming edge
    arc_ratio = (float(radii.max()) + 3.0 * math.sqrt(v + s2)) / math.sqrt(v)
    try:
        z1, z2, w = _period_nodes(t_in, t_rot, strobe.jitter_frac, arc_ratio, s2 / v)
    except _TooManyNodes:
        arc_input, knob = _arc_names(max(math.hypot(*e.position_um) for e in emitters.emitters), strobe.wobble_amp_um)
        raise ValidationError(
            f"strobe.jitter_frac = {strobe.jitter_frac:g} with {arc_input} spreads the strobed "
            f"arc over too many PSF widths: the period draws need more than {MAX_PERIOD_NODES} "
            f"quadrature nodes per cycle; lower strobe.jitter_frac or {knob}"
        ) from None
    p1 = t_rot * np.maximum(1.0 + strobe.jitter_frac * z1, 0.1)[:, None]
    p2 = t_rot * np.maximum(1.0 + strobe.jitter_frac * z2, 0.1)[:, None]
    theta = TWO_PI * np.where(t_in < p1, t_in / p1, 1.0 + (t_in - p1) / p2)  # (nodes, SUBSTEPS)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    # |R(p) a - b| = |a - R(-p) b|: the pixel is rotated into each emitter's frame
    gx = np.broadcast_to(xs, (ys.size, xs.size)).ravel()
    gy = np.broadcast_to(lat_y[:, None], (ys.size, xs.size)).ravel()
    cos_p, sin_p = np.cos(phases0)[:, None], np.sin(phases0)[:, None]
    px = cos_p * gx + sin_p * gy  # (n_e, pixels)
    py = cos_p * gy - sin_p * gx
    q2 = px**2 + py**2
    n_e = radii.size
    ce = c / SUBSTEPS  # each sample's weight, per emitter
    # the weights c_i c_j (2 off the diagonal) of the sample pairs i <= j of
    # each emitter, and last of all samples, in triangle order
    coefs = []
    for weights in [*(np.full(SUBSTEPS, x) for x in ce), np.repeat(ce, SUBSTEPS)]:
        i, j = _triangle(weights.size)
        coefs.append(weights[i] * weights[j] * np.where(i == j, 1.0, 2.0))
    cos_k, sin_k = cos_t.T.copy(), sin_t.T.copy()  # (SUBSTEPS, nodes)

    # A sample at lab angle alpha is e^-40 below its peak at the pixel
    # (rho, psi) unless rho |sin(alpha - psi)| < sqrt(80 v), and, when every
    # orbit is wider than the radial reach sqrt(80 (v + 2 s^2)), unless
    # rho cos(alpha - psi) > 0.  A node's samples lie on the arc from its
    # first to its last (the angle grows with the delay); along an arc
    # shorter than pi both tests pass somewhere only if they pass at an
    # end or the arc crosses the pixel's line of sight.  A pixel-node pair
    # that fails for every emitter is dropped before any sample is
    # evaluated, and one that passes for one emitter only is evaluated on
    # that emitter's samples alone.
    reach = math.sqrt(80.0 * v)
    one_sided = radii.min() > math.sqrt(80.0 * (v + 2.0 * s2))
    long_arc = float(np.max(theta[:, -1] - theta[:, 0])) >= math.pi
    first, last = theta[:, :1] + phases0, theta[:, -1:] + phases0  # (nodes, n_e)
    cos_f, sin_f, cos_l, sin_l = np.cos(first), np.sin(first), np.cos(last), np.sin(last)

    # Each candidate's samples then enter: a candidate whose samples all
    # fall e^-40 below the peak adds an exact zero, and so does each sample
    # pair with a sample that does, since the pair exponent is at most the
    # sum of the samples' g.  A pixel block's terms are summed by one
    # bincount in (pixel, node) order, so the sums do not depend on the
    # block size.
    cross = 1.0 / (2.0 * v) - 1.0 / (2.0 * (v + 2.0 * s2))
    step = max(1, _BLOCK_ELEMENTS // cos_f.size)
    m1 = np.zeros(gx.size)
    m2 = np.zeros(gx.size)
    for lo in range(0, gx.size, step):
        x, y = gx[lo : lo + step, None, None], gy[lo : lo + step, None, None]
        lat_f, lat_l = x * sin_f - y * cos_f, x * sin_l - y * cos_l  # (pixels, nodes, n_e)
        near = (lat_f * lat_l <= 0.0) | (np.minimum(np.abs(lat_f), np.abs(lat_l)) < reach) | long_arc
        if one_sided:
            near &= (x * cos_f + y * sin_f > 0.0) | (x * cos_l + y * sin_l > 0.0) | long_arc
        admitted = near.sum(axis=2)
        pix, node = np.nonzero(admitted)
        # the one emitter each candidate is evaluated for, or n_e for all of them
        owner = np.where(admitted[pix, node] == 1, near[pix, node].argmax(axis=1), n_e)
        one, pair = np.zeros(pix.size), np.zeros(pix.size)
        # those admitted for several emitters first, on every sample: one
        # that a single emitter reaches joins that emitter's candidates, one
        # that several reach takes all samples and the whole triangle
        for e in [n_e, *range(n_e)]:
            es = slice(0, n_e) if e == n_e else slice(e, e + 1)
            cands = np.flatnonzero(owner == e)
            chunk = max(1, _BLOCK_ELEMENTS // coefs[e].size)
            ci = np.repeat(ce[es], SUBSTEPS)[:, None]  # each sample's weight
            for k0 in range(0, cands.size, chunk):
                r = cands[k0 : k0 + chunk]
                p, n = pix[r] + lo, node[r]
                qu = (np.take(px[es], p, axis=1)[:, None] * np.take(cos_k, n, axis=1)
                      + np.take(py[es], p, axis=1)[:, None] * np.take(sin_k, n, axis=1))
                a = radii[es, None, None] - qu  # (emitters, SUBSTEPS, candidates)
                h2 = np.take(q2[es], p, axis=1)[:, None] - qu**2
                ok = -h2 / (2.0 * v) - a**2 / (2.0 * (v + 2.0 * s2)) > -40.0
                reached = ok.any(axis=1)  # (emitters, candidates)
                n_reached = reached.sum(axis=0)
                if e == n_e:
                    owner[r] = np.where(n_reached == 1, reached.argmax(axis=0), n_e)
                # kept: those several emitters reach in the first pass, and
                # those the pass's emitter reaches in its own
                k = np.flatnonzero(n_reached > (e == n_e))
                if not k.size:
                    continue
                # np.take keeps the columns C-ordered, as _column_sums needs
                a, h2, ok = (np.take(z.reshape(-1, r.size), k, axis=1) for z in (a, h2, ok))
                r, wn = r[k], w[n[k]]
                one[r] = _column_sums(np.exp(-h2 / (2.0 * v) - a**2 / (2.0 * (v + s2))) * ci) * wn
                # the pair exponent, expanded: half[i] + half[j] + cross a_i a_j
                half = -h2 / (2.0 * v) - a**2 * (1.0 / (4.0 * (v + 2.0 * s2)) + 1.0 / (4.0 * v))
                pair[r] = _pair_sums(half, a, ok, coefs[e], cross) * wn
        m1[lo : lo + step] = np.bincount(pix, weights=one, minlength=x.shape[0])
        m2[lo : lo + step] = np.bincount(pix, weights=pair, minlength=x.shape[0])
    m1 *= math.sqrt(v / (v + s2))
    m2 *= math.sqrt(v / (v + 2.0 * s2))
    dz = np.repeat(np.exp(depth_arg), xs.size)
    mean = n_cycles * m1 * dz
    var = n_cycles * np.maximum(m2 - m1**2, 0.0) * dz**2
    return mean.reshape(ys.size, xs.size), var.reshape(ys.size, xs.size)


def render_image(
    grid: ScanGrid,
    emitters: EmitterSet,
    g: RotorGeometry,
    strobe: StrobeConfig,
    seed: int = 0,
    stationary: bool = False,
    max_pixels: int = 250_000,
) -> StrobedImage:
    """Render a strobed confocal raster scan from each pixel's count moments.

    Every pixel integrates ``dwell_ms`` of strobes (one per revolution).
    Each cycle draws its own period jitter and wobble displacement, and
    the emitter is followed along its strobed arc at SUBSTEPS points;
    the pixel's expected count lambda is the sum over the cycles.  Its
    mean and variance are computed exactly (:func:`_pixel_moments`), lambda
    is drawn from the Gamma distribution with those moments and the
    counts are Poisson in lambda (negative-binomial overall).  With
    ``stationary=True`` the diamond does not rotate (strobing continues at
    the same duty cycle): emitters stay at their trigger positions,
    jitter, wobble and smear do not apply, and the counts are Poisson in
    the fixed lambda.  One generator seeded by ``seed`` draws the whole
    image.

    For an "xz" grid the scan slices the depth at y = 0 with an axial
    response AXIAL_PSF_FACTOR times wider than the lateral one.
    """
    if grid.n_pixels > max_pixels:
        nx, ny = grid._axis_size(grid.x_range_um), grid._axis_size(grid.y_range_um)
        raise ValidationError(
            f"scan grid has {nx:.3g} x {ny:.3g} pixels, exceeding the configured budget of "
            f"{max_pixels} (protocol.max_image_pixels); shrink the range (--x-min, --x-max, "
            "--y-min, --y-max) or increase step_um (--step)"
        )
    check_pulse_in_rotation(strobe.t_pulse_us, g)
    n_cycles = _cycles(grid, g)
    with np.errstate(under="ignore"):
        mean, var = _pixel_moments(grid, emitters, g, strobe, stationary)
        rng = np.random.default_rng(seed)
        lam = mean
        spread = (var > 0.0) & (mean > 0.0)
        if spread.any():
            lam = mean.copy()
            lam[spread] = rng.gamma(mean[spread] ** 2 / var[spread], var[spread] / mean[spread])
        counts = rng.poisson(lam)
    return StrobedImage(
        counts=counts,
        x_um=grid.x_coords_um,
        y_um=grid.y_coords_um,
        duty_cycle=strobe.t_pulse_us / g.t_rot_us,
        meta={
            "n_cycles": n_cycles,
            "seed": seed,
            "stationary": stationary,
            "psf_width_um": PSF_WIDTH_UM,
            "t_phi_us": strobe.t_phi_us,
            "t_pulse_us": strobe.t_pulse_us,
            "plane": grid.plane,
            "step_um": grid.step_um,
        },
    )


def _spot_rows(offsets: np.ndarray, rows: np.ndarray, p: np.ndarray) -> None:
    """Fill rows[:5] with the spot basis and its derivative rows at p.

    The basis is u = exp(-2 (dr^2/sr^2 + da^2/sa^2)) at p = (mr, ma, sr,
    sa), with dr, da the pixel offsets (``offsets``, (2, n), the pixels on
    the spot's radial and azimuthal axes) from the centre (mr, ma) on those
    axes.  rows[4] takes u and rows[:4] its derivatives in p: u hr, u ha,
    u hr dr/sr and u ha da/sa, with hr = 4 dr/sr^2 and ha = 4 da/sa^2.
    """
    d, h, u = rows[2:4], rows[:2], rows[4]
    np.subtract(offsets, p[:2, None], out=d)
    np.multiply(d, [[4.0 / p[2] ** 2], [4.0 / p[3] ** 2]], out=h)
    d *= h
    np.exp(-0.5 * (d[0] + d[1]), out=u)
    d /= p[2:4, None]
    rows[:4] *= u


def fit_spot_width(image: StrobedImage, initial_center_um: tuple[float, float]) -> tuple[float, float]:
    """1/e^2 widths (radial, azimuthal) of a spot from a 2-D Gaussian fit.

    The principal axes are taken from the trajectory geometry: radial is
    the direction from the rotation axis (origin) to the spot, azimuthal is
    perpendicular to it.  LM searches the centre, on those axes, and the two
    widths; the amplitude (bounded at 0) and the background are solved
    exactly at each step by variable projection.  Raises FitError with
    residual diagnostics (the centre in x, y) if the fit does not converge,
    or if the amplitude is not 10 standard errors above 0: the window then
    holds no spot.  Raises
    IdentifiabilityError (a FitError) if the Jacobian at the optimum is
    singular, as when a few counts fit a spot narrower than a pixel.
    """
    cx, cy = initial_center_um
    xs, ys = image.x_um, image.y_um
    # the pixels within the radius are one range of each (ascending) axis
    sel_x = np.flatnonzero(np.abs(xs - cx) <= SPOT_FIT_RADIUS_UM)
    sel_y = np.flatnonzero(np.abs(ys - cy) <= SPOT_FIT_RADIUS_UM)
    if sel_x.size < 4 or sel_y.size < 4:
        raise ValidationError("fit window contains too few pixels")
    win_x, win_y = slice(sel_x[0], sel_x[-1] + 1), slice(sel_y[0], sel_y[-1] + 1)
    sub = image.counts[win_y, win_x].astype(float)

    peak_y, peak_x = np.unravel_index(np.argmax(sub), sub.shape)
    if sub[peak_y, peak_x] <= 0:
        raise ValidationError("no counts near the requested centre")

    r_norm = math.hypot(cx, cy)
    u_r = np.array([cx, cy]) / r_norm if r_norm > 1e-9 else np.array([1.0, 0.0])
    axes = np.array([u_r, [-u_r[1], u_r[0]]])  # radial and azimuthal unit vectors

    # pixel coordinates along the radial and azimuthal axes
    offsets = (xs[win_x] * axes[:, :1, None] + ys[win_y, None] * axes[:, 1:, None]).reshape(2, -1)
    # unweighted (sigma 1 on every pixel, so the rows stay raw, in counts):
    # sqrt-count weights bias the widths low at the count levels strobed
    # images reach, because empty wing pixels dominate; weights from the
    # render's model variance would move the widths, which needs a bias
    # study against the known widths first
    rows, _ = lsq.data_rows(4, sub.ravel())
    x0 = np.array([*axes @ (xs[win_x][peak_x], ys[win_y][peak_y]), 0.5, 0.5])
    lm, amp, bg = lsq.fit_separable(rows, functools.partial(_spot_rows, offsets), x0, lo=0.0, max_iter=300)
    u = rows[4]
    # the amplitude's standard error at the fitted shape; Poisson counts
    # vary at least as much as the background
    with np.errstate(divide="ignore", invalid="ignore"):
        amp_se = math.sqrt(max(2.0 * lm.cost / (u.size - 6), bg) / np.sum((u - u.mean()) ** 2))
    if not (lm.converged and amp > 10.0 * amp_se):
        raise FitError(
            f"spot fit {'found no spot' if lm.converged else 'did not converge'}: amplitude "
            f"{amp:.4g} +- {amp_se:.3g} counts, cost={lm.cost:.4g}, params={np.round([*axes.T @ lm.x[:2], *lm.x[2:]], 4).tolist()}"
        )
    # the full Jacobian, in (mr, ma, sr, sa, amplitude, background): an
    # orthogonal map of the centre's (x, y), with the same singular values
    lsq.check_identified(lsq.full_jacobian(rows, amp))
    return abs(float(lm.x[2])), abs(float(lm.x[3]))
