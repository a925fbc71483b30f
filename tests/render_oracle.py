"""Reference moments of ``imaging._pixel_moments``: every candidate, the whole sample triangle.

A rotating pixel's count variance needs sum_{i <= j} c_i c_j E_w[psf_i psf_j]
over the strobe samples (emitter, substep) of every quadrature node.  This
oracle masks all pairs of the triangle for each (pixel, node) candidate,
gathers the survivors with ``np.nonzero`` and sums each candidate's terms
with ``np.bincount``, which adds them one after another in triangle order.
Each candidate's mean is summed over its pair block, by the same rule:
its terms are masked to the samples of the one emitter that reaches it,
or to all samples where several emitters do, and added in order.  It keeps no geometric pre-selection of candidates: every
(pixel, node) pair is evaluated on every emitter's samples and the ones
without a sample above e^-40 of its peak are dropped, as the renderer
drops them, so the renderer's per-emitter prefilter is checked against a
reference without one.  ``imaging._pixel_moments`` must reproduce its mean
and variance bit for bit, so no Gamma or Poisson draw of a rendered image
depends on how the renderer groups its samples and pairs.

``resolve_two_spots`` reads two peaks and the valley between them off a
rendered image (criterion 9's two-emitter resolution).
"""

from __future__ import annotations

import math

import numpy as np

from rotornv.geometry import TWO_PI
from rotornv.imaging import _cycles, _period_nodes

# (pixel, node) candidates per chunk; the sums do not depend on it
_CHUNK = 256


def pixel_moments(grid, emitters, g, strobe, psf_width_um=0.3, substeps=7, axial_psf_factor=3.0):
    """Mean and variance of every rotating pixel's expected count, shape (ny, nx) each."""
    xs, ys = grid.x_coords_um, grid.y_coords_um
    n_cycles = _cycles(grid, g)
    depth_scan = grid.plane == "xz"
    pos0 = np.array([e.position_um for e in emitters.emitters])
    c = np.array([e.brightness_cps for e in emitters.emitters]) * (strobe.t_pulse_us * 1e-6)
    lat_y = np.zeros_like(ys) if depth_scan else ys
    depth_arg = -2.0 * ys**2 / (axial_psf_factor * psf_width_um) ** 2 if depth_scan else np.zeros_like(ys)

    v = psf_width_um**2 / 4.0
    s2 = strobe.wobble_amp_um**2
    radii = np.linalg.norm(pos0, axis=1)
    phases0 = np.arctan2(pos0[:, 1], pos0[:, 0])
    t_rot = g.t_rot_us
    full_turns = math.floor(strobe.t_phi_us / t_rot)
    u = (np.arange(substeps) + 0.5) * (strobe.t_pulse_us / substeps)
    t_in = strobe.t_phi_us - full_turns * t_rot + u
    arc_ratio = (float(radii.max()) + 3.0 * math.sqrt(v + s2)) / math.sqrt(v)
    z1, z2, w = _period_nodes(t_in, t_rot, strobe.jitter_frac, arc_ratio, s2 / v)
    p1 = t_rot * np.maximum(1.0 + strobe.jitter_frac * z1, 0.1)[:, None]
    p2 = t_rot * np.maximum(1.0 + strobe.jitter_frac * z2, 0.1)[:, None]
    theta = TWO_PI * np.where(t_in < p1, t_in / p1, 1.0 + (t_in - p1) / p2)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    gx = np.broadcast_to(xs, (ys.size, xs.size)).ravel()
    gy = np.broadcast_to(lat_y[:, None], (ys.size, xs.size)).ravel()
    px = gx[:, None] * np.cos(phases0) + gy[:, None] * np.sin(phases0)
    py = gy[:, None] * np.cos(phases0) - gx[:, None] * np.sin(phases0)
    q2 = np.repeat(px**2 + py**2, substeps, axis=1)
    n_s = radii.size * substeps
    ci = np.repeat(c / substeps, substeps)
    r_ek = np.repeat(radii, substeps)
    ii, jj = np.triu_indices(n_s)
    coef = ci[ii] * ci[jj] * np.where(ii == jj, 1.0, 2.0)
    cross = 1.0 / (2.0 * v) - 1.0 / (2.0 * (v + 2.0 * s2))

    # every (pixel, node) candidate, in (pixel, node) order
    pix, node = np.divmod(np.arange(gx.size * w.size), w.size)
    kept, one, pair = [], [], []
    with np.errstate(under="ignore"):
        for k0 in range(0, pix.size, _CHUNK):
            p, n = pix[k0 : k0 + _CHUNK], node[k0 : k0 + _CHUNK]
            qu = (px[p, :, None] * cos_t[n, None, :] + py[p, :, None] * sin_t[n, None, :]).reshape(p.size, n_s)
            a = r_ek - qu
            h2 = q2[p] - qu**2
            near = -h2 / (2.0 * v) - a**2 / (2.0 * (v + 2.0 * s2)) > -40.0
            k = near.any(axis=1)
            a, h2, near, wn = a[k], h2[k], near[k], w[n[k]]
            kept.append(p[k])
            terms = np.exp(-h2 / (2.0 * v) - a**2 / (2.0 * (v + s2))) * ci
            # the pair block: the samples of the one emitter that reaches the
            # candidate, or all samples where several do, added in order
            reached = near.reshape(wn.size, radii.size, substeps).any(axis=2)
            owner = np.where(reached.sum(axis=1) == 1, reached.argmax(axis=1), -1)[:, None]
            terms *= (owner < 0) | (owner == np.arange(n_s) // substeps)
            one.append(np.add.accumulate(terms, axis=1)[:, -1] * wn)
            half = -h2 / (2.0 * v) - a**2 * (1.0 / (4.0 * (v + 2.0 * s2)) + 1.0 / (4.0 * v))
            r, q = np.nonzero(near[:, ii] & near[:, jj])
            i, j = ii[q], jj[q]
            exponent = half[r, i] + half[r, j] + cross * a[r, i] * a[r, j]
            pair.append(np.bincount(r, weights=np.exp(exponent) * coef[q], minlength=wn.size) * wn)
    kept = np.concatenate(kept)
    m1 = np.bincount(kept, weights=np.concatenate(one), minlength=gx.size)
    m2 = np.bincount(kept, weights=np.concatenate(pair), minlength=gx.size)
    m1 *= math.sqrt(v / (v + s2))
    m2 *= math.sqrt(v / (v + 2.0 * s2))
    dz = np.repeat(np.exp(depth_arg), xs.size)
    mean = n_cycles * m1 * dz
    var = n_cycles * np.maximum(m2 - m1**2, 0.0) * dz**2
    return mean.reshape(ys.size, xs.size), var.reshape(ys.size, xs.size)


def resolve_two_spots(image, center_a_um, center_b_um, probe_radius_um: float = 0.8):
    """Peak heights near two expected centres and the valley between them.

    Returns (peak_a, peak_b, valley_min) where valley_min is the minimum of
    the profile sampled along the straight line between the two peaks.
    Two emitters count as resolved when the valley drops below half the
    smaller peak.
    """

    def local_peak(cx, cy):
        sel_x = np.abs(image.x_um - cx) <= probe_radius_um
        sel_y = np.abs(image.y_um - cy) <= probe_radius_um
        sub = image.counts[np.ix_(sel_y, sel_x)]
        idx = np.unravel_index(np.argmax(sub), sub.shape)
        return (
            float(sub[idx]),
            float(image.x_um[sel_x][idx[1]]),
            float(image.y_um[sel_y][idx[0]]),
        )

    pa, ax, ay = local_peak(*center_a_um)
    pb, bx, by = local_peak(*center_b_um)
    ts = np.linspace(0.0, 1.0, 41)
    line_x = ax + (bx - ax) * ts
    line_y = ay + (by - ay) * ts
    profile = []
    for lx, ly in zip(line_x, line_y):
        ixn = int(np.argmin(np.abs(image.x_um - lx)))
        iyn = int(np.argmin(np.abs(image.y_um - ly)))
        profile.append(float(image.counts[iyn, ixn]))
    interior = profile[5:-5]
    return pa, pb, min(interior) if interior else min(profile)
