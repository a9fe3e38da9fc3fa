"""Hot numeric kernels, numpy only.

* ``eval_terms_grid`` sums a list of closed-form terms on a time grid in
  one sweep over the sorted grid. The grid is cut into blocks short enough
  for exp(+-kappa (block span)) to stay in float64's range, and each block's
  first point is the base b shared by all terms. Terms with the same rate r
  share one complex exponential exp(r (t - b)) per grid point; each term
  adds its Horner polynomial, times one scalar exp(r (b - d)), on its
  support. Anti-causal terms take the same sweep on the reflected grid -t.
* ``dde_rk4`` integrates the delayed qubit-amplitude equations with RK4 and
  the method of steps, one block of steps at a time. A block is never longer
  than the shortest cross-qubit delay, so every delayed value it reads is
  already stored: the cross-qubit forcing of a whole block is computed with
  array operations, and only each qubit's scalar self-decay recurrence runs
  step by step (Bellen & Zennaro, *Numerical Methods for Delay Differential
  Equations*, OUP 2003).
"""

from __future__ import annotations

import cmath

import numpy as np


# ---------------------------------------------------------------------------
# Series evaluation over a time grid
# ---------------------------------------------------------------------------

#: Bound on kappa_max * (block span): for every term switched on in a block,
#: exp(r (b - d)) and exp(r (t - b)) stay within e^(+-600), clear of
#: float64's range e^(+-708), with room for the polynomial.
_BLOCK_EXPONENT = 600.0


def eval_terms_grid(terms, t: np.ndarray) -> np.ndarray:
    """Evaluate a term list on a 1-D time grid; returns complex array.

    Each term is read through its `delay`, `pole`, `carrier`, `poly_coeffs`
    (ascending, integer, real or complex; trailing zeros are dropped) and
    `anti_causal`, the fields of `core.DelayedTerm`.

    The grid is swept in sorted order: a non-decreasing grid as it is, a
    non-increasing one as its reversed view, any other through a stable
    argsort (NaNs last), so the result is bitwise the same whatever the
    order of the points. A NaN time gives NaN.

    The sorted grid is cut into blocks with kappa_max * (block span) <= 600,
    kappa_max the largest |Re r| of the list; a block's base b is its first
    point, and every term shares the cuts and bases. Terms are grouped by
    their rate r: per group and block, each term adds its Horner polynomial
    on its support, times one scalar exp(r (b - d)), into an accumulator,
    which is then multiplied once by exp(r (t - b)). Points exactly at a
    delay get Theta = 1/2; points before a group's first delay are never
    written, so off every support the result is exactly 0. Anti-causal
    terms take the same sweep on the reflected grid u = -t, as causal terms
    at delay -d with coefficients (-1)^m c_m and rate -r. A growing term
    whose exponential leaves float64's range raises OverflowError.
    """
    n = t.shape[0]
    res = np.zeros(n, dtype=complex)
    # a NaN fails both order checks; the argsort puts NaNs last
    if n == 0 or t[0] <= t[-1] and (t[1:] >= t[:-1]).all():
        order = slice(None)
    elif t[-1] <= t[0] and (t[1:] <= t[:-1]).all():
        order = slice(None, None, -1)
    else:
        order = np.argsort(t, kind="stable")
    v = t[order]
    if isinstance(order, slice):
        m, out = n, res[order]
    else:
        m, out = int(v.searchsorted(np.nan)), np.zeros(n, dtype=complex)
        out[m:] = complex(np.nan, np.nan)
    v, valid = v[:m], out[:m]

    delays = [float(tm.delay) for tm in terms]
    lo = v.searchsorted(delays, "left").tolist()
    hi = v.searchsorted(delays, "right").tolist()
    causal, anti, kappa = [], [], 0.0
    for tm, d, l, h in zip(terms, delays, lo, hi):
        row = tm.poly_coeffs
        while row and not row[-1]:
            row = row[:-1]
        if not row:
            continue
        p = tm.pole + tm.carrier
        r = complex(p.imag, -p.real)  # -i (pole + carrier)
        kappa = max(kappa, abs(r.real))
        if tm.anti_causal:
            # u = -t: the support t <= d is u >= -d, from m - h on the
            # ascending grid of u
            anti.append((-d, -r, [-c if i % 2 else c
                                  for i, c in enumerate(row)],
                         m - h, m - l))
        else:
            causal.append((d, r, row, l, h))
    if causal:
        _sweep(v, valid, causal, kappa)
    if anti:
        _sweep(-v[::-1], valid[::-1], anti, kappa)
    if not isinstance(order, slice):
        res[order] = out
    return res


def _sweep(v, out, terms, kappa):
    """Add causal terms (delay, rate, coefficients, lo, hi) into `out` on the
    sorted grid `v`: a term's support is v[lo:], and v[lo:hi] its delay."""
    if not v.size:
        return
    cuts = [0]
    if kappa > 0:
        width = _BLOCK_EXPONENT / kappa
        while v[-1] > (edge := v[cuts[-1]] + width):
            cuts.append(int(v.searchsorted(edge, "right")))
    cuts.append(v.size)
    groups = {}
    for tm in terms:
        groups.setdefault(tm[1], []).append(tm)

    for a, z in zip(cuts, cuts[1:]):
        b = float(v[a])
        for r, group in groups.items():
            first = max(a, min(tm[3] for tm in group))
            if first >= z:
                continue
            acc = np.zeros(z - first, dtype=complex)
            for d, _, row, lo, hi in group:
                if lo >= z:
                    continue
                scale = cmath.exp(r * (b - d))
                top = len(row) - 1
                st, sp = max(lo, first) - first, max(hi, first) - first
                if sp > st:
                    # Theta = 1/2 exactly at the delay, where P = c_0
                    acc[st:sp] += 0.5 * row[0] * scale
                if top:
                    # Horner, in place after the first step, which makes
                    # the array complex whatever the coefficients' type
                    tau = v[first + sp:z] - d
                    poly = tau * complex(row[top])
                    poly += row[top - 1]
                    for c in reversed(row[:top - 1]):
                        poly *= tau
                        poly += c
                    poly *= scale
                else:
                    poly = row[0] * scale
                acc[sp:] += poly
            e = r * (v[first:z] - b)
            acc *= np.exp(e, out=e)
            out[first:z] += acc


# ---------------------------------------------------------------------------
# RK4 integrator for the delayed qubit-amplitude equations
# ---------------------------------------------------------------------------
#
# alpha_j' = b_j(t) - (gamma0/2) * sum_l K[j,l] * alpha_l(t - d[j,l]),
# with d[j,l] = delay_steps[j,l] * dt and K[j,l] the propagation phase.
# Delayed terms switch on at t = d[j,l]; each step integrates the smooth
# piecewise extension (activity frozen at the step start), which keeps the
# scheme fourth-order accurate across the kinks. The drive b_j is the
# analytic decaying-exponential pulse, switching on (again judged at the
# step start) at drive_arrival[j].
#
# History is stored with one-sided right/left derivatives per node so that
# half-step delayed lookups interpolate the correct smooth piece with a
# cubic Hermite (O(dt^4)).
#
# Block scheme: with B the smallest off-diagonal delay in steps, the steps
# [n0, n0 + B) read cross-qubit history at nodes <= n0 only. Per block, the
# forcing F_j(c) = b_j - (gamma0/2) * sum_{l != j} K[j,l] alpha_l(delayed)
# at the stage offsets c = 0, 1/2, 1 is an array expression; the RK4 stages
# then reduce to the scalar recurrence k = F(c) - (gamma0/2) K[j,j] * stage.

def dde_rk4(alpha0, nsteps, dt, delay_steps, kernel_phase, half_gamma,
            drive_amp, drive_sigma, drive_arrival):
    """Run the RK4 method-of-steps integrator; returns (alpha, f_right, f_left).

    `delay_steps` must have a zero diagonal and positive off-diagonal
    entries; the arrays returned have shape (nsteps + 1, nq).
    """
    alpha0 = np.asarray(alpha0, dtype=np.complex128)
    delay_steps = np.asarray(delay_steps, dtype=np.int64)
    kernel_phase = np.asarray(kernel_phase, dtype=np.complex128)
    drive_amp = np.asarray(drive_amp, dtype=np.complex128)
    drive_arrival = np.asarray(drive_arrival, dtype=np.float64)
    nsteps, dt = int(nsteps), float(dt)
    half_gamma, drive_sigma = float(half_gamma), float(drive_sigma)
    nq = alpha0.shape[0]
    cross = ~np.eye(nq, dtype=bool)
    if np.any(np.diag(delay_steps) != 0) or np.any(delay_steps[cross] <= 0):
        raise ValueError("delay_steps needs a zero diagonal and positive "
                         "off-diagonal entries")
    block = int(delay_steps[cross].min()) if nq > 1 else max(nsteps, 1)
    pairs = [(j, l, int(delay_steps[j, l]), complex(kernel_phase[j, l]))
             for j in range(nq) for l in range(nq) if l != j]
    self_phase = np.diag(kernel_phase)
    self_rate = (half_gamma * self_phase).tolist()
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0

    def drive(times, starts):
        """b_j at `times`, (nq, nb); on where the step start >= arrival."""
        on = ((drive_amp != 0)[:, None]
              & (starts[None, :] >= drive_arrival[:, None]))
        lag = np.where(on, times[None, :] - drive_arrival[:, None], 0.0)
        return np.where(on, drive_amp[:, None] * np.exp(-drive_sigma * lag),
                        0.0)

    alpha = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_right = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_left = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    alpha[0] = alpha0
    # node derivatives at t = 0 (right: step-start activity n >= m; left: n > m)
    zero = np.zeros(1)
    f_right[0] = drive(zero, zero)[:, 0] - half_gamma * self_phase * alpha0

    for n0 in range(0, nsteps, block):
        n1 = min(n0 + block, nsteps)
        t = np.arange(n0, n1) * dt

        # cross-qubit sums at c = 0, 1/2, 1 over steps n >= m; every lookup
        # ends at node n0
        acc0, acch, acc1 = (np.zeros((nq, n1 - n0), dtype=np.complex128)
                            for _ in range(3))
        for j, l, m, k in pairs:
            first = max(n0, m)
            if first >= n1:
                continue
            lo, hi = first - m, n1 - m
            y0, y1 = alpha[lo:hi, l], alpha[lo + 1:hi + 1, l]
            # cubic Hermite at the midpoint of each [i, i + 1], lo <= i < hi
            mid = 0.5 * (y0 + y1) + 0.125 * (f_right[lo:hi, l] * dt
                                              - f_left[lo + 1:hi + 1, l] * dt)
            acc0[j, first - n0:] += k * y0
            acch[j, first - n0:] += k * mid
            acc1[j, first - n0:] += k * y1
        f0 = drive(t, t) - half_gamma * acc0
        fh = drive(t + half_dt, t) - half_gamma * acch
        f1 = drive(t + dt, t) - half_gamma * acc1

        # the sequential part: each qubit's self-decay recurrence
        for j in range(nq):
            g = self_rate[j]
            a = complex(alpha[n0, j])
            out = []
            for c0, ch, c1 in zip(f0[j].tolist(), fh[j].tolist(),
                                  f1[j].tolist()):
                k1 = c0 - g * a
                k2 = ch - g * (a + half_dt * k1)
                k3 = ch - g * (a + half_dt * k2)
                k4 = c1 - g * (a + dt * k3)
                a = a + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out.append(a)
            alpha[n0 + 1:n1 + 1, j] = out

        # one-sided derivatives at the new nodes p = n0 + 1 .. n1: a delayed
        # term counts from p >= m on the right and from p > m on the left
        acc_r = self_phase * alpha[n0 + 1:n1 + 1]
        acc_l = acc_r.copy()
        for j, l, m, k in pairs:
            first = max(n0 + 1, m)
            if first > n1:
                continue
            term = k * alpha[first - m:n1 + 1 - m, l]
            acc_r[first - n0 - 1:, j] += term
            skip = 1 if first == m else 0
            acc_l[first + skip - n0 - 1:, j] += term[skip:]
        tp = np.arange(n0 + 1, n1 + 1) * dt
        f_right[n0 + 1:n1 + 1] = drive(tp, tp).T - half_gamma * acc_r
        f_left[n0 + 1:n1 + 1] = drive(tp, t).T - half_gamma * acc_l

    return alpha, f_right, f_left
