"""Hot numeric kernels, numpy only.

* ``eval_terms_grid`` sums a list of closed-form terms on a time grid in
  one sweep over the sorted grid. The grid is cut into blocks short enough
  for exp(+-kappa (block span)) to stay in float64's range, and each block's
  first point is the base b shared by all terms. Terms with the same rate r
  share one complex exponential exp(r (t - b)) per grid point; each term
  adds its Horner polynomial, times one scalar exp(r (b - d)), on its
  support.
* ``dde_rk4`` integrates the delayed qubit-amplitude equations with RK4 and
  the method of steps, one block of steps at a time. A block is never longer
  than the shortest cross-qubit delay, so every delayed value it reads is
  already stored: the cross-qubit forcing of a whole block is a few array
  operations per delay, and the drive is tabulated once per run. What is
  left of a step is each qubit's own decay, the linear recurrence
  a_{n+1} = R a_n + f_n, solved in closed form with one cumulative sum per
  chunk of at most 1/(|g| dt) steps, so that |R|^-m <= e stays in range
  (Bellen & Zennaro, *Numerical Methods for Delay Differential Equations*,
  OUP 2003).
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

    Each term is read through its `delay`, `pole`, `carrier` and
    `poly_coeffs` (ascending, integer, real or complex; trailing zeros are
    dropped), the fields of `core.DelayedTerm`.

    The grid is swept in sorted order: a non-decreasing grid as it is, any
    other through a stable argsort (NaNs last), so the result is bitwise
    the same whatever the order of the points. A NaN time gives NaN.

    The sorted grid is cut into blocks with kappa_max * (block span) <= 600,
    kappa_max the largest |Re r| of the list; a block's base b is its first
    point, and every term shares the cuts and bases. Terms are grouped by
    their rate r: per group and block, each term adds its Horner polynomial
    on its support, times one scalar exp(r (b - d)), into an accumulator,
    which is then multiplied once by exp(r (t - b)). Points exactly at a
    delay get Theta = 1/2; points before a group's first delay are never
    written, so off every support the result is exactly 0. A growing term
    whose exponential leaves float64's range raises OverflowError.
    """
    n = t.shape[0]
    res = np.zeros(n, dtype=complex)
    # a NaN fails the order check; the argsort puts NaNs last
    if n == 0 or t[0] <= t[-1] and (t[1:] >= t[:-1]).all():
        order, v, m, out = None, t, n, res
    else:
        order = np.argsort(t, kind="stable")
        v = t[order]
        m, out = int(v.searchsorted(np.nan)), np.zeros(n, dtype=complex)
        out[m:] = complex(np.nan, np.nan)
    v, valid = v[:m], out[:m]

    delays = [float(tm.delay) for tm in terms]
    lo = v.searchsorted(delays, "left").tolist()
    hi = v.searchsorted(delays, "right").tolist()
    rows, kappa = [], 0.0
    for tm, d, l, h in zip(terms, delays, lo, hi):
        row = tm.poly_coeffs
        while row and not row[-1]:
            row = row[:-1]
        if not row:
            continue
        p = tm.pole + tm.carrier
        r = complex(p.imag, -p.real)  # -i (pole + carrier)
        kappa = max(kappa, abs(r.real))
        rows.append((d, r, row, l, h))
    _sweep(v, valid, rows, kappa)
    if order is not None:
        res[order] = out
    return res


def _sweep(v, out, terms, kappa):
    """Add the terms (delay, rate, coefficients, lo, hi) into `out` on the
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
# Delayed terms switch on at node delay_steps[j,l] and the drive b_j, the
# analytic decaying-exponential pulse, at node drive_arrival[j]: every kink
# lies on the mesh, and each step integrates the smooth piecewise extension
# (activity frozen at the step start), which keeps the scheme fourth-order
# accurate across them.
#
# History is stored with one-sided right/left derivatives per node so that
# half-step delayed lookups interpolate the correct smooth piece with a
# cubic Hermite (O(dt^4)).
#
# Block scheme: with B the smallest off-diagonal delay in steps, the steps
# [n0, n0 + B) read cross-qubit history at nodes <= n0 only. Per block, the
# forcing F_j(c) = b_j - (gamma0/2) * sum_{l != j} K[j,l] alpha_l(delayed)
# at the stage offsets c = 0, 1/2, 1 is an array expression: the history of
# every qubit is read once per delay, and the node sums also give the
# one-sided derivatives. The RK4 stages then reduce to the recurrence
# k = F(c) - g * stage, g = (gamma0/2) K[j,j], whose step is linear:
# a_{n+1} = R a_n + f_n with R = 1 + z + z^2/2 + z^3/6 + z^4/24, z = -g dt.
# A chunk of m steps is a_{s+m} = R^m (a_s + sum_{k<m} R^-(k+1) f_{s+k}),
# one cumulative sum; m <= 1/(|g| dt) bounds |R|^-m by e, so no power of R
# leaves float range however long the run.

def dde_rk4(alpha0, nsteps, dt, delay_steps, kernel_phase, half_gamma,
            drive_amp, drive_sigma, drive_arrival):
    """Run the RK4 method-of-steps integrator; returns (alpha, f_right, f_left).

    `delay_steps` must have a zero diagonal and positive off-diagonal
    entries; the drive of qubit j switches on at node `drive_arrival[j]`.
    The arrays returned have shape (nsteps + 1, nq).
    """
    alpha0 = np.asarray(alpha0, dtype=np.complex128)
    delay_steps = np.asarray(delay_steps, dtype=np.int64)
    kernel_phase = np.asarray(kernel_phase, dtype=np.complex128)
    drive_amp = np.asarray(drive_amp, dtype=np.complex128)
    drive_arrival = np.asarray(drive_arrival, dtype=np.int64)
    nsteps, dt = int(nsteps), float(dt)
    half_gamma, drive_sigma = float(half_gamma), float(drive_sigma)
    nq = alpha0.shape[0]
    cross = ~np.eye(nq, dtype=bool)
    if np.any(np.diag(delay_steps) != 0) or np.any(delay_steps[cross] <= 0):
        raise ValueError("delay_steps needs a zero diagonal and positive "
                         "off-diagonal entries")
    block = int(delay_steps[cross].min()) if nq > 1 else max(nsteps, 1)
    # the pairs (j, l) by delay m and by side: a row j occurs once in a
    # group, so one indexed add sums the group's pairs
    by_key = {}
    for j, l in zip(*np.nonzero(cross)):
        by_key.setdefault((int(delay_steps[j, l]), l < j), []).append((j, l))
    groups = []
    for (m, _), pairs in sorted(by_key.items()):
        js, ls = np.array(pairs).T
        groups.append((m, js, ls, kernel_phase[js, ls]))
    self_phase = np.diag(kernel_phase)

    # one RK4 step of a' = F(c) - g a is linear: a_{n+1} = R a_n + f_n with
    # f_n = w0 F_n(0) + wh F_n(1/2) + w1 F_n(1); R and the w are one step
    # on the unit inputs (a, F(0), F(1/2), F(1)), for all qubits at once
    g = half_gamma * self_phase
    a, c0, ch, c1 = np.eye(4, dtype=np.complex128)[:, :, None]
    k1 = c0 - g * a
    k2 = ch - g * (a + 0.5 * dt * k1)
    k3 = ch - g * (a + 0.5 * dt * k2)
    k4 = c1 - g * (a + dt * k3)
    R, w0, wh, w1 = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # a_{s+m} = R^m (a_s + sum_{k<m} R^-(k+1) f_{s+k}): one cumsum per chunk
    # of at most 1/(|g| dt) steps keeps |R|^-m <= e
    rate = float(np.abs(g).max()) * dt
    chunk = max(1, min(block, nsteps, int(1.0 / rate) if rate else nsteps))
    power = np.arange(1, chunk + 1)[:, None] * np.log(R)
    grow, shrink = np.exp(power), np.exp(-power)

    # the drive b_j = amp_j exp(-sigma (p - k_j) dt), once per run: at each
    # node p, on where p >= k_j (right derivative) or p > k_j (left), and its
    # share of f_n from the stages at p = n, n + 1/2, n + 1, on where n >= k_j
    driven = bool(np.any(drive_amp != 0))
    if driven:
        since = np.arange(nsteps + 1)[:, None] - drive_arrival
        on = since >= 0

        def drive(c, on):
            lag = np.where(on, since[:len(on)] + c, 0) * dt
            return np.where(on, drive_amp * np.exp(-drive_sigma * lag), 0.0)

        drive_right = drive(0, on)
        drive_left = np.where(on[:-1], drive_right[1:], 0.0)
        drive_step = (w0 * drive_right[:-1] + wh * drive(0.5, on[:-1])
                      + w1 * drive(1, on[:-1]))

    alpha = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_right = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_left = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    alpha[0] = alpha0
    # node derivatives at t = 0 (right: step-start activity n >= m; left: n > m)
    f_right[0] = -half_gamma * self_phase * alpha0
    if driven:
        f_right[0] += drive_right[0]

    for n0 in range(0, nsteps, block):
        n1 = min(n0 + block, nsteps)
        nb = n1 - n0

        # cross-qubit sums; every lookup ends at node n0. Node p = n0 + i
        # takes alpha_l(p - m) from p > m (`left`, the left derivative and
        # the stage c = 1 of step p - 1) or from p >= m (`right`, the right
        # derivative and the stage c = 0 of step p); the midpoint of step n
        # counts from n >= m.
        left = np.zeros((nb + 1, nq), dtype=np.complex128)
        mid = np.zeros((nb, nq), dtype=np.complex128)
        switch = []
        last = None
        for m, js, ls, k in groups:
            if m > n1:
                break
            if m != last:
                first = max(n0, m)
                y = alpha[first - m:n1 - m + 1]     # nodes first - m .. n1 - m
                fr = f_right[first - m:n1 - m]
                fl = f_left[first - m + 1:n1 - m + 1]
                # cubic Hermite at the midpoint of each [i, i + 1]
                h = 0.5 * (y[:-1] + y[1:]) + 0.125 * (fr * dt - fl * dt)
                last = m
            skip = int(first == m)
            left[first + skip - n0:, js] += k * y[skip:, ls]
            mid[first - n0:, js] += k * h[:, ls]
            if first == m:
                switch.append((m - n0, js, k * y[0, ls]))
        right = left
        if switch:
            right = left.copy()
            for i, js, term in switch:
                right[i, js] += term

        f = -half_gamma * (w0 * right[:-1] + wh * mid + w1 * left[1:])
        if driven:
            f += drive_step[n0:n1]

        # each qubit's self-decay recurrence, in closed form per chunk
        a = alpha[n0]
        for s in range(0, nb, chunk):
            e = min(s + chunk, nb)
            a = grow[:e - s] * (a + np.cumsum(shrink[:e - s] * f[s:e], axis=0))
            alpha[n0 + s + 1:n0 + e + 1] = a
            a = a[-1]

        # one-sided derivatives at the new nodes p = n0 + 1 .. n1
        own = self_phase * alpha[n0 + 1:n1 + 1]
        f_right[n0 + 1:n1 + 1] = -half_gamma * (own + right[1:])
        f_left[n0 + 1:n1 + 1] = -half_gamma * (own + left[1:])
        if driven:
            f_right[n0 + 1:n1 + 1] += drive_right[n0 + 1:n1 + 1]
            f_left[n0 + 1:n1 + 1] += drive_left[n0:n1]

    return alpha, f_right, f_left
