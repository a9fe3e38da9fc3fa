"""Independent numerical ground truth: delay-differential-equation integrator.

The qubit amplitudes in the co-rotating frame obey

    d/dt alpha_j(t) = b_j(t)
        - (gamma0/2) * sum_l alpha_l(t - d_jl) * exp(i*W*d_jl) * Theta(t - d_jl),

with d_jl the light travel time between qubits j and l and b_j the incident
pulse evaluated at the qubit (zero for an initially excited qubit, which
instead sets alpha_source(0) = 1). Physical amplitudes are
e_j(t) = alpha_j(t) * exp(-i*W*t).

Integration is classic RK4 with the method of steps: dt must divide every
delay so delayed lookups land on stored mesh nodes. Node k sits at
start + k*dt with start = x0 - floor(x0/dt)*dt (0 on the mesh and for an
excited start), so every pulse arrival is a whole number of steps; no alpha
stirs before the front arrives, so delayed terms may switch on at node d/dt.
Half-step stage lookups use a cubic Hermite built from stored one-sided node
derivatives, and each step integrates the smooth one-sided extension of the
right-hand side (activity frozen at the step start), which keeps the scheme
fourth-order accurate across the Heaviside kinks.

The steps are taken in blocks no longer than the shortest qubit-qubit delay
(at least 8 steps, since dt <= L/8): inside a block every cross-qubit term
reads history that is already stored, so ``_kernels.dde_rk4`` evaluates it
for the whole block with array operations. Each qubit's own decay term then
makes one RK4 step the linear recurrence a' = R a + f, which the kernel
solves in closed form, one cumulative sum per chunk of at most 1/(|g| dt)
steps (g = gamma0/2), so that |R|^-chunk <= e.

The diagram engine is imported only as `convergence_study`'s reference; the
integrator itself exists to check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ChainConfig, InitialCondition
from .errors import NonConvergence, OutOfRange, StepTooLarge

_MESH_RTOL = 1e-9
#: Largest dt * gamma0 that `integrate_chain` accepts.
_MAX_STEP = 0.05


@dataclass(frozen=True)
class DDEHistory:
    """Mesh nodes start + k*dt with one-sided derivatives for interpolation."""

    start: float
    dt: float
    omega: float
    alpha: np.ndarray     # (nsteps+1, nq)
    f_right: np.ndarray   # right-sided derivative at each node
    f_left: np.ndarray    # left-sided derivative at each node

    @property
    def horizon(self) -> float:
        return self.start + (self.alpha.shape[0] - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.start + np.arange(self.alpha.shape[0]) * self.dt

    def value(self, qubit: int, t: float) -> complex:
        """alpha_qubit(t); cubic Hermite between nodes, 0 for t < start."""
        if t < self.start:
            return 0j
        if t > self.horizon * (1 + 1e-12):
            raise OutOfRange(f"t={t} beyond stored horizon {self.horizon}")
        s = (t - self.start) / self.dt
        k = min(int(math.floor(s + 0.5)), self.alpha.shape[0] - 1)
        if abs(s - k) < 1e-9:
            return complex(self.alpha[k, qubit])
        k = min(int(math.floor(s)), self.alpha.shape[0] - 2)
        u = s - k
        y0 = self.alpha[k, qubit]
        y1 = self.alpha[k + 1, qubit]
        m0 = self.f_right[k, qubit] * self.dt
        m1 = self.f_left[k + 1, qubit] * self.dt
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        return complex(h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1)

    def amplitude(self, qubit: int, t: float) -> complex:
        """Physical amplitude e_qubit(t) = alpha * exp(-i*W*t)."""
        return self.value(qubit, t) * np.exp(-1j * self.omega * t)

    def amplitudes(self, qubit: int) -> np.ndarray:
        """e_qubit at every mesh node."""
        return self.alpha[:, qubit] * np.exp(-1j * self.omega * self.times())


def _drive_params(cfg: ChainConfig, init: InitialCondition, dt: float,
                  delay_steps: np.ndarray):
    """Drive amplitudes and rate, mesh start, and arrival node of each qubit."""
    nq = cfg.num_qubits
    if init.kind != "pulse":
        return np.zeros(nq, dtype=complex), 1.0, 0.0, np.zeros(nq, np.int64)
    p = init.pulse
    amp = (-1j * math.sqrt(cfg.gamma0 * p.sigma)
           * np.exp(p.sign * 1j * cfg.omega * np.asarray(cfg.positions)))
    # the front reaches the entry qubit at node k0; a front within
    # _MESH_RTOL of a node takes that node, so start = 0 on the mesh
    k0 = round(p.x0 / dt)
    start = 0.0
    if abs(p.x0 - k0 * dt) > _MESH_RTOL * max(1.0, p.x0):
        k0 = math.floor(p.x0 / dt)
        start = p.x0 - k0 * dt
    return amp, p.sigma, start, k0 + delay_steps[p.entry(nq)]


def integrate_chain(cfg: ChainConfig, init: InitialCondition, t_f: float,
                    dt: float) -> DDEHistory:
    """Integrate the delayed amplitude equations up to t_f with step dt."""
    if t_f <= 0 or dt <= 0:
        raise ValueError("t_f and dt must be positive")
    if dt > _MAX_STEP / cfg.gamma0:
        raise StepTooLarge(f"dt={dt} exceeds {_MAX_STEP}/gamma0")
    nq = cfg.num_qubits
    delay_steps = np.zeros((nq, nq), dtype=np.int64)
    phase = np.zeros((nq, nq), dtype=complex)
    min_sep = math.inf
    for j in range(nq):
        for l in range(nq):
            d = abs(cfg.positions[j] - cfg.positions[l])
            m = int(round(d / dt))
            if abs(d - m * dt) > _MESH_RTOL * max(1.0, d):
                raise StepTooLarge(
                    f"dt={dt} does not divide the delay {d} (method of steps)")
            delay_steps[j, l] = m
            phase[j, l] = np.exp(1j * cfg.omega * d)
            if j != l:
                min_sep = min(min_sep, d)
    if nq > 1 and dt > min_sep / 8:
        raise StepTooLarge(f"dt={dt} exceeds L/8 with L={min_sep}")

    alpha0 = np.zeros(nq, dtype=complex)
    if init.kind == "excited_qubit":
        alpha0[init.qubit] = 1.0
    amp, sigma, start, arrival = _drive_params(cfg, init, dt, delay_steps)
    nsteps = int(round((t_f - start) / dt))
    if start + nsteps * dt < t_f - 1e-12 * t_f:
        nsteps += 1
    alpha, fr, fl = _kernels.dde_rk4(alpha0, nsteps, dt, delay_steps, phase,
                                     cfg.gamma0 / 2.0, amp, sigma, arrival)
    return DDEHistory(start=start, dt=dt, omega=cfg.omega, alpha=alpha,
                      f_right=fr, f_left=fl)


def step_divisor(L: float, m: int, gamma0: float) -> int:
    """m 2^k for the smallest k >= 0 with L / (m 2^k) <= 0.05 / gamma0: the
    step L / (m 2^k) divides every multiple of L and keeps within
    `integrate_chain`'s limit."""
    while L / m > _MAX_STEP / gamma0:
        m *= 2
    return m


def single_qubit_alpha(t, gamma0: float):
    """Lone-qubit amplitude in both time directions, integrated: RK4 on
    d alpha/dt = -(gamma0/2) sign(t) alpha from 0 towards t (the sign makes
    the solution decay into both past and future), an independent check
    of the closed form exp(-gamma0*|t|/2), in steps of at most 1e-3.
    """
    tt = float(t)
    if tt == 0.0:
        return 1.0 + 0j
    sgn = 1.0 if tt > 0 else -1.0
    n = max(1, int(math.ceil(abs(tt) / 1e-3)))
    h = tt / n
    rate = -(gamma0 / 2.0) * sgn
    a = 1.0 + 0j
    for _ in range(n):
        k1 = rate * a
        k2 = rate * (a + 0.5 * h * k1)
        k3 = rate * (a + 0.5 * h * k2)
        k4 = rate * (a + h * k3)
        a = a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def _free_pulse(init: InitialCondition, cfg: ChainConfig, x: float,
                t: float) -> tuple[complex, complex]:
    """Undisturbed incident field advected from t = 0."""
    if init.kind != "pulse":
        return 0j, 0j
    p = init.pulse
    sign, front = p.sign, p.front(cfg.positions[p.entry(cfg.num_qubits)])
    u = sign * (x - front) - t           # distance behind the front
    if u > 0:
        return 0j, 0j
    env = math.sqrt(2 * p.sigma) * math.exp(p.sigma * u) * (0.5 if u == 0 else 1.0)
    val = env * np.exp(sign * 1j * cfg.omega * (x - sign * t))
    return (val, 0j) if p.direction == "right" else (0j, val)


def reconstruct_field(history: DDEHistory, cfg: ChainConfig, x: float, t: float,
                      init: InitialCondition | None = None
                      ) -> tuple[complex, complex]:
    """Field at (x, t) from the stored qubit histories.

    psi_R(x,t) = free part - i*sqrt(gamma0/2) * sum_Q e_Q(t - (x - x_Q))
    for x past qubit Q (half weight at the qubit), and the mirrored left
    branch. Raises OutOfRange if a needed delayed value is not stored.
    """
    pref = -1j * math.sqrt(cfg.gamma0 / 2.0)
    psi_r, psi_l = (0j, 0j)
    if init is not None:
        psi_r, psi_l = _free_pulse(init, cfg, x, t)
    for q, xq in enumerate(cfg.positions):
        if x >= xq:
            w = 0.5 if x == xq else 1.0
            s = t - (x - xq)
            if s > 0:
                psi_r += w * pref * history.amplitude(q, s)
        if x <= xq:
            w = 0.5 if x == xq else 1.0
            s = t + (x - xq)
            if s > 0:
                psi_l += w * pref * history.amplitude(q, s)
    return psi_r, psi_l


def convergence_study(cfg: ChainConfig, init: InitialCondition,
                      t_f: float) -> dict:
    """Convergence of the integrator against the diagram engine's closed
    form, at the steps L / f for f = 32, 64, 128 and 256 (refined by a
    common power of two where gamma0 needs it). Raises NonConvergence if
    the observed RK4 order drops below 3.5.
    """
    from .evaluator import all_amplitudes
    amps = all_amplitudes(cfg, init, t_f)
    # lone qubit has no delay mesh to honor; pick a step base small enough
    # for the coarsest fraction to satisfy the 0.05/gamma0 limit
    L = cfg.separation if cfg.num_qubits > 1 else 0.8 / cfg.gamma0
    # refine every fraction by the power of two the coarsest one needs
    scale = step_divisor(L, 32, cfg.gamma0) // 32
    dts = [L / (f * scale) for f in (32, 64, 128, 256)]
    errors = []
    for dt in dts:
        hist = integrate_chain(cfg, init, t_f, dt)
        # drop t = 0: the closed forms take the Heaviside midpoint value
        # there while the integrator holds the initial condition
        ts = hist.times()[1:]
        err = 0.0
        for q in range(cfg.num_qubits):
            err = max(err, float(np.max(np.abs(
                hist.amplitudes(q)[1:] - amps[q](ts)))))
        errors.append(err)
    orders = [math.log2(a / b) if b > 0 else math.inf
              for a, b in zip(errors, errors[1:])]
    if all(e > 0 for e in errors):
        order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    else:
        order = math.inf
    report = {"dts": dts, "errors": errors, "orders": orders, "order": order}
    if order < 3.5:
        raise NonConvergence(f"observed order {order:.2f} < 3.5: {report}")
    return report
