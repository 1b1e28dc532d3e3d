"""Adaptive-threshold leaky integrate-and-fire neurons.

The model is a non-resetting LIF with a multi-timescale adaptive threshold:
the membrane follows tau_m * dV/dt = -(V - E_L) + R * I with R = tau_m / C_m,
and the firing threshold is omega + h1 + h2 where each h_j jumps by alpha_j on
every spike and decays as exp(-t / tau_j). The membrane is never reset; during
the refractory period it keeps integrating and only spike emission is gated.

Synaptic input arrives through two alpha-kernel current channels (excitatory
and inhibitory). A spike of weight w delivered to a channel with time constant
tau_syn produces the current pulse w * (e / tau_syn) * s * exp(-s / tau_syn),
which peaks at exactly w when s = tau_syn. Each channel carries two state
variables (y1, y2) with y1' = -y1/tau_syn, y2' = y1 - y2/tau_syn, and a
delivery adds w * e / tau_syn to y1.

All of this is a linear ODE system, so one simulation step advances it with
closed-form propagators (exact for piecewise-constant external current). No
Euler error: for constant input the simulated membrane matches the analytic
trajectory to rounding.

State is vectorized: a NeuronState holds arrays over a homogeneous population,
and a single neuron is simply a population of size one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Remaining refractory time at or below this (ms) counts as elapsed. Guards the
# emission gate against float dust from repeated dt subtraction; it is orders of
# magnitude below any sane dt.
REFRACTORY_EPS = 1e-9


@dataclass(frozen=True)
class NeuronParams:
    """Membrane, synapse, and threshold constants shared by a population.

    Units: capacitance pF, times ms, voltages mV, currents pA. The implied
    membrane resistance R = tau_m / C_m then comes out in GOhm and R * I is mV.
    """

    C_m: float = 100.0          # membrane capacitance (pF)
    tau_m: float = 5.0          # membrane time constant (ms)
    E_L: float = -70.0          # resting / leak potential (mV)
    tau_syn_ex: float = 1.0     # excitatory alpha-kernel time constant (ms)
    tau_syn_in: float = 3.0     # inhibitory alpha-kernel time constant (ms)
    t_ref: float = 2.0          # refractory period (ms)
    tau1: float = 10.0          # fast threshold decay (ms)
    tau2: float = 20.0          # slow threshold decay (ms)
    alpha1: float = 37.0        # fast threshold jump per spike (mV)
    alpha2: float = 2.0         # slow threshold jump per spike (mV)
    omega: float = -51.0        # resting threshold (mV)

    def __post_init__(self) -> None:
        for name in ("C_m", "tau_m", "tau_syn_ex", "tau_syn_in", "tau1", "tau2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.t_ref < 0.0:
            raise ValueError(f"t_ref must be non-negative, got {self.t_ref}")
        for name in ("E_L", "alpha1", "alpha2", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def R(self) -> float:
        """Membrane resistance tau_m / C_m (GOhm)."""
        return self.tau_m / self.C_m

    @property
    def rheobase(self) -> float:
        """Minimum constant current (pA) whose steady state reaches omega."""
        return (self.omega - self.E_L) / self.R


@dataclass
class NeuronState:
    """Mutable state arrays for a population of `n` identical neurons.

    y1_*/y2_* are the two state variables of each alpha-kernel channel; y2 is
    the actual synaptic current (pA) entering the membrane equation.
    """

    V_m: np.ndarray                 # membrane potential (mV)
    h1: np.ndarray                  # fast threshold component (mV)
    h2: np.ndarray                  # slow threshold component (mV)
    y1_ex: np.ndarray               # excitatory channel, impulse stage (pA/ms)
    y2_ex: np.ndarray               # excitatory channel, current stage (pA)
    y1_in: np.ndarray
    y2_in: np.ndarray
    refractory_remaining: np.ndarray    # ms left in refractory, in [0, t_ref]
    t: float = 0.0                      # time since last reset (ms)

    @property
    def n(self) -> int:
        return self.V_m.shape[0]

    def copy(self) -> "NeuronState":
        return NeuronState(
            V_m=self.V_m.copy(), h1=self.h1.copy(), h2=self.h2.copy(),
            y1_ex=self.y1_ex.copy(), y2_ex=self.y2_ex.copy(),
            y1_in=self.y1_in.copy(), y2_in=self.y2_in.copy(),
            refractory_remaining=self.refractory_remaining.copy(), t=self.t,
        )


def new_state(n: int, params: NeuronParams) -> NeuronState:
    """Allocate a fresh population of `n` neurons at rest."""
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    z = lambda: np.zeros(n, dtype=np.float64)
    return NeuronState(
        V_m=np.full(n, params.E_L, dtype=np.float64),
        h1=z(), h2=z(), y1_ex=z(), y2_ex=z(), y1_in=z(), y2_in=z(),
        refractory_remaining=z(),
    )


def reset_state(state: NeuronState, params: NeuronParams) -> NeuronState:
    """Return the population to rest: V = E_L, empty channels, no history.

    Idempotent; values are set exactly (bit-reproducible across calls).
    """
    state.V_m.fill(params.E_L)
    for arr in (state.h1, state.h2, state.y1_ex, state.y2_ex,
                state.y1_in, state.y2_in, state.refractory_remaining):
        arr.fill(0.0)
    state.t = 0.0
    return state


@dataclass(frozen=True)
class Propagators:
    """Closed-form one-step update coefficients for the linear subsystem.

    For each channel (tau_s) and the membrane (tau_m, R), over a step of h ms:

        y1 <- P11 * y1
        y2 <- P11 * y2 + P21 * y1
        V  <- E_L + (V - E_L) * P33 + R * (1 - P33) * I_ext
              + P31 * y1 + P32 * y2        (summed over both channels)

    P31/P32 are the exact convolution of the alpha kernel with the membrane
    filter; the degenerate tau_s == tau_m case uses the analytic limit.
    """

    P33: float
    drive: float        # R * (1 - P33), multiplies the constant external current
    P11_ex: float
    P21_ex: float
    P31_ex: float
    P32_ex: float
    P11_in: float
    P21_in: float
    P31_in: float
    P32_in: float
    decay_h1: float
    decay_h2: float


def _channel_coeffs(tau_s: float, tau_m: float, R: float, h: float):
    e_s = math.exp(-h / tau_s)
    e_m = math.exp(-h / tau_m)
    bR = R / tau_m
    c = 1.0 / tau_m - 1.0 / tau_s
    u = c * h
    if abs(u) < 1e-3:
        # series around tau_s == tau_m; the generic form divides by c^2 and
        # loses all precision to cancellation in this regime
        P32 = bR * h * e_s * (1.0 - u / 2.0 + u * u / 6.0)
        P31 = bR * h * h * e_s * (0.5 - u / 6.0 + u * u / 24.0)
    else:
        P32 = bR * (e_s - e_m) / c
        P31 = bR * (h * e_s / c - (e_s - e_m) / (c * c))
    return e_s, h * e_s, P31, P32


@lru_cache(maxsize=32)
def propagators(params: NeuronParams, dt: float) -> Propagators:
    """Build (and cache) the exact step coefficients for `dt` ms."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    e_m = math.exp(-dt / params.tau_m)
    p11e, p21e, p31e, p32e = _channel_coeffs(params.tau_syn_ex, params.tau_m, params.R, dt)
    p11i, p21i, p31i, p32i = _channel_coeffs(params.tau_syn_in, params.tau_m, params.R, dt)
    return Propagators(
        P33=e_m,
        drive=params.R * (1.0 - e_m),
        P11_ex=p11e, P21_ex=p21e, P31_ex=p31e, P32_ex=p32e,
        P11_in=p11i, P21_in=p21i, P31_in=p31i, P32_in=p32i,
        decay_h1=math.exp(-dt / params.tau1),
        decay_h2=math.exp(-dt / params.tau2),
    )


def threshold_at(state: NeuronState, params: NeuronParams) -> np.ndarray:
    """Current firing threshold omega + h1 + h2 (mV) for every neuron."""
    return params.omega + state.h1 + state.h2


def deliver_spike(state: NeuronState, weight, sign: str,
                  params: NeuronParams) -> NeuronState:
    """Inject presynaptic spikes of the given total `weight` per neuron (pA).

    `weight` broadcasts over the population; several simultaneous spikes sum
    (delivering 2w once equals delivering w twice). Excitatory weights must be
    >= 0 and inhibitory <= 0; the pulse peaks at the weight itself after
    tau_syn ms.
    """
    w = np.asarray(weight, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("spike weight must be finite")
    if sign == "excitatory":
        if np.any(w < 0.0):
            raise ValueError("excitatory delivery with negative weight")
        state.y1_ex += w * (math.e / params.tau_syn_ex)
    elif sign == "inhibitory":
        if np.any(w > 0.0):
            raise ValueError("inhibitory delivery with positive weight")
        state.y1_in += w * (math.e / params.tau_syn_in)
    else:
        raise ValueError(f"unknown synapse sign {sign!r}")
    return state


def step_neuron(state: NeuronState, params: NeuronParams, I_ext, dt: float,
                validate: bool = True):
    """Advance every neuron by one step of `dt` ms under external current I_ext.

    Order within the step: exact update of membrane + synaptic channels,
    threshold decay, refractory countdown, then the spike test at the step end
    (refractory elapsed and V_m >= threshold). Threshold jumps and the
    refractory reload apply after the test, so a spike never suppresses itself.
    The membrane is not reset on spike.

    Returns (state, spiked) where spiked is a boolean mask. Spikes are stamped
    with the step's start time; state.t advances by dt.

    `validate=False` skips the finiteness checks for hot loops that have
    already validated their inputs.
    """
    P = propagators(params, dt)
    I = np.asarray(I_ext, dtype=np.float64)
    if validate:
        if not np.all(np.isfinite(I)):
            raise ValueError("non-finite external current")
        for name in ("V_m", "h1", "h2", "y1_ex", "y2_ex", "y1_in", "y2_in"):
            if not np.all(np.isfinite(getattr(state, name))):
                raise ValueError(f"non-finite neuron state in {name}")

    V, h1, h2 = state.V_m, state.h1, state.h2
    y1e, y2e, y1i, y2i = state.y1_ex, state.y2_ex, state.y1_in, state.y2_in

    # membrane first: uses the channel values at the step start
    V -= params.E_L
    V *= P.P33
    V += params.E_L + P.drive * I
    V += P.P31_ex * y1e + P.P32_ex * y2e + P.P31_in * y1i + P.P32_in * y2i

    # alpha channels (y2 before y1: P21 needs the start-of-step y1; the decay
    # factor e^(-dt/tau_s) is shared by both stages)
    y2e *= P.P11_ex
    y2e += P.P21_ex * y1e
    y1e *= P.P11_ex
    y2i *= P.P11_in
    y2i += P.P21_in * y1i
    y1i *= P.P11_in

    # threshold decay and refractory countdown
    h1 *= P.decay_h1
    h2 *= P.decay_h2
    r = state.refractory_remaining
    np.subtract(r, dt, out=r)
    np.maximum(r, 0.0, out=r)

    spiked = (r <= REFRACTORY_EPS) & (V >= params.omega + h1 + h2)
    if spiked.any():
        h1[spiked] += params.alpha1
        h2[spiked] += params.alpha2
        r[spiked] = params.t_ref
    state.t += dt
    return state, spiked
