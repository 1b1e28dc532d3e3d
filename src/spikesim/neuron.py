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
and a single neuron is simply a population of size one. Every operation is
elementwise, so a state of shape (images, neurons) steps a batch of images
at once, each row exactly as it would step alone. A simulation loop prepares
one StepKernel and calls it once per step; step_neuron is a single call of
one. Likewise a loop checks its weights once and delivers through the same
unchecked arithmetic that deliver_spike runs after its per-call checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    @property
    def n(self) -> int:
        return self.V_m.shape[-1]


def new_state(n: int | tuple[int, int], params: NeuronParams) -> NeuronState:
    """Allocate a fresh population of `n` neurons at rest; `n` may also be a
    shape (images, neurons), one row of state per image of a batch."""
    shape = (n,) if np.ndim(n) == 0 else tuple(n)
    if min(shape) < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    z = lambda: np.zeros(shape, dtype=np.float64)
    return NeuronState(
        V_m=np.full(shape, params.E_L, dtype=np.float64),
        h1=z(), h2=z(), y1_ex=z(), y2_ex=z(), y1_in=z(), y2_in=z(),
        refractory_remaining=z(),
    )


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


# the impulse stage y1 and the time constant of each sign's channel
_CHANNELS = {"excitatory": ("y1_ex", "tau_syn_ex"), "inhibitory": ("y1_in", "tau_syn_in")}


def _check_delivery(weight, sign: str) -> None:
    """Refuse a delivery weight that is not finite or has the wrong sign:
    excitatory weights must be >= 0, inhibitory <= 0."""
    if sign not in _CHANNELS:
        raise ValueError(f"unknown synapse sign {sign!r}")
    w = np.asarray(weight, dtype=np.float64)
    if not w.size:
        return
    # two reductions and no temporary the size of a weight matrix; a NaN
    # makes both of them NaN
    lo, hi = float(w.min()), float(w.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("spike weight must be finite")
    if sign == "excitatory" and lo < 0.0:
        raise ValueError("excitatory delivery with negative weight")
    if sign == "inhibitory" and hi > 0.0:
        raise ValueError("inhibitory delivery with positive weight")


def _channel(state: NeuronState, sign: str, params: NeuronParams) -> tuple[np.ndarray, np.ndarray]:
    """The y1 array of `sign`'s channel and the factor e / tau_syn that a
    delivery scales its weight by (a 0-d float64, see StepKernel)."""
    y1, tau = _CHANNELS[sign]
    return getattr(state, y1), np.array(math.e / getattr(params, tau))


def _inject(y1: np.ndarray, weight, gain: np.ndarray) -> None:
    """The arithmetic of a delivery, unchecked: y1 += weight * gain."""
    y1 += weight * gain


def deliver_spike(state: NeuronState, weight, sign: str,
                  params: NeuronParams) -> NeuronState:
    """Inject presynaptic spikes of the given total `weight` per neuron (pA).

    `weight` broadcasts over the population; several simultaneous spikes sum
    (delivering 2w once equals delivering w twice). Excitatory weights must be
    >= 0 and inhibitory <= 0; the pulse peaks at the weight itself after
    tau_syn ms.

    Every call checks the weight and looks up the channel; a simulation loop
    checks its weights once and delivers through the unchecked arithmetic,
    as the engine does.
    """
    w = np.asarray(weight, dtype=np.float64)
    _check_delivery(w, sign)
    y1, gain = _channel(state, sign, params)
    _inject(y1, w, gain)
    return state


class StepKernel:
    """The neuron step of one simulation loop, prepared once.

    Built for one `state`, `params`, `dt` and a fixed external current
    `I_ext`: it fetches the propagators and computes the constant drive
    E_L + drive * I_ext once, and allocates the scratch the step needs. Each
    call advances every neuron by one step of `dt` ms, updating the state's
    arrays in place (they must not be replaced while the kernel is in use),
    and returns the flat ids (into the raveled state) of the neurons that
    spiked, ascending; `spiked` holds the same step's boolean mask until the
    next call overwrites it.

    Order within the step: exact update of membrane + synaptic channels,
    threshold decay, refractory countdown, then the spike test at the step end
    (refractory elapsed and V_m >= threshold). Threshold jumps and the
    refractory reload apply after the test, so a spike never suppresses itself.
    The membrane is not reset on spike. The current and the state are
    checked for finiteness once, here.
    """

    def __init__(self, state: NeuronState, params: NeuronParams, I_ext, dt: float) -> None:
        P = propagators(params, dt)
        I = np.asarray(I_ext, dtype=np.float64)
        if not np.all(np.isfinite(I)):
            raise ValueError("non-finite external current")
        for name in ("V_m", "h1", "h2", "y1_ex", "y2_ex", "y1_in", "y2_in"):
            if not np.all(np.isfinite(getattr(state, name))):
                raise ValueError(f"non-finite neuron state in {name}")
        self.state = state
        self._drive = params.E_L + P.drive * I
        # as 0-d float64 arrays: numpy converts a Python float operand on
        # every call, which costs more than the arithmetic on a few hundred
        # neurons; the results are the same float64 operations
        self._consts = tuple(np.array(c, dtype=np.float64) for c in (
            params.E_L, P.P33, P.P31_ex, P.P32_ex, P.P31_in, P.P32_in,
            P.P11_ex, P.P21_ex, P.P11_in, P.P21_in, P.decay_h1, P.decay_h2,
            dt, 0.0, params.omega, REFRACTORY_EPS, params.alpha1, params.alpha2,
            params.t_ref))
        shape = state.V_m.shape
        self._sum, self._term = np.empty(shape), np.empty(shape)
        self.spiked, self._ready = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        # flat views, for the updates by id
        flat = (self.spiked, state.h1, state.h2, state.refractory_remaining)
        self._flat = tuple(a.reshape(-1) for a in flat)
        if not all(map(np.may_share_memory, self._flat, flat)):
            raise ValueError("neuron state arrays must have a flat view (e.g. C-contiguous)")

    def __call__(self) -> np.ndarray:
        (E_L, P33, P31e, P32e, P31i, P32i, P11e, P21e, P11i, P21i, decay_h1, decay_h2,
         dt, zero, omega, eps, alpha1, alpha2, t_ref) = self._consts
        s, acc, term = self.state, self._sum, self._term
        V, h1, h2, r = s.V_m, s.h1, s.h2, s.refractory_remaining
        y1e, y2e, y1i, y2i = s.y1_ex, s.y2_ex, s.y1_in, s.y2_in

        # membrane first: uses the channel values at the step start; the
        # channel terms sum left to right, ((ex1 + ex2) + in1) + in2
        V -= E_L
        V *= P33
        V += self._drive
        np.multiply(y1e, P31e, out=acc)
        np.multiply(y2e, P32e, out=term)
        acc += term
        np.multiply(y1i, P31i, out=term)
        acc += term
        np.multiply(y2i, P32i, out=term)
        acc += term
        V += acc

        # alpha channels (y2 before y1: P21 needs the start-of-step y1; the decay
        # factor e^(-dt/tau_s) is shared by both stages)
        y2e *= P11e
        np.multiply(y1e, P21e, out=term)
        y2e += term
        y1e *= P11e
        y2i *= P11i
        np.multiply(y1i, P21i, out=term)
        y2i += term
        y1i *= P11i

        # threshold decay and refractory countdown
        h1 *= decay_h1
        h2 *= decay_h2
        np.subtract(r, dt, out=r)
        np.maximum(r, zero, out=r)

        # spike test against the threshold (omega + h1) + h2
        np.add(h1, omega, out=acc)
        acc += h2
        np.greater_equal(V, acc, out=self.spiked)
        np.less_equal(r, eps, out=self._ready)
        self.spiked &= self._ready
        spiked, h1, h2, r = self._flat
        ids = spiked.nonzero()[0]
        if ids.size:
            h1[ids] += alpha1
            h2[ids] += alpha2
            r[ids] = t_ref
        return ids


def step_neuron(state: NeuronState, params: NeuronParams, I_ext, dt: float):
    """Advance every neuron by one step of `dt` ms under external current I_ext:
    one call of a StepKernel prepared for it, whose docstring gives the order
    of the step.

    Returns (state, spiked) where spiked is a boolean mask over the state.
    Spikes are stamped with the step's start time.

    Every call prepares a kernel: it fetches the propagators, allocates the
    scratch and checks the current and the state for finiteness. A
    simulation loop prepares one StepKernel instead and calls it once per
    step.
    """
    kernel = StepKernel(state, params, I_ext, dt)
    kernel()
    return state, kernel.spiked
