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

State is vectorized: a NeuronState holds rows over a homogeneous population,
and a single neuron is simply a population of size one. Every operation is
elementwise, so a state of shape (images, neurons) steps a batch of images
at once, each row exactly as it would step alone. A simulation loop prepares
one StepKernel and calls it once per step; step_neuron is a single call of
one. A small population that receives no synapses, as in calibration, steps
with a kernel that leaves out the alpha channels, which stay exactly zero.
Likewise a loop checks its weights once and delivers through the same
unchecked arithmetic that deliver_spike runs after its per-call checks.

Exact integration makes the step a fixed linear map per element: once the
channel products are taken from the start-of-step values, V, every channel
stage and both threshold components update by one multiply each. So a
NeuronState is one buffer whose rows are its fields, each group of rows that
the step updates alike a contiguous run, and a kernel for a small population
(at most FUSE_MAX elements) steps each group with one numpy call against a
coefficient array of the rows' constants side by side. At the toy's sizes a
step costs numpy's per-call overhead, so fewer calls make a cheaper step; on
larger populations the coefficient arrays' memory traffic costs more than the
calls save, and the kernel steps each row with its own call. Every element
gets the same float64 operations in the same order either way.

Most steps of a nearly silent network find no neuron refractory. There the
refractory countdown, its clamp at zero and the emission gate change nothing
(0 - dt clamps back to +0.0, and every neuron may fire), so a kernel counts
the steps since the last spike and leaves those three operations out once
every refractory time is back at +0.0: a silent step of the toy's one-buffer
populations makes 13 numpy calls instead of 16.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

# Remaining refractory time at or below this (ms) counts as elapsed. Guards the
# emission gate against float dust from repeated dt subtraction; it is orders of
# magnitude below any sane dt.
REFRACTORY_EPS = 1e-9

# A StepKernel steps the state buffer of a population of at most this many
# elements, batch included, a group of rows per call (see the module
# docstring). Set from a sweep of the step's time against the per-array calls.
FUSE_MAX = 1280


def _require_finite(config) -> None:
    """Refuse a config dataclass with a non-finite number in any field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _window_steps(window: float, dt: float) -> int:
    """The number of `dt` ms steps in a window of `window` ms; refuses a dt
    that is not positive and finite and a window that is not a positive
    multiple of dt (to within 1e-6 ms)."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n = round(window / dt) if math.isfinite(window) else 0
    if n < 1 or abs(n * dt - window) > 1e-6:
        raise ValueError(f"window {window} must be a positive multiple of dt {dt}")
    return n


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
        _require_finite(self)
        for name in ("C_m", "tau_m", "tau_syn_ex", "tau_syn_in", "tau1", "tau2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.t_ref < 0.0:
            raise ValueError(f"t_ref must be non-negative, got {self.t_ref}")

    @property
    def R(self) -> float:
        """Membrane resistance tau_m / C_m (GOhm)."""
        return self.tau_m / self.C_m

    @property
    def rheobase(self) -> float:
        """Minimum constant current (pA) whose steady state reaches omega."""
        return (self.omega - self.E_L) / self.R


# the rows of a state's buffer: each group that a StepKernel updates with one
# call, [r, V], [y2, y1], y1, [V .. h2] and [V, y2], is a contiguous run
_ROWS = ("refractory_remaining", "V_m", "y2_ex", "y2_in", "y1_ex", "y1_in", "h1", "h2")


def _row(name: str, doc: str) -> property:
    k = _ROWS.index(name)
    return property(lambda self: self._buf[k], doc=doc)


class NeuronState:
    """Mutable state of a population of identical neurons: one float64 buffer
    `buf` of shape (8,) + shape, for a population of shape (neurons,) or
    (images, neurons), whose rows are the fields below in _ROWS order, so that
    a StepKernel steps each run of rows that it updates alike with one call.
    A field is the read-only view of its row; write into it in place.
    y1_*/y2_* are the two state variables of each alpha-kernel channel; y2 is
    the actual synaptic current (pA) entering the membrane equation.

    The constructor copies the eight fields, which must share one shape of at
    least one dimension and one neuron, into a new float64 buffer, whatever
    their dtype; new_state makes a state at rest.
    """

    __slots__ = ("_buf",)

    def __init__(self, V_m, h1, h2, y1_ex, y2_ex, y1_in, y2_in, refractory_remaining) -> None:
        given = {"V_m": V_m, "h1": h1, "h2": h2, "y1_ex": y1_ex, "y2_ex": y2_ex,
                 "y1_in": y1_in, "y2_in": y2_in, "refractory_remaining": refractory_remaining}
        shape = np.shape(V_m)
        if not shape or 0 in shape:
            raise ValueError(f"V_m has shape {shape}: a state needs at least one "
                             "dimension and one neuron")
        for name, value in given.items():
            if np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, not V_m's {shape}")
        self._buf = np.array([given[name] for name in _ROWS], dtype=np.float64)

    buf = property(lambda self: self._buf, doc="the (8,) + shape state buffer")
    V_m = _row("V_m", "membrane potential (mV)")
    h1 = _row("h1", "fast threshold component (mV)")
    h2 = _row("h2", "slow threshold component (mV)")
    y1_ex = _row("y1_ex", "excitatory channel, impulse stage (pA/ms)")
    y2_ex = _row("y2_ex", "excitatory channel, current stage (pA)")
    y1_in = _row("y1_in", "inhibitory channel, impulse stage (pA/ms)")
    y2_in = _row("y2_in", "inhibitory channel, current stage (pA)")
    refractory_remaining = _row("refractory_remaining", "ms left in refractory, in [0, t_ref]")


def new_state(n: int | tuple[int, int], params: NeuronParams) -> NeuronState:
    """Allocate a fresh population of `n` neurons at rest; `n` may also be a
    shape (images, neurons), one row of state per image of a batch."""
    shape = (n,) if np.ndim(n) == 0 else tuple(n)
    if min(shape) < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    state = NeuronState.__new__(NeuronState)
    state._buf = np.zeros((len(_ROWS),) + shape, dtype=np.float64)
    state.V_m[...] = params.E_L
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


def _frozen(value) -> np.ndarray:
    """`value` as a read-only float64 array, safe to share between kernels."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _step_constants(params: NeuronParams, dt: float):
    """What every StepKernel for `params` and `dt` reads, made once: the
    propagators, and the step's constants as read-only 0-d float64 arrays.
    numpy converts a Python float operand on every call, which costs more
    than the arithmetic on a few hundred neurons; a 0-d array gives the same
    float64 operations."""
    P = propagators(params, dt)
    consts = tuple(map(_frozen, (params.E_L, P.P33, P.decay_h1, P.decay_h2, dt, 0.0,
                                 params.omega, REFRACTORY_EPS, params.alpha1,
                                 params.alpha2, params.t_ref)))
    channels = tuple(map(_frozen, (P.P31_ex, P.P32_ex, P.P31_in, P.P32_in,
                                   P.P11_ex, P.P21_ex, P.P11_in, P.P21_in)))
    return P, consts, channels


@lru_cache(maxsize=32)
def _buffer_coefficients(params: NeuronParams, dt: float, size: int) -> tuple[np.ndarray, ...]:
    """Read-only coefficient arrays for the groups of rows of a fused step
    (see StepKernel) over a state buffer of `size`-element rows: each row's
    constant over `size` entries."""
    P = propagators(params, dt)
    return tuple(_frozen(np.repeat(group, size)) for group in (
        (dt, params.E_L), (P.P32_ex, P.P32_in, P.P31_ex, P.P31_in), (P.P21_ex, P.P21_in),
        (P.P33, P.P11_ex, P.P11_in, P.P11_ex, P.P11_in, P.decay_h1, P.decay_h2)))


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
    `I_ext` that broadcasts to the state's shape: it computes the constant
    drive E_L + drive * I_ext once, fetches the step's constants (cached per
    params and dt), takes the state's rows and allocates the scratch the
    step needs. Each call advances every neuron by one step of `dt` ms,
    updating the state's buffer in place (only the kernel may write
    refractory_remaining while it is in use), and returns the flat ids (into
    the raveled state) of the neurons that spiked, ascending; `spiked` holds
    the same step's boolean mask until the next call overwrites it.

    Order within the step: exact update of membrane + synaptic channels,
    threshold decay, refractory countdown, then the spike test at the step end
    (refractory elapsed and V_m >= threshold). Threshold jumps and the
    refractory reload apply after the test, so a spike never suppresses itself.
    The membrane is not reset on spike. The current and every state row are
    checked for finiteness once, here, and refractory_remaining for its range
    [0, t_ref].

    A step is "hot" while some refractory_remaining may not be +0.0: from the
    first step when the state starts with any r other than +0.0, and for
    ceil(t_ref / dt) + 1 steps after every step with a spike, the r = t_ref it
    sets having counted down to 0 by then. When that count runs out, one
    r.any() confirms that every r is 0, or the count starts again. A "cold"
    step leaves out the refractory countdown, its clamp and the emission gate,
    which there would map each r = +0.0 to max(0 - dt, 0) = +0.0 and let every
    neuron fire; so it gives the same ids, `spiked` mask and state bits.

    The layout of the step follows the population's size alone. With at most
    FUSE_MAX elements, batch included, the kernel is `fused` and runs each
    group of rows that it updates alike as one numpy call against a
    coefficient array as long as the group (cached per params, dt and size):
    [r, V] -= [dt, E_L] (V -= E_L on a cold step); the products [y2, y1] *
    [P32, P31] and y1 * P21 of the start-of-step values; the rows V to h2 *=
    [P33, P11, P11, decay_h1, decay_h2]; [V, y2] += [drive, y1 * P21]. A
    silent step makes 16 numpy calls hot and 13 cold. Otherwise the kernel
    steps each row with its own call against 0-d constants, 29 calls hot and
    25 cold. Both give every element the same float64 operations in the same
    order, the channel terms of the membrane summed as
    ((y1_ex * P31_ex + y2_ex * P32_ex) + y1_in * P31_in) + y2_in * P32_in,
    so they give the same ids and the same state bits.

    With `synapses=False` the kernel serves a population that receives no
    spikes (calibration's): a fused step leaves out the channel products,
    their terms in the membrane and the channel updates, 10 numpy calls for a
    silent hot step (its one multiply keeps the zero channel rows zero) and 7
    for a cold one; a per-array kernel takes the full step. Each channel is
    its own linear subsystem, so at zero it stays zero and adds a zero to V_m,
    and the step gives the same ids and the same state bits (a V_m of exactly
    -0.0 may keep a sign that the full step would clear). The constructor
    refuses a state whose channels are not all zero, since a fused kernel
    would never integrate them.
    """

    def __init__(self, state: NeuronState, params: NeuronParams, I_ext, dt: float,
                 synapses: bool = True) -> None:
        P, self._consts, self._channel_consts = _step_constants(params, dt)
        I = np.asarray(I_ext, dtype=np.float64)
        buf = state.buf
        shape, n = buf.shape[1:], buf[0].size
        if I.ndim > len(shape) or any(a not in (1, b) for a, b in zip(I.shape[::-1], shape[::-1])):
            raise ValueError(f"external current of shape {I.shape} does not broadcast "
                             f"to the state's shape {shape}")
        if not np.isfinite(I).all():
            raise ValueError("non-finite external current")
        self.fused = n <= FUSE_MAX
        # row by row on a large state, where a whole-buffer pass makes an 8n temporary
        if not (self.fused and np.isfinite(buf).all()):
            for name, row in zip(_ROWS, buf):
                if not np.isfinite(row).all():
                    raise ValueError(f"non-finite neuron state in {name}")
        self._rows = r, V, y2e, y2i, y1e, y1i, h1, h2 = tuple(buf)
        if not ((r >= 0.0) & (r <= params.t_ref)).all():
            raise ValueError(f"refractory_remaining outside [0, t_ref] = [0, {params.t_ref}]")
        if not synapses:
            for name, row in zip(_ROWS[2:6], buf[2:6]):    # the channel rows
                if np.any(row):
                    raise ValueError(f"{name} is not all zero, and a kernel without "
                                     "synapses never integrates it")
        self.state, self.synapses = state, synapses
        # the hot steps left (see the class docstring): a spike's r = t_ref
        # reaches 0 within ceil(t_ref / dt) steps, and one more step clears
        # the dust that repeated subtraction can leave; an r of -0.0 counts
        # as hot, since the countdown's clamp makes it +0.0
        self._reload = math.ceil(params.t_ref / dt) + 1
        self._hot = self._reload if r.any() or np.signbit(r).any() else 0
        self._drive = params.E_L + P.drive * I
        self._sum = np.empty(shape)
        self.spiked, self._ready = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        # flat views, for the updates by id
        self._flat = tuple(a.reshape(-1) for a in (self.spiked, h1, h2, r))
        if self.fused:
            # buf's rows r, V, y2 (2), y1 (2), h (2) are runs of n; scratch for
            # the products [ex2, in2, ex1, in1], and the drive beside y1 * P21
            flat = buf.reshape(-1)
            terms, added = np.empty((4,) + shape), np.empty((3,) + shape)
            added[0] = self._drive
            self._groups = (flat[:2 * n], flat[2 * n:6 * n], flat[4 * n:6 * n], flat[n:],
                            flat[n:4 * n], terms.reshape(-1), added[1:].reshape(-1),
                            added.reshape(-1), *terms,
                            *_buffer_coefficients(params, dt, n))
        else:
            self._term = np.empty(shape)

    def __call__(self) -> np.ndarray:
        E_L, P33, decay_h1, decay_h2, dt, zero, omega, eps, alpha1, alpha2, t_ref = self._consts
        r, V, y2e, y2i, y1e, y1i, h1, h2 = self._rows
        acc, hot = self._sum, self._hot

        if self.fused:
            (rV, channels, y1, tail, Vy2, terms, y1P21, added, ex2, in2, ex1, in1,
             c_rV, c_channels, c_y1, c_tail) = self._groups
            if hot:
                np.subtract(rV, c_rV, out=rV)
            else:
                V -= E_L    # the V row of the same subtract
            if not self.synapses:
                tail *= c_tail
                V += self._drive
            else:
                # the products from the start-of-step values; the channel
                # terms sum left to right, ((ex1 + ex2) + in1) + in2
                np.multiply(channels, c_channels, out=terms)
                np.multiply(y1, c_y1, out=y1P21)
                tail *= c_tail
                Vy2 += added
                np.add(ex1, ex2, out=acc)
                acc += in1
                acc += in2
                V += acc
        else:
            # membrane first: uses the channel values at the step start; the
            # channel terms sum left to right, ((ex1 + ex2) + in1) + in2
            V -= E_L
            V *= P33
            V += self._drive
            P31e, P32e, P31i, P32i, P11e, P21e, P11i, P21i = self._channel_consts
            term = self._term
            np.multiply(y1e, P31e, out=acc)
            np.multiply(y2e, P32e, out=term)
            acc += term
            np.multiply(y1i, P31i, out=term)
            acc += term
            np.multiply(y2i, P32i, out=term)
            acc += term
            V += acc

            # alpha channels (y2 before y1: P21 needs the start-of-step y1; the
            # decay factor e^(-dt/tau_s) is shared by both stages)
            y2e *= P11e
            np.multiply(y1e, P21e, out=term)
            y2e += term
            y1e *= P11e
            y2i *= P11i
            np.multiply(y1i, P21i, out=term)
            y2i += term
            y1i *= P11i
            # threshold decay
            h1 *= decay_h1
            h2 *= decay_h2

        # refractory countdown, on a hot step only (the fused subtract has
        # counted r down with V)
        if hot:
            if not self.fused:
                np.subtract(r, dt, out=r)
            np.maximum(r, zero, out=r)

        # spike test against the threshold (omega + h1) + h2, gated by the
        # refractory time on a hot step only
        np.add(h1, omega, out=acc)
        acc += h2
        np.greater_equal(V, acc, out=self.spiked)
        if hot:
            np.less_equal(r, eps, out=self._ready)
            self.spiked &= self._ready
        spiked, h1, h2, r = self._flat
        ids = spiked.nonzero()[0]
        if ids.size:
            h1[ids] += alpha1
            h2[ids] += alpha2
            r[ids] = t_ref
            self._hot = self._reload
        elif hot > 1:
            self._hot = hot - 1
        elif hot:
            # the count has run out: go cold once every r is 0
            self._hot = self._reload if r.any() else 0
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
