"""Network construction: layers, projections, and teacher trains.

Four layers of identical neurons:

  input    one neuron per pixel (rows x cols), DC-driven by the encoder
  feature  0.25 * |input| neurons, trained by STDP
  inhib    same size as feature; relays feature spikes into lateral inhibition
  readout  n_classes * neurons_per_class neurons, trained by the supervised rule

Five projections, in their fixed serialization order:

  input_feat       input -> feature, all-to-all, excitatory
  feat_inhib       feature -> inhib, one-to-one, excitatory
  inhib_feat       inhib -> feature, each inhib neuron to every feature neuron
                   except its one-to-one partner, inhibitory
  feat_readout     feature -> readout, all-to-all by default (optionally each
                   readout neuron sees only its own feature partition),
                   excitatory
  readout_lateral  readout -> readout, cross-class pairs only, inhibitory

Each class also gets one teacher: a programmable spike source used purely as
the supervision signal of the readout's learning rule during phase 2. Teachers
inject no current.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .neuron import NeuronParams
from .plasticity import SynapsePopulation

PROJECTION_ORDER = ("input_feat", "feat_inhib", "inhib_feat",
                    "feat_readout", "readout_lateral")

# projection -> (pre layer, post layer)
PROJECTION_LAYERS = {"input_feat": ("input", "feature"),
                     "feat_inhib": ("feature", "inhib"),
                     "inhib_feat": ("inhib", "feature"),
                     "feat_readout": ("feature", "readout"),
                     "readout_lateral": ("readout", "readout")}


@dataclass(frozen=True)
class Layer:
    """Half-open index range [start, stop) into the global neuron array."""

    name: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to build a network deterministically."""

    rows: int = 32
    cols: int = 32
    n_classes: int = 10
    neurons_per_class: int = 10
    feature_fraction: float = 0.25      # |feature| / |input|
    seed: int = 0
    w_input_feat: float = 600.0         # mean initial weights (pA)
    w_feat_inhib: float = 490.84
    w_inhib_feat: float = -100.0
    w_feat_readout: float = 241.0       # constant init (search target)
    w_readout_lateral: float = -120.0   # constant init
    weight_jitter: float = 0.10         # +-10% uniform jitter on the first three
    feat_readout_partitioned: bool = False
    train_readout_lateral: bool = True

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.n_classes < 1 or self.neurons_per_class < 1:
            raise ValueError("n_classes and neurons_per_class must be positive")
        n_feat = self.rows * self.cols * self.feature_fraction
        if not (n_feat > 0 and abs(n_feat - round(n_feat)) < 1e-9):
            raise ValueError(
                f"rows*cols*feature_fraction must be a positive integer, got {n_feat}")
        if not (0.0 <= self.weight_jitter < 1.0):
            raise ValueError("weight_jitter must be in [0, 1)")
        if self.w_input_feat < 0 or self.w_feat_inhib < 0 or self.w_feat_readout < 0:
            raise ValueError("excitatory mean weights must be non-negative")
        if self.w_inhib_feat > 0 or self.w_readout_lateral > 0:
            raise ValueError("inhibitory mean weights must be non-positive")
        if self.feat_readout_partitioned:
            n_read = self.n_classes * self.neurons_per_class
            if int(n_feat) % n_read != 0:
                raise ValueError(
                    "partitioned readout needs |feature| divisible by |readout|")

    @property
    def n_input(self) -> int:
        return self.rows * self.cols

    @property
    def n_feature(self) -> int:
        return int(round(self.n_input * self.feature_fraction))

    @property
    def n_readout(self) -> int:
        return self.n_classes * self.neurons_per_class

    def fingerprint(self) -> str:
        """Stable hex digest of the structural fields; guards checkpoint loads.

        Only fields that determine layer sizes and connection structure are
        hashed. Initial weight scalars, jitter, and the seed stay out: saved
        weights supersede them, and the searched readout weight legitimately
        changes between phase 1 and phase 2.
        """
        structural = ("rows", "cols", "n_classes", "neurons_per_class",
                      "feature_fraction", "feat_readout_partitioned")
        fields = asdict(self)
        blob = ";".join(f"{k}={fields[k]!r}" for k in structural).encode()
        return hashlib.sha256(blob).hexdigest()


# -- connection rules -------------------------------------------------------


def connect(rule: str, n_pre: int, n_post: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate (pre_index, post_index) arrays for a wiring rule.

    Rules: "all_to_all", "one_to_one" (requires n_pre == n_post), and
    "one_to_all_except_partner" (pre i to every post except post i; requires
    n_pre == n_post). Order is pre-major and deterministic.
    """
    if n_pre < 1 or n_post < 1:
        raise ValueError("populations must be non-empty")
    if rule == "all_to_all":
        pre = np.repeat(np.arange(n_pre), n_post)
        post = np.tile(np.arange(n_post), n_pre)
    elif rule == "one_to_one":
        if n_pre != n_post:
            raise ValueError(f"one_to_one needs equal sizes, got {n_pre} != {n_post}")
        pre = np.arange(n_pre)
        post = np.arange(n_post)
    elif rule == "one_to_all_except_partner":
        if n_pre != n_post:
            raise ValueError(
                f"one_to_all_except_partner needs equal sizes, got {n_pre} != {n_post}")
        pre_g, post_g = np.meshgrid(np.arange(n_pre), np.arange(n_post), indexing="ij")
        keep = pre_g != post_g
        pre, post = pre_g[keep], post_g[keep]
    else:
        raise ValueError(f"unknown wiring rule {rule!r}")
    return pre.astype(np.int64), post.astype(np.int64)


def _cross_class_pairs(n_classes: int, per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered readout pairs whose class labels differ."""
    n = n_classes * per_class
    cls = np.arange(n) // per_class
    pre, post = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = cls[pre] != cls[post]
    return pre[keep].astype(np.int64), post[keep].astype(np.int64)


def _jittered(rng: np.random.Generator, mean: float, jitter: float, size: int) -> np.ndarray:
    lo = mean - jitter * abs(mean)
    hi = mean + jitter * abs(mean)
    return rng.uniform(lo, hi, size)


@dataclass
class NetworkTopology:
    """An assembled network: layers, projections, classes, neuron parameters."""

    config: NetworkConfig
    params: NeuronParams
    input_layer: Layer
    feature_layer: Layer
    inhib_layer: Layer
    readout_layer: Layer
    projections: dict[str, SynapsePopulation]
    class_of: np.ndarray            # readout-local index -> class id
    # PROJECTION_LAYERS resolved to this network's Layer objects, once
    wiring: dict[str, tuple[Layer, Layer]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.wiring = {name: (self.layer_of(pre), self.layer_of(post))
                       for name, (pre, post) in PROJECTION_LAYERS.items()}

    @property
    def n_neurons(self) -> int:
        return self.readout_layer.stop

    @property
    def layers(self) -> tuple[Layer, ...]:
        return (self.input_layer, self.feature_layer,
                self.inhib_layer, self.readout_layer)

    def layer_of(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def fingerprint(self) -> str:
        return self.config.fingerprint()

    def copy(self) -> "NetworkTopology":
        return NetworkTopology(
            config=self.config, params=self.params,
            input_layer=self.input_layer, feature_layer=self.feature_layer,
            inhib_layer=self.inhib_layer, readout_layer=self.readout_layer,
            projections={k: p.copy() for k, p in self.projections.items()},
            class_of=self.class_of.copy(),
        )

    def ordered_projections(self) -> list[SynapsePopulation]:
        return [self.projections[name] for name in PROJECTION_ORDER]


def build_network(cfg: NetworkConfig, params: NeuronParams | None = None) -> NetworkTopology:
    """Assemble layers and projections with seeded initial weights.

    Identical configs produce bit-identical weights; jittered draws happen in
    the fixed projection order from a single generator seeded by cfg.seed.
    """
    params = params or NeuronParams()
    n_in, n_feat, n_read = cfg.n_input, cfg.n_feature, cfg.n_readout
    input_layer = Layer("input", 0, n_in)
    feature_layer = Layer("feature", n_in, n_in + n_feat)
    inhib_layer = Layer("inhib", n_in + n_feat, n_in + 2 * n_feat)
    readout_layer = Layer("readout", n_in + 2 * n_feat, n_in + 2 * n_feat + n_read)

    rng = np.random.default_rng(cfg.seed)
    projections: dict[str, SynapsePopulation] = {}

    pre, post = connect("all_to_all", n_in, n_feat)
    projections["input_feat"] = SynapsePopulation(
        name="input_feat", pre_index=pre, post_index=post,
        weight=_jittered(rng, cfg.w_input_feat, cfg.weight_jitter, pre.size),
        sign="excitatory", n_pre=n_in, n_post=n_feat)

    pre, post = connect("one_to_one", n_feat, n_feat)
    projections["feat_inhib"] = SynapsePopulation(
        name="feat_inhib", pre_index=pre, post_index=post,
        weight=_jittered(rng, cfg.w_feat_inhib, cfg.weight_jitter, pre.size),
        sign="excitatory", n_pre=n_feat, n_post=n_feat)

    pre, post = connect("one_to_all_except_partner", n_feat, n_feat)
    projections["inhib_feat"] = SynapsePopulation(
        name="inhib_feat", pre_index=pre, post_index=post,
        weight=_jittered(rng, cfg.w_inhib_feat, cfg.weight_jitter, pre.size),
        sign="inhibitory", n_pre=n_feat, n_post=n_feat)

    if cfg.feat_readout_partitioned:
        part = n_feat // n_read
        pre = np.arange(n_feat, dtype=np.int64)
        post = (pre // part).astype(np.int64)
    else:
        pre, post = connect("all_to_all", n_feat, n_read)
    projections["feat_readout"] = SynapsePopulation(
        name="feat_readout", pre_index=pre, post_index=post,
        weight=np.full(pre.size, cfg.w_feat_readout),
        sign="excitatory", n_pre=n_feat, n_post=n_read)

    pre, post = _cross_class_pairs(cfg.n_classes, cfg.neurons_per_class)
    projections["readout_lateral"] = SynapsePopulation(
        name="readout_lateral", pre_index=pre, post_index=post,
        weight=np.full(pre.size, cfg.w_readout_lateral),
        sign="inhibitory", n_pre=n_read, n_post=n_read)

    class_of = np.arange(n_read, dtype=np.int64) // cfg.neurons_per_class
    return NetworkTopology(
        config=cfg, params=params,
        input_layer=input_layer, feature_layer=feature_layer,
        inhib_layer=inhib_layer, readout_layer=readout_layer,
        projections=projections, class_of=class_of)


def teacher_train(window: float, rate_target: int, dt: float) -> np.ndarray:
    """Evenly spaced teacher spike times at the calibrated maximum rate.

    `rate_target` spikes spread over the window at (i + 0.5) * window / target,
    snapped to the dt grid; all times are inside [0, window). During a
    presentation only the teacher of the presented class emits this train; the
    other teachers stay silent.
    """
    if rate_target < 1:
        raise ValueError(f"rate_target must be >= 1, got {rate_target}")
    spacing = window / rate_target
    if spacing < dt:
        raise ValueError(f"teacher rate {rate_target}/{window} ms finer than dt={dt}")
    times = (np.arange(rate_target) + 0.5) * spacing
    times = np.round(times / dt) * dt
    return np.minimum(times, window - dt)
