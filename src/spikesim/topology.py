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

Each is wired by a boolean (pre, post) mask from one rule table, `_MASKS`:
its connections are the True cells, pre-major, which is the checkpoint order.
The projection keeps that mask beside its weight matrix and stores nothing
per connection.

The layers are declared once, in neuron-index order and grouped into the two
simulation stages, in `STAGES`: input, feature and inhib, then readout.
Spikes flow only forward between stages, so once phase 1 ends the lower
stage is a fixed function of the image.

Each class also gets one teacher: a programmable spike source used purely as
the supervision signal of the readout's learning rule during phase 2. Teachers
inject no current.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .neuron import NeuronParams, _require_finite
from .plasticity import SynapsePopulation

# every layer, in neuron-index order, grouped into simulation stages. The
# split is the training phases': the lower stage is what phase 1 trains by
# STDP and what later calls replay from its raster, the readout what phase 2
# trains. Nesting keeps each stage a contiguous range of neuron ids.
STAGES = (("input", "feature", "inhib"), ("readout",))

# every projection, in serialization order: pre layer, post layer, sign and
# wiring rule, a key of the rule table `_MASKS`
PROJECTIONS = {"input_feat": ("input", "feature", "excitatory", "all_to_all"),
               "feat_inhib": ("feature", "inhib", "excitatory", "one_to_one"),
               "inhib_feat": ("inhib", "feature", "inhibitory", "one_to_all_except_partner"),
               "feat_readout": ("feature", "readout", "excitatory", "partitionable"),
               "readout_lateral": ("readout", "readout", "inhibitory", "cross_class")}
PROJECTION_ORDER = tuple(PROJECTIONS)


def check_stages(stages, projections) -> None:
    """Refuse a projection table like PROJECTIONS in which a projection runs
    from a stage back into an earlier one: a stage may feed itself and later
    stages only, else it could not be simulated before the later one."""
    stage_of = {name: i for i, stage in enumerate(stages) for name in stage}
    for proj, (pre, post, *_) in projections.items():
        if stage_of[pre] > stage_of[post]:
            raise ValueError(
                f"projection {proj} runs from stage {stages[stage_of[pre]]} back into "
                f"the earlier stage {stages[stage_of[post]]}")


check_stages(STAGES, PROJECTIONS)


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
        _require_finite(self)
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name, (_, _, sign, _) in PROJECTIONS.items():
            w = getattr(self, f"w_{name}")
            if w < 0 if sign == "excitatory" else w > 0:
                bound = "non-negative" if sign == "excitatory" else "non-positive"
                raise ValueError(f"w_{name} must be {bound} ({sign} projection), got {w}")
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

# every wiring rule: its (pre, post) connection mask from pre ids as a column,
# post ids as a row and the config. The first three read only the ids. The
# readout's two read the config: "partitionable" gives each readout neuron only
# its own feature partition under feat_readout_partitioned, else all of them,
# and "cross_class" pairs readout neurons of different classes.
_MASKS = {
    "all_to_all": lambda pre, post, cfg: True,
    "one_to_one": lambda pre, post, cfg: pre == post,
    "one_to_all_except_partner": lambda pre, post, cfg: pre != post,
    "partitionable": lambda pre, post, cfg: (not cfg.feat_readout_partitioned
                                             or pre // (pre.size // post.size) == post),
    "cross_class": lambda pre, post, cfg: (pre // cfg.neurons_per_class
                                           != post // cfg.neurons_per_class),
}


def _wire(rule: str, n_pre: int, n_post: int,
          cfg: NetworkConfig | None = None) -> np.ndarray:
    """The boolean (n_pre, n_post) connection mask of a `_MASKS` rule."""
    if rule in ("one_to_one", "one_to_all_except_partner") and n_pre != n_post:
        raise ValueError(f"{rule} needs equal sizes, got {n_pre} != {n_post}")
    mask = _MASKS[rule](np.arange(n_pre)[:, None], np.arange(n_post), cfg)
    return np.broadcast_to(mask, (n_pre, n_post))


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
    # STAGES resolved to this network's Layer objects, and flat
    stages: tuple[tuple[Layer, ...], ...] = field(init=False, repr=False)
    layers: tuple[Layer, ...] = field(init=False, repr=False)
    # PROJECTIONS' pre and post layers resolved to this network's Layer objects
    wiring: dict[str, tuple[Layer, Layer]] = field(init=False, repr=False)
    # the projections into the lower stage: phase 1 trains them, phase 2
    # freezes them, and a phase-1 checkpoint hands them over
    lower_projections = tuple(name for name, (_, post, *_) in PROJECTIONS.items()
                              if post not in STAGES[-1])

    def __post_init__(self) -> None:
        self.stages = tuple(tuple(getattr(self, f"{name}_layer") for name in stage)
                            for stage in STAGES)
        self.layers = sum(self.stages, ())
        self.wiring = {name: (self.layer_of(pre), self.layer_of(post))
                       for name, (pre, post, *_) in PROJECTIONS.items()}

    @property
    def n_neurons(self) -> int:
        return self.layers[-1].stop

    def layer_of(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def fingerprint(self) -> str:
        return self.config.fingerprint()

    def copy(self) -> "NetworkTopology":
        return replace(self, projections={k: p.copy() for k, p in self.projections.items()},
                       class_of=self.class_of.copy())

    def ordered_projections(self) -> list[SynapsePopulation]:
        return [self.projections[name] for name in PROJECTION_ORDER]


def build_network(cfg: NetworkConfig, params: NeuronParams | None = None) -> NetworkTopology:
    """Assemble layers and projections with seeded initial weights.

    Identical configs produce bit-identical weights; jittered draws happen in
    PROJECTIONS order from a single generator seeded by cfg.seed.
    """
    params = params or NeuronParams()
    sizes = {"input": cfg.n_input, "feature": cfg.n_feature, "inhib": cfg.n_feature,
             "readout": cfg.n_readout}
    layers, start = {}, 0
    for name in sum(STAGES, ()):
        layers[name] = Layer(name, start, start + sizes[name])
        start += sizes[name]
    rng = np.random.default_rng(cfg.seed)
    projections: dict[str, SynapsePopulation] = {}
    for name, (pre_layer, post_layer, sign, rule) in PROJECTIONS.items():
        n_pre, n_post = layers[pre_layer].size, layers[post_layer].size
        connected = _wire(rule, n_pre, n_post, cfg)
        n = np.count_nonzero(connected)
        mean = getattr(cfg, f"w_{name}")
        # jittered into the lower stage, constant into the last (the
        # readout, whose feature weight the search sets)
        weight = (np.full(n, mean) if post_layer in STAGES[-1]
                  else _jittered(rng, mean, cfg.weight_jitter, n))
        projections[name] = SynapsePopulation(name, connected, weight, sign)

    class_of = np.arange(cfg.n_readout, dtype=np.int64) // cfg.neurons_per_class
    return NetworkTopology(
        config=cfg, params=params, **{f"{name}_layer": layer for name, layer in layers.items()},
        projections=projections, class_of=class_of)


def teacher_train(window: float, rate_target: int, dt: float) -> np.ndarray:
    """Evenly spaced teacher spike times at the calibrated maximum rate.

    `rate_target` spikes spread over the window at (i + 0.5) * window / target,
    snapped to the dt grid; all times are inside [0, window), and a rate whose
    snapped times would not be strictly increasing is refused. During a
    presentation only the teacher of the presented class emits this train; the
    other teachers stay silent.
    """
    if rate_target < 1:
        raise ValueError(f"rate_target must be >= 1, got {rate_target}")
    spacing = window / rate_target
    if spacing < dt:
        raise ValueError(f"teacher rate {rate_target}/{window} ms finer than dt={dt}")
    times = (np.arange(rate_target) + 0.5) * spacing
    times = np.minimum(np.round(times / dt) * dt, window - dt)
    if not (np.diff(times) > 0.0).all():
        raise ValueError(f"teacher rate {rate_target}/{window} ms: spike times "
                         f"collide once snapped to dt={dt}")
    return times
