"""Clock-driven spiking network simulator and image classification pipeline.

Adaptive-threshold LIF neurons integrated with exact exponential propagators,
trace-based STDP and a supervised teacher-window rule, a fixed four-layer
topology with lateral inhibition, rate-coded DC input currents, and a
deterministic two-phase training protocol with binary checkpoints.
"""

__version__ = "0.1.0"

from .encoding import EncodingConfig, calibrate_ik, encode_image
from .errors import DataFormatError, NumericError, UsageError
from .neuron import (NeuronParams, NeuronState, deliver_spike, new_state,
                     step_neuron, threshold_at)
from .plasticity import (ResumeParams, StdpParams, SynapsePopulation,
                         decay_traces, freeze, resume_update, resume_window,
                         stdp_on_post, stdp_on_pre)
from .records import SpikeRecord
from .topology import (Layer, NetworkConfig, NetworkTopology, build_network,
                       teacher_train)
from .dataio import (Checkpoint, Dataset, ImageSample, load_checkpoint,
                     load_cifar10, make_synthetic, save_checkpoint)
from .training import (ClassificationResult, EvaluationReport, SearchResult,
                       SimulationConfig, classify, evaluate, frozen_eval_net,
                       monte_carlo_weight_search, present_image, run_phase1,
                       run_phase2)

__all__ = [
    "__version__",
    "NeuronParams", "NeuronState", "new_state", "step_neuron",
    "threshold_at", "deliver_spike",
    "StdpParams", "ResumeParams", "SynapsePopulation", "stdp_on_pre",
    "stdp_on_post", "decay_traces", "resume_window", "resume_update", "freeze",
    "SpikeRecord",
    "EncodingConfig", "encode_image", "calibrate_ik",
    "Layer", "NetworkConfig", "NetworkTopology", "build_network",
    "teacher_train",
    "Dataset", "ImageSample", "load_cifar10", "make_synthetic",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "SimulationConfig", "ClassificationResult", "EvaluationReport",
    "SearchResult", "present_image", "classify", "evaluate", "frozen_eval_net",
    "run_phase1", "run_phase2", "monte_carlo_weight_search",
    "UsageError", "DataFormatError", "NumericError",
]
