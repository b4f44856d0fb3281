"""Battery-range prediction for shared e-bike battery-swap fleets.

The package couples a message-passing encoder over the temporal
user-battery interaction graph with a softmax-attention encoder over ride
telemetry, fuses both into a scalar remaining-range prediction, and trains
against mean squared error plus a structural-similarity regularizer. It
ships with its own float64 reverse-mode tensor substrate, a counter-based
deterministic RNG, a synthetic scenario generator, and a benchmark harness
over the retained baselines.
"""

from .datagen import GeneratorConfig, Order, generate, read_dataset, write_dataset
from .graph import NodeKind, NodeRef, TemporalGraph, battery, user
from .model import LinearBaseline, MlpBaseline, ModelConfig, SebTransformer
from .optim import AdamState, Param, optimizer_step
from .rng import Rng
from .s3im import S3imConfig, s3im, s3im_regularizer
from .tensor import Tensor
from .training import TrainConfig, evaluate_mae, objective, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "GeneratorConfig",
    "LinearBaseline",
    "MlpBaseline",
    "ModelConfig",
    "NodeKind",
    "NodeRef",
    "Order",
    "Param",
    "Rng",
    "S3imConfig",
    "SebTransformer",
    "TemporalGraph",
    "Tensor",
    "TrainConfig",
    "battery",
    "evaluate_mae",
    "generate",
    "objective",
    "optimizer_step",
    "read_dataset",
    "s3im",
    "s3im_regularizer",
    "train",
    "user",
    "write_dataset",
]
