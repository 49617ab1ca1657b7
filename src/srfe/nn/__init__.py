"""From-scratch CNN: layers, model, optimizer, training loop, checkpoints.

Everything runs on plain numpy arrays in NHWC layout.  Training is float32;
the gradient checker builds the same code path in float64.
"""

from .model import ConvNet
from .optim import AdamState, adam_step, init_adam
from .schedule import PlateauPolicy
from .train import TrainConfig, TrainHistory, evaluate, train
from .checkpoint import load_checkpoint, read_history_csv, save_checkpoint, write_history_csv
from .gradcheck import max_relative_gradient_error

__all__ = [
    "ConvNet",
    "AdamState",
    "init_adam",
    "adam_step",
    "PlateauPolicy",
    "TrainConfig",
    "TrainHistory",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "write_history_csv",
    "read_history_csv",
    "max_relative_gradient_error",
]
