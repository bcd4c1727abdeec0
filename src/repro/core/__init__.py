"""ParSecureML core: the user-facing secure ML framework.

Layering (bottom to top):

* :mod:`repro.core.config`   — one dataclass switching every paper
  feature on/off (pipelines, compression, Tensor Cores, placement mode);
* :mod:`repro.core.context`  — :class:`SecureContext`, wiring the client
  and two servers with simulated GPUs, channels, dealers and clocks;
* :mod:`repro.core.tensor`   — :class:`SharedTensor`, a secret-shared
  matrix with scale tracking;
* :mod:`repro.core.ops`      — secure matmul / elementwise / activation
  primitives with offline+online cost accounting;
* :mod:`repro.core.layers`   — neural layers over the ops;
* :mod:`repro.core.models`   — :data:`MODELS`, every model declared once
  (the paper's six plus attention and recsys), built secure or plain;
* :mod:`repro.core.training` / :mod:`repro.core.inference` — drivers
  that produce the phase/time/traffic reports the evaluation consumes.
"""

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.tensor import SharedTensor
from repro.core import ops
from repro.core.models import (
    SecureMLP,
    SecureCNN,
    SecureRNN,
    SecureLinearRegression,
    SecureLogisticRegression,
    SecureSVM,
)
from repro.core.resnet import SecureResNet, SecureResidualBlock
from repro.core.optim import SGD, MomentumSGD
from repro.core.checkpoint import save_model, load_model
from repro.core.training import SecureTrainer, TrainReport
from repro.core.inference import secure_predict, InferenceReport

__all__ = [
    "FrameworkConfig",
    "SecureContext",
    "SharedTensor",
    "ops",
    "SecureMLP",
    "SecureCNN",
    "SecureRNN",
    "SecureLinearRegression",
    "SecureLogisticRegression",
    "SecureSVM",
    "SecureResNet",
    "SecureResidualBlock",
    "SGD",
    "MomentumSGD",
    "save_model",
    "load_model",
    "SecureTrainer",
    "TrainReport",
    "secure_predict",
    "InferenceReport",
]
