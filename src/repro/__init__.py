"""ParSecureML reproduction — parallel secure machine learning framework.

The top-level package is the public API.  Start a session, build a
model, train, read the telemetry::

    import repro

    ctx = repro.api.session()
    model = repro.SecureMLP(ctx, n_features=784)
    report = repro.SecureTrainer(ctx, model).train(x, y, max_batches=2)
    print(ctx.telemetry.report())

Re-exported here:

* :func:`repro.api.session` / :class:`SecureContext` /
  :class:`FrameworkConfig` — deployment wiring;
* :class:`SharedTensor` — a secret-shared matrix;
* the paper's six benchmark models plus :class:`SecureResNet`,
  :class:`SecureAttention`, and :class:`SecureRecsys`;
* :func:`secure_matmul` and friends — the secure op primitives;
* :class:`SecureTrainer` / :func:`secure_predict` — drivers;
* :class:`Telemetry` — the observability surface every context owns.

Deep imports (``repro.core.…``) keep working.
See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro import api
from repro.core.config import FrameworkConfig
from repro.faults import FaultPlan, PartyCrash, PartyFailure, ReliableTransport, RetryPolicy
from repro.core.context import SecureContext
from repro.core.inference import InferenceReport, secure_predict
from repro.core.models import (
    SecureCNN,
    SecureLinearRegression,
    SecureLogisticRegression,
    SecureMLP,
    SecureRNN,
    SecureSVM,
)
from repro.core.attention import SecureAttention, SecureAttentionBlock
from repro.core.ops import (
    activation,
    secure_compare_const,
    secure_elementwise_mul,
    secure_matmul,
    secure_softmax,
    truncate,
)
from repro.core.recsys import SecureEmbedding, SecureRecsys
from repro.core.resnet import SecureResNet
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer, TrainReport
from repro.serve import (
    DealerService,
    FleetRouter,
    QueueFullError,
    Replica,
    SecureServingFleet,
    ServeReport,
)
from repro.telemetry import Telemetry
from repro import audit
from repro import protocols
from repro.protocols import available_backends, get_backend
from repro.audit import (
    Transcript,
    TranscriptRecorder,
    WireAuditReport,
    audit_transcript,
    run_conformance_sweep,
)
from repro import serve

# Single source of truth for the distribution version: pyproject.toml
# reads this attribute via [tool.setuptools.dynamic].
__version__ = "1.8.0"

__all__ = [
    "api",
    "FrameworkConfig",
    "SecureContext",
    "SharedTensor",
    "Telemetry",
    "SecureMLP",
    "SecureCNN",
    "SecureRNN",
    "SecureLinearRegression",
    "SecureLogisticRegression",
    "SecureSVM",
    "SecureResNet",
    "SecureAttention",
    "SecureAttentionBlock",
    "SecureRecsys",
    "SecureEmbedding",
    "secure_matmul",
    "secure_elementwise_mul",
    "secure_softmax",
    "secure_compare_const",
    "activation",
    "truncate",
    "SecureTrainer",
    "TrainReport",
    "secure_predict",
    "InferenceReport",
    "serve",
    "Replica",
    "SecureServingFleet",
    "FleetRouter",
    "DealerService",
    "ServeReport",
    "QueueFullError",
    "FaultPlan",
    "PartyCrash",
    "PartyFailure",
    "RetryPolicy",
    "ReliableTransport",
    "audit",
    "protocols",
    "get_backend",
    "available_backends",
    "Transcript",
    "TranscriptRecorder",
    "WireAuditReport",
    "audit_transcript",
    "run_conformance_sweep",
    "__version__",
]
