"""Baselines the paper compares against.

* :mod:`repro.baselines.plain` — non-secure training/inference of the
  same models in plain floating point (built from their one
  declaration by :func:`repro.core.models.build_plain`), timed on the
  CPU (Table 1's "Original") or the simulated GPU (Table 2's "GPU time");
* :mod:`repro.baselines.secureml` — the SecureML baseline: the same
  two-party protocol stack run CPU-only with no pipelines, compression,
  or Tensor Cores, exactly the configuration the paper reimplements
  from Mohassel & Zhang [10].
"""

from repro.baselines.plain import PlainModel, PlainReport, PlainTimer, PlainTrainer
from repro.baselines.secureml import make_secureml_context, make_parsecureml_context

__all__ = [
    "PlainModel",
    "PlainReport",
    "PlainTimer",
    "PlainTrainer",
    "make_secureml_context",
    "make_parsecureml_context",
]
