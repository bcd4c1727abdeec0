"""Baselines the paper compares against.

* :mod:`repro.baselines.plain` — non-secure training/inference of the
  same models in plain floating point (built from their one
  declaration by :func:`repro.core.models.build_plain`), timed on the
  CPU (Table 1's "Original") or the simulated GPU (Table 2's "GPU time").

The SecureML baseline is no module: it is the same two-party protocol
stack under :meth:`~repro.core.config.FrameworkConfig.secureml`.
"""

from repro.baselines.plain import PlainModel, PlainReport, PlainTimer, PlainTrainer

__all__ = [
    "PlainModel",
    "PlainReport",
    "PlainTimer",
    "PlainTrainer",
]
