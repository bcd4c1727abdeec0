"""The blessed entry points: ``repro.api.session`` and ``repro.api.serve``.

:func:`session` wires one whole paper deployment — client, two servers,
simulated GPUs, channels, compressors, telemetry — and hands back the
:class:`~repro.core.context.SecureContext` everything else hangs off::

    import repro

    ctx = repro.api.session()                                  # ParSecureML defaults
    ctx = repro.api.session(config=repro.FrameworkConfig.secureml())   # baseline
    ctx = repro.api.session(trace=True, compression=False)     # keyword overrides

    model = repro.SecureMLP(ctx, 784)
    report = repro.SecureTrainer(ctx, model).train(x, y, max_batches=2)
    print(ctx.telemetry.report())

:func:`serve` stands up the serving layer — N replica deployments (each
its own session) behind the fleet router::

    fleet = repro.api.serve(
        lambda ctx: repro.SecureMLP(ctx, 64, hidden=(32,), n_out=10),
        replicas=4,
    )
    fleet.submit("client-a", x_rows)
    fleet.drain()

Keyword overrides are applied with :meth:`FrameworkConfig.but`, so any
field of :class:`~repro.core.config.FrameworkConfig` can be tweaked
without building the config by hand.
"""

from __future__ import annotations

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext

__all__ = ["serve", "session"]


def session(
    config: FrameworkConfig | None = None,
    *,
    backend: str | None = None,
    **overrides,
) -> SecureContext:
    """Create a fully wired :class:`SecureContext`.

    Parameters
    ----------
    config:
        Base configuration; defaults to ``FrameworkConfig()`` (the
        ParSecureML preset).
    backend:
        Protocol backend name from :func:`repro.protocols.get_backend`
        (``"beaver2pc"`` — the default dealer-assisted 2PC path — or
        ``"rep3"``, dealer-free 3-party replicated sharing).  Omitting
        it keeps the configured backend (``beaver2pc`` by default).
    **overrides:
        Field overrides applied on top of ``config`` via
        :meth:`FrameworkConfig.but` (e.g. ``trace=True``,
        ``compression=False``, ``seed=7``).
    """
    cfg = config or FrameworkConfig()
    if backend is not None:
        overrides["backend"] = backend
    if overrides:
        cfg = cfg.but(**overrides)
    return SecureContext.create(cfg)


def serve(
    model_factory,
    *,
    replicas: int = 1,
    config: FrameworkConfig | None = None,
    max_batch: int = 64,
    max_wait_s: float = 1e-3,
    queue_rows: int | None = None,
    request_retries: int = 2,
    audit: bool = False,
    replica_config=None,
    backend: str | None = None,
    **overrides,
):
    """Stand up a :class:`~repro.serve.fleet.SecureServingFleet`.

    Parameters
    ----------
    model_factory:
        ``(ctx) -> SecureModel`` — deploys the served model on one
        replica's context; called once per replica.
    replicas:
        Initial replica count (replica *i* runs with ``seed + i``).
    config / **overrides:
        Base configuration plus :meth:`FrameworkConfig.but` overrides,
        exactly like :func:`session`.
    replica_config:
        Optional ``(index, base_config) -> FrameworkConfig`` hook for
        per-replica config shaping (chaos plans, backends).
    backend:
        Protocol backend every replica runs (``"beaver2pc"`` default,
        ``"rep3"`` for dealer-free 3-party replicated sharing).
    """
    from repro.serve.fleet import SecureServingFleet

    cfg = config or FrameworkConfig()
    if backend is not None:
        overrides["backend"] = backend
    if overrides:
        cfg = cfg.but(**overrides)
    return SecureServingFleet(
        model_factory,
        replicas=replicas,
        config=cfg,
        replica_config=replica_config,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        queue_rows=queue_rows,
        request_retries=request_retries,
        audit=audit,
    )
