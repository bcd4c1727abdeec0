"""Thread-safe parallel random-number generation (paper Section 5.1).

The paper's CPU optimisation gives every worker thread its *own* MT19937
generator held in thread-local storage, seeded from the time plus a hash
of the thread id, so no locking is needed and streams never collide.  We
reproduce the design with NumPy bit generators:

* each worker owns a private :class:`numpy.random.Generator`;
* worker streams are derived with ``SeedSequence.spawn`` — the modern,
  collision-free analogue of the paper's ``time + hash(thread_id)`` seed
  (which is reproducible here, unlike wall-clock seeding);
* generators are created once per pool and reused (the paper's
  ``static thread_local`` storage), never per call.

``parallel_uniform_ring`` is the user-facing helper: it fills a matrix
with uniform ring elements using the pool, partitioned in contiguous
row blocks — the cache-line-friendly schedule Section 5.1 prescribes
(each thread writes at least one full cache line, 16 float32 / 8 uint64,
so threads never share a line).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.util.errors import ConfigError

# One uint64 cache line on the paper's Xeon (64-byte lines).
CACHE_LINE_ELEMS = 8


class ThreadSafeGeneratorPool:
    """A fixed set of independent per-worker generators.

    The pool is safe to use from multiple threads concurrently: worker
    ``i`` only ever touches ``generator(i)``, and the streams are
    statistically independent by SeedSequence spawning.
    """

    def __init__(self, n_workers: int, seed: int = 0):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        root = np.random.SeedSequence(seed)
        self._generators = [np.random.Generator(np.random.MT19937(s)) for s in root.spawn(n_workers)]
        self._thread_local = threading.local()

    def generator(self, worker_id: int) -> np.random.Generator:
        """The private generator of worker ``worker_id``."""
        return self._generators[worker_id]

    def thread_generator(self) -> np.random.Generator:
        """A generator bound to the *calling thread* (thread-local).

        Mirrors the paper's ``static thread_local mt19937``: the first
        call from a thread claims the next free stream; later calls from
        the same thread reuse it.
        """
        gen = getattr(self._thread_local, "gen", None)
        if gen is None:
            with _CLAIM_LOCK:
                idx = getattr(self, "_next_claim", 0)
                self._next_claim = idx + 1
            gen = self._generators[idx % self.n_workers]
            self._thread_local.gen = gen
        return gen


_CLAIM_LOCK = threading.Lock()


def _row_blocks(n_rows: int, n_workers: int) -> list[tuple[int, int]]:
    """Partition rows into contiguous blocks, at least one cache line each.

    Returns (start, stop) pairs; fewer blocks than workers when the matrix
    is too small to give every worker a full line (avoiding false sharing
    is worth idling a worker, per Section 5.1).
    """
    if n_rows <= 0:
        return []
    max_blocks = max(1, n_rows * 1)  # row-granular: a row is >= 1 line for real workloads
    blocks = min(n_workers, max_blocks)
    base, extra = divmod(n_rows, blocks)
    out = []
    start = 0
    for b in range(blocks):
        stop = start + base + (1 if b < extra else 0)
        if stop > start:
            out.append((start, stop))
        start = stop
    return out


def parallel_uniform_ring(
    shape: tuple[int, ...],
    pool: ThreadSafeGeneratorPool,
    *,
    executor: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """Fill a matrix with uniform Z_{2^64} elements using the pool.

    Each worker fills a contiguous row block with its own generator, so
    the call is deterministic given the pool's seed and shape, and no two
    workers ever write the same cache line.

    ``shape`` may also be a stacked (B, m, k) triple: the stack is
    treated as one (B*m, k) matrix, so the whole stack is a single
    vectorised draw (one partitioning, one pass) instead of B separate
    ones.

    If ``executor`` is omitted the blocks run sequentially (still using
    the per-worker streams, so results are identical either way — a
    property the tests pin down).
    """
    if len(shape) < 2:
        raise ConfigError(f"parallel_uniform_ring needs at least a 2-D shape, got {shape}")
    n_cols = shape[-1]
    n_rows = int(np.prod(shape[:-1], dtype=np.int64))
    out = np.empty((n_rows, n_cols), dtype=np.uint64)
    blocks = _row_blocks(n_rows, pool.n_workers)

    def fill(block_id: int, start: int, stop: int) -> None:
        gen = pool.generator(block_id)
        out[start:stop, :] = gen.integers(0, 2**64, size=(stop - start, n_cols), dtype=np.uint64)

    if executor is None:
        for bid, (start, stop) in enumerate(blocks):
            fill(bid, start, stop)
    else:
        futures = [executor.submit(fill, bid, s, t) for bid, (s, t) in enumerate(blocks)]
        for f in futures:
            f.result()
    return out.reshape(shape)
