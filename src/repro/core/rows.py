"""What each party holds, and until when: one table per party.

A table maps ``(kind, uid)`` to a :class:`Row`.  On the server GPU:
``share`` (``x_i``), ``next`` (``rep3``'s ``x_{i+1}``) and ``sum`` (a
``rep3`` right operand's ``x_i + x_{i+1}``) by tensor uid; ``open`` (the
``E`` / ``F`` a mask opened) and ``lead`` (``D = A_i - i E``) by mask
uid; ``Z`` by triplet uid — each array held by reference in its value's
base layout.  On the host, public to the servers and so one row in
every table: ``mask``, what a mask opened (the matrix, or ``None``: the
bare (mask, value, step) fact), and ``read``, the stream sides that read
a value this step.  Tensor, mask and triplet uids come from one counter,
so a uid names one thing.

Every row has one lifetime: ``static`` until a stream side that reads
it reads another uid (:meth:`RowTable.own`) or the uid is dropped;
``step`` until the step ends; ``op`` until its product returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

DEVICE_KINDS = ("share", "next", "sum", "open", "lead", "Z")
HOST_KINDS = ("mask", "read")
LIFETIMES = ("static", "step", "op")  # longest first


@dataclass(eq=False)
class Row:
    held: Any  # a device buffer, or a host row's matrix / fact
    task: Any  # after which the party holds it (a host row: one per server)
    lifetime: str
    mask: Any = None  # a ``mask`` row: the mask, the value it opened, and
    value: int | None = None  # the step of that opening or of its last hit
    epoch: int | None = None


class RowTable:
    """The parties' tables, and the one place a row is freed."""

    def __init__(self, gpus):
        self._gpus = list(gpus)
        self._tables: list[dict[tuple[str, int], Row]] = [{} for _ in self._gpus]
        self._op: list[list] = [[] for _ in self._gpus]  # the ``op`` rows' buffers
        self._owners: dict[tuple[str, str], int] = {}  # stream side -> static uid it reads

    def get(self, party: int, key: tuple[str, int]) -> Row | None:
        return self._tables[party].get(key)

    def table(self, party: int) -> dict[tuple[str, int], Row]:
        """A copy of party ``party``'s table."""
        return dict(self._tables[party])

    def fill(self, party: int | None, key, held, task, lifetime: str, **facts) -> Row | None:
        """Hold ``held`` under ``key`` for ``lifetime``: on ``party``'s GPU,
        or a host row (``party`` None) in every table.  An ``op`` row has
        no key.  A row that outlives its step holds its own array, never a
        view that pins a larger one (a batch slice of the dataset)."""
        if lifetime == "op":
            self._op[party].append(self._gpus[party].pool.allocate(held))
            return None
        if key[0] in DEVICE_KINDS:
            base = held.base
            if lifetime == "static" and base is not None and base.nbytes > held.nbytes:
                held = held.copy()
            held = self._gpus[party].pool.allocate(held)
        row = Row(held, task, lifetime, **facts)
        for i in range(len(self._tables)) if party is None else (party,):
            self._free(i, key)
            self._tables[i][key] = row
        return row

    def own(self, owner: tuple[str, str], uid: int | None) -> None:
        """Stream side ``owner`` now reads static ``uid`` (``None``: a
        value that is not static): the static rows of the uid it read
        before go."""
        old = self._owners.pop(owner, None)
        for i, table in enumerate(self._tables):
            for kind in DEVICE_KINDS + HOST_KINDS if old not in (None, uid) else ():
                row = table.get((kind, old))
                if row is not None and row.lifetime == "static":
                    self._free(i, (kind, old))
        if uid is not None:
            self._owners[owner] = uid

    def end(self, lifetime: str) -> None:
        """Free every ``op`` row (its product returned) or every ``step``
        row (the step ended; a host row that outlives it keeps no task)."""
        if lifetime == "op":
            for gpu, buffers in zip(self._gpus, self._op):
                for buf in buffers:
                    gpu.free(buf)
                buffers.clear()
            return
        for i, table in enumerate(self._tables):
            for key in [key for key, row in table.items() if row.lifetime == "step"]:
                self._free(i, key)
            for key, row in table.items():
                if key[0] in HOST_KINDS:
                    row.task = ()

    def drop(self, uid: int) -> None:
        """Nobody can ask for ``uid`` again: free all of its rows."""
        for i in range(len(self._tables)):
            for kind in DEVICE_KINDS + HOST_KINDS:
                self._free(i, (kind, uid))
        if uid in self._owners.values():
            self._owners = {owner: held for owner, held in self._owners.items() if held != uid}

    def clear(self) -> None:
        """Free every row of every party (a restarted server)."""
        for i, table in enumerate(self._tables):
            for key in list(table):
                self._free(i, key)
        self._owners.clear()
        self.end("op")

    def _free(self, party: int, key) -> None:
        row = self._tables[party].pop(key, None)
        if row is not None and key[0] in DEVICE_KINDS:
            self._gpus[party].free(row.held)
