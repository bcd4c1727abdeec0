"""Device memory: buffers and an accounting allocator.

A :class:`DeviceBuffer` wraps the NumPy array that holds the *actual*
values (the simulator computes real results) together with the identity
of the owning device.  The allocator enforces capacity and use-after-free
discipline, the two properties real CUDA code most often trips over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import DeviceError


@dataclass
class DeviceBuffer:
    """A tensor resident in one simulated GPU's memory."""

    data: np.ndarray
    device_name: str
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def require_live(self) -> np.ndarray:
        """Return the payload, raising on use-after-free."""
        if self.freed:
            raise DeviceError(
                f"use of freed device buffer (shape {self.data.shape}) on {self.device_name}"
            )
        return self.data


class MemoryPool:
    """Capacity-enforcing allocator for one device."""

    def __init__(self, capacity_bytes: int, device_name: str):
        self.capacity_bytes = int(capacity_bytes)
        self.device_name = device_name
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self._live: set[int] = set()

    def allocate(self, data: np.ndarray) -> DeviceBuffer:
        """Place ``data`` (copied by reference) into device memory."""
        nbytes = data.nbytes
        if self.allocated_bytes + nbytes > self.capacity_bytes:
            raise DeviceError(
                f"{self.device_name}: out of device memory "
                f"(requested {nbytes}, in use {self.allocated_bytes}, "
                f"capacity {self.capacity_bytes})"
            )
        buf = DeviceBuffer(data=data, device_name=self.device_name)
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self._live.add(id(buf))
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer; double-free raises."""
        if buf.freed or id(buf) not in self._live:
            raise DeviceError(f"{self.device_name}: double free of device buffer")
        buf.freed = True
        self._live.discard(id(buf))
        self.allocated_bytes -= buf.nbytes
