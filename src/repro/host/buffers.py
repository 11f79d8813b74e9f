"""Host page buffers (Section 3.3).

"The host interface provides the software with 128 page buffers, each for
reads and writes.  When writing a page, the software will request a free
write buffer, copy data to the write buffer, and send a write request
over RPC ... When reading a page, the software will request a free read
buffer, and send a read request over RPC."

Buffer exhaustion is the host-side in-flight limit: with all 128 read
buffers pending, further reads wait for a completion interrupt to recycle
one.
"""

from __future__ import annotations

from ..sim import Simulator, Store

__all__ = ["PageBufferPool"]


class PageBufferPool:
    """A free-list of numbered page buffers in host DRAM."""

    def __init__(self, sim: Simulator, count: int, name: str = "buffers"):
        if count < 1:
            raise ValueError(f"need at least one buffer, got {count}")
        self.sim = sim
        self.count = count
        self.name = name
        self._free: Store = Store(sim, name=name)
        for index in range(count):
            self._free.items.append(index)

    def acquire(self):
        """Take a free buffer index (DES generator; blocks when empty)."""
        index = yield self._free.get()
        return index

    def release(self, index: int) -> None:
        """Return a buffer to the free list.

        Non-blocking (the free list is unbounded), so it is safe to call
        from ``finally`` blocks; waiting acquirers wake immediately.
        """
        if not 0 <= index < self.count:
            raise ValueError(f"buffer index {index} out of range")
        self._free.put_nowait(index)
