"""Pure placement planning for distributed volumes.

One cluster-wide logical LPN space is carved into fixed-size *chunks*
of ``stripe_chunk_pages`` consecutive LPNs; chunks are dealt onto the
per-node shards round-robin (``striped``) or by a keyed permutation per
round (``hashed`` — decorrelates shard load for skewed strides while
every round still covers every shard exactly once).  Keeping whole
chunks together is what preserves stripe adjacency *within a shard*:
a logically-sequential run arrives at each shard as consecutive shard
LPNs, which sequential allocation turns into physically stripe-adjacent
pages — the shape both the local read coalescer and the network-port
remote read :class:`~repro.flash.coalesce.Coalescer` merge.

Everything here is pure integer math (hashing included — keyed BLAKE2s
digests, no RNG state), so the hypothesis property tests drive the
planner without a simulator and the same ``(shards, placement, chunk,
seed)`` tuple places identically on every platform and every run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

__all__ = ["PlacementPlanner", "PLACEMENT_MODES"]

#: The selectable placement disciplines.
PLACEMENT_MODES = ("striped", "hashed")


class PlacementPlanner:
    """Maps one global LPN space onto ``shards`` per-node shard spaces.

    ``shard_pages`` is each shard's logical capacity (every shard is
    the same machine); the planner only uses whole chunks of it, so
    :attr:`total_pages` is ``shards * (shard_pages // chunk) * chunk``.

    The map :meth:`locate` and the contiguous-run splitter
    :meth:`split_run` are the whole interface; remote routing and the
    session's functional prefill both consume exactly these.
    """

    def __init__(self, shards: int, shard_pages: int,
                 placement: str = "striped",
                 stripe_chunk_pages: int = 8, hash_seed: int = 0):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if stripe_chunk_pages < 1:
            raise ValueError(f"stripe_chunk_pages must be >= 1, "
                             f"got {stripe_chunk_pages}")
        if shard_pages < stripe_chunk_pages:
            raise ValueError(
                f"shard_pages ({shard_pages}) smaller than one chunk "
                f"({stripe_chunk_pages})")
        if placement not in PLACEMENT_MODES:
            raise ValueError(f"unknown placement {placement!r}; expected "
                             f"one of {PLACEMENT_MODES}")
        self.shards = shards
        self.placement = placement
        self.chunk = stripe_chunk_pages
        self.hash_seed = hash_seed
        #: full chunks per shard (= rounds of the dealing scheme).
        self.rounds = shard_pages // self.chunk
        #: round -> (pos -> node) permutation.
        self._perms: Dict[int, Tuple[int, ...]] = {}

    @property
    def total_pages(self) -> int:
        """Usable pages of the whole distributed volume."""
        return self.shards * self.rounds * self.chunk

    # -- the per-round dealing permutation ------------------------------
    def _perm(self, round_: int) -> Tuple[int, ...]:
        """pos->node for one round of chunk dealing.

        ``striped`` is the identity; ``hashed`` orders the shards by a
        keyed BLAKE2s digest of (seed, round, shard) — a deterministic
        permutation per round, so every round still covers every shard
        exactly once (placement never overfills a shard).
        """
        cached = self._perms.get(round_)
        if cached is not None:
            return cached
        if self.placement == "striped":
            perm = tuple(range(self.shards))
        else:
            perm = tuple(sorted(
                range(self.shards),
                key=lambda node: hashlib.blake2s(
                    f"{self.hash_seed}:{round_}:{node}".encode()
                ).digest()))
        self._perms[round_] = perm
        return perm

    # -- the global -> shard map ----------------------------------------
    def locate(self, lpn: int) -> Tuple[int, int]:
        """Global LPN -> ``(node, shard_lpn)``."""
        if not 0 <= lpn < self.total_pages:
            raise ValueError(
                f"LPN {lpn} outside the volume's {self.total_pages} pages")
        chunk = self.chunk
        global_chunk, offset = divmod(lpn, chunk)
        round_, pos = divmod(global_chunk, self.shards)
        node = self._perm(round_)[pos]
        return node, round_ * chunk + offset

    # -- contiguous-run splitting ---------------------------------------
    def split_run(self, start: int, count: int
                  ) -> List[Tuple[int, int, int]]:
        """Split a contiguous LPN run into per-shard sub-runs.

        Returns ``(node, shard_start, length)`` triples in first-touch
        order.  Because every dealing round covers every shard exactly
        once, a contiguous global run gives each shard one contiguous
        shard-LPN run — at most ``shards`` sub-runs total, each of them
        stripe-adjacent within its shard.  This is what the session's
        functional prefill and ownership registration fan out through.
        """
        if count < 0:
            raise ValueError(f"negative run length {count}")
        if count and not (0 <= start
                          and start + count <= self.total_pages):
            raise ValueError(
                f"run [{start}, {start + count}) outside the volume's "
                f"{self.total_pages} pages")
        runs: List[List[int]] = []
        by_node: Dict[int, List[int]] = {}
        lpn = start
        end = start + count
        chunk = self.chunk
        while lpn < end:
            take = min(end, (lpn // chunk + 1) * chunk) - lpn
            node, shard_lpn = self.locate(lpn)
            run = by_node.get(node)
            if run is not None and run[1] + run[2] == shard_lpn:
                run[2] += take
            else:
                run = [node, shard_lpn, take]
                by_node[node] = run
                runs.append(run)
            lpn += take
        return [tuple(run) for run in runs]
