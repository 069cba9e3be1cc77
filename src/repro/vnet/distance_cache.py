"""Per-pair slot-distance caching with incremental invalidation.

Both streamed controllers of :mod:`repro.vnet.controller` (and every shard
engine of :mod:`repro.service`) spend their serving loop computing the slot
distance of communicating virtual-node pairs.  Under Zipf-skewed datacenter
traffic a few hot pairs carry most requests, so caching the per-pair
distance pays — but the demand-aware paths *re-embed*, and a re-embedding
changes some distances.

The static controller's cache never invalidates (the embedding is frozen).
This module adds the missing middle ground: :class:`SlotDistanceCache`
tracks, for every cached pair, the slots its endpoints occupied when the
distance was computed, and :meth:`SlotDistanceCache.rebind` evicts **only
the pairs with a moved endpoint** instead of flushing the whole cache.  A
typical reveal migrates the two merging components and leaves the rest of
the arrangement untouched, so most of the hot-pair cache survives every
batch.

Correctness is structural, not probabilistic: a pair's communication cost
depends only on its endpoints' slots, so a cache entry is returned only
while both endpoints still sit where they sat when the entry was computed.
Costs accumulate in request order either way, which keeps the cached totals
bit-identical to the uncached loop (asserted in ``tests/test_vnet.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.obs.profile import count_work as _count_work
from repro.vnet.embedding import Embedding

Node = Hashable
Pair = Tuple[Node, Node]


class SlotDistanceCache:
    """Cache of per-pair communication costs over a (re-)bindable embedding.

    Parameters
    ----------
    embedding:
        The embedding distances are computed against.  Replace it with
        :meth:`rebind` after a re-embedding; only entries whose endpoints
        moved are evicted.
    """

    def __init__(self, embedding: Embedding) -> None:
        self._embedding = embedding
        self._pair_cost: Dict[Pair, float] = {}
        self._pairs_by_node: Dict[Node, Set[Pair]] = {}
        self._slot_of_node: Dict[Node, int] = {}

    @property
    def embedding(self) -> Embedding:
        """The embedding the cached distances refer to."""
        return self._embedding

    def __len__(self) -> int:
        return len(self._pair_cost)

    def cost(self, u: Node, v: Node) -> float:
        """The communication cost of one ``(u, v)`` message, cached."""
        pair = (u, v)
        cached = self._pair_cost.get(pair)
        if cached is not None:
            _count_work("vnet.distance_cache.hits")
            return cached
        _count_work("vnet.distance_cache.misses")
        embedding = self._embedding
        slot_u = embedding.slot_of(u)
        slot_v = embedding.slot_of(v)
        cost = embedding.datacenter.communication_cost(slot_u, slot_v)
        self._pair_cost[pair] = cost
        self._pairs_by_node.setdefault(u, set()).add(pair)
        self._pairs_by_node.setdefault(v, set()).add(pair)
        self._slot_of_node[u] = slot_u
        self._slot_of_node[v] = slot_v
        return cost

    def costs(self, pairs: Iterable[Pair]) -> List[float]:
        """:meth:`cost` of every ``(u, v)`` in ``pairs``, in order.

        Hits read the cache directly and are counted once per call; a miss
        goes through :meth:`cost`, so a pair repeated later in ``pairs``
        hits.  Values, cache contents and work counters end up as a
        :meth:`cost` loop would leave them.
        """
        cached_cost = self._pair_cost.get
        miss = self.cost
        values: List[float] = []
        hits = 0
        for u, v in pairs:
            cached = cached_cost((u, v))
            if cached is None:
                cached = miss(u, v)
            else:
                hits += 1
            values.append(cached)
        if hits:
            _count_work("vnet.distance_cache.hits", hits)
        return values

    def rebind(self, embedding: Embedding) -> int:
        """Switch to a new embedding, evicting only pairs whose endpoints moved.

        Returns the number of evicted pair entries (0 when the re-embedding
        did not touch any cached node — the common case under skewed
        traffic).  Surviving nodes keep their tracked slot: it is equal under
        the new embedding by definition of "not moved".
        """
        self._embedding = embedding
        slot_of = embedding.slot_of
        moved = [
            node
            # repro: allow[det003] — eviction bookkeeping; the evicted set is order-independent
            for node, slot in self._slot_of_node.items()
            if slot_of(node) != slot
        ]
        evicted = 0
        for node in moved:
            for pair in self._pairs_by_node.pop(node, ()):
                if self._pair_cost.pop(pair, None) is not None:
                    evicted += 1
                other = pair[1] if pair[0] == node else pair[0]
                if other != node:
                    siblings = self._pairs_by_node.get(other)
                    if siblings is not None:
                        siblings.discard(pair)
                        if not siblings:
                            del self._pairs_by_node[other]
                            self._slot_of_node.pop(other, None)
            # ``pop``: the node may already be untracked when an earlier
            # moved endpoint evicted the last pair touching it.
            self._slot_of_node.pop(node, None)
        _count_work("vnet.distance_cache.evictions", evicted)
        return evicted
