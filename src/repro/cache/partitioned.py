"""SID-partitioned translation caches (the paper's P-DevTLB scheme).

HyperTRIO adds a partition tag (PTag) to every row of the DevTLB and the
page-walk TLBs; a translation may only occupy a row whose PTag matches the
low bits of its Source ID.  With ``n`` partitions, tenant ``sid`` is confined
to partition ``sid mod n``, so a low-bandwidth tenant can never evict a
high-bandwidth tenant in a different partition.

We realise this by reserving ``num_sets / n`` consecutive sets per partition
and computing the set index as ``partition_base + address_hash`` within the
partition.  When a partition holds exactly one row (the configuration the
paper evaluates for the DevTLB: 64 entries, 8-way, 8 partitions, one 8-entry
row per tenant group; likewise the L2/L3 TLBs' 32 and 64 partitions), the
address hash degenerates, the row is shared by all tenants mapped onto that
PTag, and the set index is just ``sid mod n``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.cache.setassoc import SetAssociativeCache, fold_index


def partition_of(sid: int, num_partitions: int) -> int:
    """Partition (PTag) selected by ``sid``: its low bits, as in the paper."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    return sid % num_partitions


class PartitionedCache(SetAssociativeCache):
    """Set-associative cache whose set index embeds a SID partition.

    Keys must be ``(sid, secondary)`` tuples; ``secondary`` is usually the
    gIOVA page (DevTLB) or a guest-physical page (nested TLBs).

    Parameters
    ----------
    num_partitions:
        Number of PTag groups; must divide the set count evenly.
    """

    #: ``_sid_sets`` is an instance attribute only for one-set
    #: partitions; elsewhere a restored cache holds the class's 0.
    _state_fields = SetAssociativeCache._state_fields + (
        "num_partitions", "_sets_per_partition", "_sid_sets",
    )

    def __init__(
        self,
        num_entries: int,
        ways: int,
        num_partitions: int,
        policy: str = "lru",
        name: str = "p-cache",
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        num_sets = num_entries // ways
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if num_sets % num_partitions != 0:
            raise ValueError(
                f"{num_partitions} partitions do not evenly divide "
                f"{num_sets} sets"
            )
        self.num_partitions = num_partitions
        self._sets_per_partition = num_sets // num_partitions
        super().__init__(
            num_entries=num_entries,
            ways=ways,
            policy=policy,
            name=name,
            indexer=self._partitioned_index,
            next_use=next_use,
        )
        if self._sets_per_partition == 1:
            self._sid_sets = num_partitions

    def _partitioned_index(self, key: Hashable, num_sets: int) -> int:
        if not (isinstance(key, tuple) and len(key) == 2):
            self._bad_key(key)
        sid, secondary = key
        partition = partition_of(sid, self.num_partitions)
        base = partition * self._sets_per_partition
        if isinstance(secondary, int):
            folded = fold_index(secondary)
        else:
            folded = hash(secondary)
        return base + folded % self._sets_per_partition

    def partition_of_key(self, key: Hashable) -> int:
        """Partition a ``(sid, secondary)`` key is confined to.

        Observability helper: cross-tenant eviction attribution (see
        :class:`repro.obs.metrics.EvictionAttribution`) uses this to show
        that any cross-tenant evictions observed in a partitioned cache
        are *intra*-partition (tenants folded onto the same PTag) — a
        tenant in a different partition can never be the victim, which is
        the isolation property the paper claims.
        """
        if not (isinstance(key, tuple) and len(key) == 2):
            self._bad_key(key)
        return partition_of(key[0], self.num_partitions)

    def partition_occupancy(self, partition: int) -> int:
        """Total valid entries across the sets of ``partition``."""
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
        base = partition * self._sets_per_partition
        return sum(
            self.set_occupancy(base + offset)
            for offset in range(self._sets_per_partition)
        )
