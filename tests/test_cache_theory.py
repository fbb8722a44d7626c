"""Theory-backed properties of the cache stack.

Two classical results give strong end-to-end checks of the replacement
machinery:

* **Belady optimality** — on any access stream, a fully associative cache
  under the oracle policy (with a correct future oracle) hits at least as
  often as the same cache under LRU.
* **Stack-distance equivalence** — a fully associative LRU cache of
  capacity ``C`` hits exactly those accesses whose LRU stack distance is
  below ``C``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import reuse_distances
from repro.cache.setassoc import SetAssociativeCache
from repro.sim.oracle import FutureOracle

key_streams = st.lists(st.integers(min_value=0, max_value=12),
                       min_size=1, max_size=150)
capacities = st.integers(min_value=1, max_value=8)


def _pairs(keys):
    """The stream as cache keys: one tenant's pages."""
    return [(0, key) for key in keys]


def _run_lru(keys, capacity):
    cache = SetAssociativeCache(capacity, capacity, policy="lru")
    hits = []
    for key in _pairs(keys):
        hit = cache.lookup(key) is not None
        hits.append(hit)
        if not hit:
            cache.insert(key, key)
    return hits


def _run_oracle(keys, capacity):
    keys = _pairs(keys)
    oracle = FutureOracle(keys)
    cache = SetAssociativeCache(
        capacity, capacity, policy="oracle", next_use=oracle.next_use
    )
    hits = 0
    for key in keys:
        if cache.lookup(key) is not None:
            hits += 1
        else:
            cache.insert(key, key)
        oracle.consume(key)
    return hits


class TestBeladyOptimality:
    @given(key_streams, capacities)
    @settings(max_examples=80, deadline=None)
    def test_oracle_never_loses_to_lru(self, keys, capacity):
        lru_hits = sum(_run_lru(keys, capacity))
        oracle_hits = _run_oracle(keys, capacity)
        assert oracle_hits >= lru_hits

    def test_oracle_beats_lru_on_cyclic_scan(self):
        """The canonical LRU-pathological workload: a cyclic scan one item
        larger than the cache.  LRU gets zero hits; Belady does not."""
        keys = [0, 1, 2, 3] * 10  # capacity 3, cycle of 4
        assert sum(_run_lru(keys, 3)) == 0
        assert _run_oracle(keys, 3) > 0


class TestStackDistanceEquivalence:
    @given(key_streams, capacities)
    @settings(max_examples=80, deadline=None)
    def test_lru_hits_are_exactly_small_stack_distances(self, keys, capacity):
        hits = _run_lru(keys, capacity)
        distances = reuse_distances(keys)
        for hit, distance in zip(hits, distances):
            expected = distance is not None and distance < capacity
            assert hit == expected
