"""Unit tests for replacement policies (one policy object per cache set)."""

import pytest

from repro.cache.policies import (
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    OraclePolicy,
    RandomPolicy,
    make_policy_factory,
)


def filled(policy, keys, pinned=()):
    for key in keys:
        policy.put(key, key.upper(), pinned=key in pinned)
    return policy


class TestSetBasics:
    def test_get_returns_value_and_miss_is_none(self):
        policy = filled(LruPolicy(ways=2), "a")
        assert policy.get("a") == "A"
        assert policy.get("b") is None

    def test_put_returns_evicted_key(self):
        policy = filled(LruPolicy(ways=2), "ab")
        assert policy.put("c", "C") == "a"
        assert list(policy.keys()) == ["b", "c"]

    def test_put_with_room_or_update_evicts_nothing(self):
        policy = LruPolicy(ways=2)
        assert policy.put("a", "A") is None
        assert policy.put("b", "B") is None
        assert policy.put("a", "A2") is None
        assert policy.get("a") == "A2"
        assert len(policy) == 2

    def test_remove_and_clear(self):
        policy = filled(LfuPolicy(ways=4), "abc", pinned="a")
        assert policy.remove("a")
        assert not policy.remove("a")
        assert list(policy.keys()) == ["b", "c"]
        policy.clear()
        assert len(policy) == 0
        assert policy.put("d", "D") is None

    @pytest.mark.parametrize("ways, capacity", [(1, 0), (2, 1), (3, 1), (16, 14)])
    def test_pin_capacity(self, ways, capacity):
        assert LruPolicy(ways=ways).pin_capacity == capacity

    def test_invalid_ways(self):
        with pytest.raises(ValueError):
            LruPolicy(ways=0)


class TestLru:
    def test_victim_is_least_recent(self):
        policy = filled(LruPolicy(ways=3), "abc")
        assert policy.victim() == "a"

    def test_hit_refreshes_recency(self):
        policy = filled(LruPolicy(ways=3), "abc")
        policy.get("a")
        assert policy.victim() == "b"
        assert policy.put("d", "D") == "b"

    def test_update_refreshes_recency(self):
        policy = filled(LruPolicy(ways=3), "abc")
        policy.put("a", "A2")
        assert policy.victim() == "b"

    def test_evict_removes_key(self):
        policy = filled(LruPolicy(ways=2), "ab")
        policy.remove("a")
        assert list(policy.keys()) == ["b"]

    def test_victim_respects_exclusion(self):
        """Pinned keys are excluded from victim selection."""
        policy = filled(LruPolicy(ways=3), "abc", pinned="a")
        assert policy.victim() == "b"
        assert policy.put("d", "D") == "b"

    def test_victim_none_when_all_excluded(self):
        policy = filled(LruPolicy(ways=2), "a", pinned="a")
        assert policy.victim() is None

    def test_hit_releases_pin(self):
        policy = filled(LruPolicy(ways=3), "abc", pinned="a")
        policy.get("a")
        policy.get("b")
        policy.get("c")
        assert policy.victim() == "a"

    def test_victim_on_empty_raises(self):
        with pytest.raises(LookupError):
            LruPolicy(ways=2).victim()

    def test_promote_acts_as_touch(self):
        policy = filled(LruPolicy(ways=3), "abc")
        policy.promote("a")
        assert policy.victim() == "b"


class TestFifo:
    def test_victim_is_oldest_insertion(self):
        policy = filled(FifoPolicy(ways=3), "abc")
        policy.get("a")  # hits do not matter for FIFO
        policy.put("a", "A2")  # nor do updates
        assert policy.victim() == "a"
        assert policy.put("d", "D") == "a"

    def test_exclusion(self):
        policy = filled(FifoPolicy(ways=3), "ab", pinned="a")
        assert policy.victim() == "b"


class TestLfu:
    def test_victim_is_least_frequent(self):
        policy = filled(LfuPolicy(ways=2), ["hot", "cold"])
        for _ in range(5):
            policy.get("hot")
        assert policy.victim() == "cold"
        assert policy.put("new", "NEW") == "cold"

    def test_tie_broken_by_insertion_order(self):
        policy = filled(LfuPolicy(ways=2), ["first", "second"])
        assert policy.victim() == "first"

    def test_fill_starts_at_one_and_use_counts(self):
        policy = filled(LfuPolicy(ways=2), ["a"])
        assert policy.counter("a") == 1
        policy.get("a")
        policy.put("a", "A2")  # an update is a use too
        assert policy.counter("a") == 3

    def test_counter_saturation_halves_row(self):
        """The paper's scheme: a 4-bit counter saturates at 15 and the whole
        row is halved."""
        policy = filled(LfuPolicy(ways=2, counter_bits=4), ["hot", "warm"])
        for _ in range(3):
            policy.get("warm")  # counter 4
        for _ in range(14):
            policy.get("hot")  # counter reaches 15
        policy.get("hot")  # triggers halving: hot 7->8, warm 2
        assert policy.counter("hot") == 8
        assert policy.counter("warm") == 2

    def test_promote_adds_steps(self):
        policy = filled(LfuPolicy(ways=2), ["a"])  # counter 1
        policy.promote("a", steps=2)
        assert policy.counter("a") == 3

    def test_put_priority_promotes(self):
        policy = LfuPolicy(ways=2)
        policy.put("a", "A", priority=2)
        assert policy.counter("a") == 3
        policy.put("a", "A", priority=2)  # a use plus two steps
        assert policy.counter("a") == 6

    def test_promote_saturates_and_halves(self):
        policy = filled(LfuPolicy(ways=2, counter_bits=2), ["a", "b"])
        policy.promote("b", steps=4)  # 1 -> 3, halve (a 0, b 1), -> 3
        assert policy.counter("a") == 0
        assert policy.counter("b") == 3

    def test_relative_frequency_preserved_after_halving(self):
        policy = filled(LfuPolicy(ways=2, counter_bits=2), ["hot", "cold"])
        for _ in range(10):
            policy.get("hot")
        assert policy.victim() == "cold"

    def test_invalid_counter_bits(self):
        with pytest.raises(ValueError):
            LfuPolicy(ways=2, counter_bits=0)

    def test_exclusion_picks_next_least_frequent(self):
        policy = filled(LfuPolicy(ways=3), "ab", pinned="a")
        policy.get("b")
        assert policy.victim() == "b"

    def test_all_pinned_set_has_no_victim(self):
        policy = filled(LfuPolicy(ways=2), "a", pinned="a")
        assert policy.victim() is None

    def test_remove_drops_counter(self):
        policy = filled(LfuPolicy(ways=2), "ab")
        policy.remove("a")
        policy.put("a", "A")
        assert policy.counter("a") == 1
        assert policy.victim() == "b"


class TestRandom:
    def test_deterministic_with_seed(self):
        a = filled(RandomPolicy(ways=6, seed=7), "abcdef")
        b = filled(RandomPolicy(ways=6, seed=7), "abcdef")
        assert [a.victim() for _ in range(5)] == [b.victim() for _ in range(5)]

    def test_victim_among_tracked_keys(self):
        policy = filled(RandomPolicy(ways=3), "abc")
        assert policy.victim() in set("abc")
        assert policy.put("d", "D") in set("abc")

    def test_exclusion(self):
        policy = filled(RandomPolicy(ways=3), "ab", pinned="a")
        assert policy.victim() == "b"
        policy.put("b", "B", pinned=True)  # the one pin recycles a's
        assert policy.victim() == "a"
        assert filled(RandomPolicy(ways=2), "a", pinned="a").victim() is None


class TestOracle:
    def test_evicts_furthest_future_use(self):
        future = {"a": 10, "b": 3, "c": 7}
        policy = filled(OraclePolicy(3, lambda key: future[key]), "abc")
        assert policy.victim() == "a"

    def test_never_used_again_is_perfect_victim(self):
        future = {"a": 10, "b": None}
        policy = filled(OraclePolicy(2, lambda key: future[key]), "ab")
        assert policy.victim() == "b"

    def test_exclusion(self):
        future = {"a": 10, "b": 3}
        policy = filled(OraclePolicy(3, lambda key: future[key]), "ab", pinned="a")
        assert policy.victim() == "b"


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "lfu", "fifo", "random"])
    def test_known_policies(self, name):
        factory = make_policy_factory(name)
        assert factory(4) is not factory(4)  # fresh instance per set
        assert factory(4).ways == 4

    def test_case_insensitive(self):
        assert isinstance(make_policy_factory("LFU")(4), LfuPolicy)

    def test_oracle_requires_next_use(self):
        with pytest.raises(ValueError):
            make_policy_factory("oracle")

    def test_oracle_with_next_use(self):
        factory = make_policy_factory("oracle", next_use=lambda key: None)
        assert isinstance(factory(4), OraclePolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy_factory("mru")
