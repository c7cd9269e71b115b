from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel.demand import BucketProfile, compute_demand
from rainbowkernel.errors import BrokenInvariant
from rainbowkernel.intervals import BucketInterval, block_joins

from .reference.demand import (MATCH, TIE, NotProper, UndefinedMeet, all_intervals,
                               binding, block_partition, crosses,
                               demand_property_violations, inside_of, inside_value,
                               interval_stats, is_accepted, is_inside, join,
                               level_scan_demand, maximal_elements, meet, span_buckets)
from .strategies import bucket_profiles


def I(l, r):
    return BucketInterval(l, r)


class TestIntervalOps:
    # the reference configuration: bucket indices {8, 14, 20, inf},
    # with the sentinel rendered as 23 (one past the order length 22)
    S = (8, 14, 20, 23)

    def test_crossing(self):
        assert crosses(I(8, 20), I(14, 23))
        assert not crosses(I(14, 23), I(8, 20))

    def test_containment(self):
        assert is_inside(I(20, 23), I(14, 23))
        assert not is_inside(I(8, 20), I(14, 23))

    def test_span(self):
        assert span_buckets(I(8, 20), self.S) == (8, 14, 20)

    def test_join_and_meet(self):
        assert join(I(8, 20), I(14, 23)) == I(8, 23)
        assert meet(I(8, 20), I(14, 23)) == I(14, 20)

    def test_meet_undefined_without_crossing(self):
        with pytest.raises(UndefinedMeet):
            meet(I(20, 23), I(14, 23))

    def test_interval_needs_l_below_r(self):
        with pytest.raises(BrokenInvariant):
            I(5, 5)

    def test_inside_family(self):
        family = [I(l, r) for l in self.S for r in self.S if l < r]
        contained = inside_of(I(8, 20), family)
        assert set(contained) == {I(8, 14), I(8, 20), I(14, 20)}
        assert maximal_elements([I(8, 20), I(14, 20), I(14, 23)]) == \
            [I(8, 20), I(14, 23)]


class TestBlockPartition:
    def test_single_interval(self):
        blocks, joins = block_partition([I(1, 3)])
        assert blocks == ((I(1, 3),),) and joins == (I(1, 3),)

    def test_three_blocks(self):
        # chains {I1,I2,I3}, {I4,I5}, {I6} by consecutive crossing
        family = [I(1, 4), I(2, 6), I(5, 8), I(8, 10), I(9, 12), I(12, 14)]
        blocks, joins = block_partition(family)
        assert blocks == (
            (I(1, 4), I(2, 6), I(5, 8)),
            (I(8, 10), I(9, 12)),
            (I(12, 14),),
        )
        assert joins == (I(1, 8), I(8, 12), I(12, 14))
        for a, b in zip(joins, joins[1:]):
            assert a.r <= b.l
        assert block_joins(family + [I(2, 4), I(9, 10)]) == list(joins)

    def test_disjoint_intervals_split(self):
        blocks, _ = block_partition([I(1, 2), I(3, 4)])
        assert len(blocks) == 2

    def test_nested_rejected(self):
        with pytest.raises(NotProper):
            block_partition([I(1, 5), I(2, 3)])


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 12)), max_size=25))
@settings(max_examples=300)
def test_block_joins_match_the_block_partition_of_the_maximal_elements(pairs):
    family = [I(l, l + length) for l, length in pairs]
    assert block_joins(family) == list(block_partition(maximal_elements(family))[1])


def profile(seeds, bulk):
    idx = tuple(sorted(seeds))
    return BucketProfile(idx, dict(seeds), dict(bulk))


class TestStats:
    def test_two_singleton_buckets(self):
        p = profile({1: 1, 2: 1}, {1: 0, 2: 0})
        s = interval_stats(p, I(1, 2))
        assert (s.seed_bound, s.match_bound, s.capacity) == (2, 1, 1)
        assert binding(s) == MATCH

    def test_mixed_sizes(self):
        p = profile({1: 1, 2: 2}, {1: 1, 2: 1})
        s = interval_stats(p, I(1, 2))
        assert (s.seed_bound, s.match_bound, s.capacity) == (3, 2, 2)
        assert binding(s) == MATCH

    def test_tie_found_by_enumeration(self):
        found = None
        for s1 in range(1, 4):
            for b1 in range(0, 4):
                for s2 in range(1, 4):
                    for b2 in range(0, 4):
                        p = profile({1: s1, 2: s2}, {1: b1, 2: b2})
                        st = interval_stats(p, I(1, 2))
                        if st.seed_bound == st.match_bound:
                            found = st
                            break
        assert found is not None and binding(found) == TIE


class TestComputeDemand:
    def test_single_interval(self):
        p = profile({1: 1, 2: 1}, {1: 1, 2: 1})
        d = compute_demand(p)
        assert d.values == {I(1, 2): 2}

    def test_three_singletons_zero_tail(self):
        p = profile({1: 1, 2: 1, 3: 1}, {1: 0, 2: 0, 3: 0})
        d = compute_demand(p)
        # (1, 3) is accepted at value 0: counted, and its inside value is its capacity
        assert d.values == {I(1, 2): 1, I(2, 3): 1}
        assert d.accepted == 3 and d.inside[0][2] == d.cap[0][2] == 2

    def test_every_interval_saturated(self):
        # four singleton buckets: the demand accepts every interval and the
        # inside value always equals the capacity
        p = profile({i: 1 for i in range(1, 5)}, {i: 0 for i in range(1, 5)})
        d = compute_demand(p)
        assert d.accepted == len(all_intervals(p))
        for interval in all_intervals(p):
            assert is_accepted(d, interval)
            assert inside_value(d, interval) == interval_stats(p, interval).capacity

    def test_level_order_irrelevant(self):
        p = profile({1: 2, 5: 1, 9: 3, 11: 1}, {1: 0, 5: 4, 9: 1, 11: 2})
        d, slow = compute_demand(p), level_scan_demand(p, reverse_within_level=True)
        assert d.values == {i: v for i, v in slow.items() if v} and d.accepted == len(slow)


class TestDemandLaws:
    @given(bucket_profiles())
    @settings(max_examples=80)
    def test_all_properties_hold(self, prof):
        violations = demand_property_violations(prof, subset_cap=128)
        assert not violations, violations

    @given(bucket_profiles())
    @settings(max_examples=200)
    def test_capacity_matches_interval_stats(self, prof):
        # every interval spanning a bucket, bucket indices or not at its ends
        demand = compute_demand(prof)
        ends = range(prof.s_psi[0] - 1, prof.s_psi[-1] + 2)
        for l, r in combinations(ends, 2):
            if span_buckets(I(l, r), prof.s_psi):
                assert demand.capacity(I(l, r)) == interval_stats(prof, I(l, r)).capacity
