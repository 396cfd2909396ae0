"""Subset-sum objects against literal brute-force enumeration."""

from __future__ import annotations

import random

import pytest

import reference as ref
import spanlab as S


def _set(spec: str, idx) -> S.ElementSet:
    return S.ElementSet.from_indices(S.parse_group_spec(spec), idx)


# --------------------------------------------------------- hand cases


def test_subset_sums_hand_cases():
    assert sorted(S.subset_sums(_set("Z5", [1])).indices()) == [1]
    assert sorted(S.subset_sums(_set("Z5", [1, 2])).indices()) == [1, 2, 3]
    assert S.subset_sums(_set("Z5", [1, 2, 3, 4])).is_full
    assert sorted(S.subset_sums(_set("Z9", [3, 6])).indices()) == [0, 3, 6]


def test_subset_sums_with_zero_adjoins_zero():
    a = _set("Z7", [1, 2])
    assert sorted(S.subset_sums_with_zero(a).indices()) == [0, 1, 2, 3]
    full = S.subset_sums(a)
    assert sorted(S.subset_sums_with_zero(a).indices()) == \
        sorted(set(full.indices()) | {0})


def test_restricted_sums_boundaries():
    a = _set("Z11", [1, 2, 3, 4])
    assert sorted(S.restricted_sums(a, 1).indices()) == [1, 2, 3, 4]
    assert sorted(S.restricted_sums(a, 4).indices()) == [10]  # 1+2+3+4
    assert sorted(S.restricted_sums(a, 0).indices()) == [0]
    with pytest.raises(ValueError):
        S.restricted_sums(a, 5)


def test_restricted_sums_pair_case():
    a = _set("Z11", [1, 2, 3, 4])
    assert sorted(S.restricted_sums(a, 2).indices()) == [3, 4, 5, 6, 7]


def test_sumset_matches_double_loop():
    g = S.parse_group_spec("Z2xZ6")
    rnd = random.Random(5)
    for _ in range(30):
        a = rnd.sample(range(12), rnd.randint(1, 6))
        b = rnd.sample(range(12), rnd.randint(1, 6))
        got = S.sumset(S.ElementSet.from_indices(g, a),
                       S.ElementSet.from_indices(g, b))
        assert set(got.indices()) == ref.sumset_brute(g, a, b)


def test_sumset_matches_double_loop_on_cyclic_specs():
    rnd = random.Random(7)
    for n in range(2, 32):
        g = S.parse_group_spec(f"Z{n}")
        for _ in range(12):
            a = rnd.sample(range(n), rnd.randint(1, n))
            b = rnd.sample(range(n), rnd.randint(1, n))
            got = S.sumset(S.ElementSet.from_indices(g, a),
                           S.ElementSet.from_indices(g, b))
            assert set(got.indices()) == ref.sumset_brute(g, a, b)
        # |A| + |B| > n fills the group before the last translate
        a = list(range(n // 2 + 1))
        b = list(range(n - 1, n // 2 - 1, -1))
        got = S.sumset(S.ElementSet.from_indices(g, a),
                       S.ElementSet.from_indices(g, b))
        assert got.is_full and ref.sumset_brute(g, a, b) == set(range(n))


def test_subset_sums_bits_handles_repeated_terms():
    g = S.parse_group_spec("Z5")
    # the sequence (1, 1) can sum to 1 or 2 but not 3
    assert S.subset_sums_bits(g, [1, 1]) == (1 << 1) | (1 << 2)
    # bits interface agrees with the set interface on distinct terms
    a = _set("Z5", [1, 3])
    assert S.subset_sums_bits(g, [1, 3]) == S.subset_sums(a).bits


def test_sequence_over_group_sums():
    g = S.parse_group_spec("Z3")
    t = S.SequenceOverGroup(g, (1, 1, 1))
    assert sorted(S.subset_sums(t).indices()) == [0, 1, 2]


def test_sequence_over_group_compares_as_a_multiset():
    g = S.parse_group_spec("Z6")
    a = S.SequenceOverGroup.from_indices(g, (2, 1, 1))
    assert a == S.SequenceOverGroup.from_indices(g, (1, 2, 1))
    assert len({a, S.SequenceOverGroup.from_indices(g, (1, 1, 2))}) == 1
    assert a != S.SequenceOverGroup.from_indices(g, (1, 2))
    assert a != S.SequenceOverGroup.from_indices(S.parse_group_spec("Z7"), (1, 1, 2))
    assert repr(a) == "SequenceOverGroup(group=GroupSpec(Z6), terms=(1, 1, 2))"


def test_sequence_length_counts_repeated_terms():
    g = S.parse_group_spec("Z6")
    assert len(S.SequenceOverGroup.from_indices(g, (2, 1, 1, 2, 2))) == 5
    assert len(S.SequenceOverGroup(g, ())) == 0


# ------------------------------------------------- spanning/complete


def test_spans_and_is_complete():
    a = _set("Z9", [3, 6])
    assert not S.spans(a)          # sums fill <3>, not Z9
    assert S.is_complete(a)        # sums equal the generated subgroup
    b = _set("Z9", [3])
    assert not S.is_complete(b)    # {3} != {0,3,6}
    c = _set("Z9", [1, 2, 3, 7])
    assert S.spans(c)


def test_complete_subgroup_witnesses_are_sound():
    a = _set("Z15", [3, 6, 9, 12, 1])
    found = S.complete_subgroup_witnesses(a)
    assert found, "the order-5 subgroup is completed inside this set"
    for h in found:
        inter = S.ElementSet(a.group, a.bits & h.bits)
        assert set(S.subset_sums(inter).indices()) == set(h.indices())


def test_contains_complete_subset_hand_cases():
    hit = S.contains_complete_subset(_set("Z15", [3, 6, 9, 12, 1]))
    assert hit is not None
    assert sorted(hit.indices()) == [0, 3, 6, 9, 12]
    assert S.contains_complete_subset(_set("Z5", [1])) is None
    # symmetric interval around a generator: no completed subgroup inside
    assert S.contains_complete_subset(_set("Z15", [1, 2, 3, 12, 13, 14])) is None


# ----------------------------------------------- brute-force parity


def _random_instance(rnd: random.Random, max_size: int):
    order = rnd.randint(3, 36)
    group = S.make_group(rnd.choice(S.abelian_groups_of_order(order)))
    size = rnd.randint(1, min(max_size, order - 1))
    idx = rnd.sample(range(1, order), size)
    return group, idx


def test_subset_sums_matches_brute_force():
    rnd = random.Random(101)
    for _ in range(150):
        group, idx = _random_instance(rnd, 12)
        got = set(S.subset_sums(S.ElementSet.from_indices(group, idx)).indices())
        assert got == ref.subset_sums_brute(group, idx)


def test_restricted_sums_matches_brute_force():
    rnd = random.Random(202)
    for _ in range(150):
        group, idx = _random_instance(rnd, 12)
        h = rnd.randint(1, len(idx))
        got = set(S.restricted_sums(
            S.ElementSet.from_indices(group, idx), h).indices())
        assert got == ref.restricted_sums_brute(group, idx, h)


@pytest.mark.parametrize("spec,terms", [
    ("Z7", (1, 1, 1, 3, 3)),
    ("Z13", (2, 2, 5, 5, 5, 12, 12)),
    ("Z12", (3, 3, 4, 4, 4, 6)),
    ("Z2xZ4", (1, 1, 5, 5, 6, 7)),
    ("Z3xZ3", (1, 1, 1, 4, 4, 8)),
])
def test_restricted_sums_of_sequences_at_every_h(spec, terms):
    # repeated terms make distinct positions, not distinct values, count
    g = S.parse_group_spec(spec)
    t = S.SequenceOverGroup(g, terms)
    for h in range(len(terms) + 1):
        got = set(S.restricted_sums(t, h).indices())
        assert got == ref.restricted_sums_brute(g, terms, h), h


def test_restricted_sums_of_sets_at_every_h():
    rnd = random.Random(404)
    for _ in range(60):
        group, idx = _random_instance(rnd, 9)
        a = S.ElementSet.from_indices(group, idx)
        for h in range(len(idx) + 1):
            got = set(S.restricted_sums(a, h).indices())
            assert got == ref.restricted_sums_brute(group, idx, h), (idx, h)


def test_contains_complete_subset_matches_brute_force():
    rnd = random.Random(303)
    for _ in range(150):
        group, idx = _random_instance(rnd, 10)
        hit = S.contains_complete_subset(S.ElementSet.from_indices(group, idx))
        want = ref.contains_complete_subset_brute(group, idx)
        assert (hit is not None) == want
        if hit is not None:
            inter = [i for i in idx if i in set(hit.indices())]
            assert ref.subset_sums_brute(group, inter) == \
                set(hit.indices())
