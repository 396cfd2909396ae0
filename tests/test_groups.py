"""Group arithmetic, subgroup lattices, and spec-string parsing."""

from __future__ import annotations

import math
import random

import pytest

import reference as ref
import spanlab as S
from spanlab.groups import _unit_generators, automorphism_generators


# ------------------------------------------------------------- parsing


def test_every_exported_name_resolves():
    for name in S.__all__:
        assert hasattr(S, name), name


def test_parse_cyclic_spec():
    g = S.parse_group_spec("Z15")
    assert g.order == 15
    assert g.cyclic_orders == (15,)
    assert g.spec_string == "Z15"
    assert g.is_cyclic_spec


def test_parse_product_spec():
    g = S.parse_group_spec("Z2xZ4")
    assert g.order == 8
    assert g.cyclic_orders == (2, 4)
    assert g.spec_string == "Z2xZ4"


@pytest.mark.parametrize("bad", ["", "Z", "Z0", "Z1x", "z", "15", "Z2x",
                                 "Z-3", "ZxZ2", "Z2 x Z4"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        S.parse_group_spec(bad)


def test_make_group_round_trips_through_spec_string():
    for orders in [(6,), (2, 4), (4, 2), (2, 2, 2), (3, 9)]:
        g = S.make_group(orders)
        assert g.cyclic_orders == tuple(orders)
        again = S.parse_group_spec(g.spec_string)
        assert again.cyclic_orders == g.cyclic_orders


# ------------------------------------------------- element arithmetic


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6", "Z3xZ9", "Z2xZ2xZ2"])
def test_coords_index_inverse_bijections(spec):
    g = S.parse_group_spec(spec)
    seen = set()
    for i in range(g.order):
        c = g.coords_of(i)
        assert len(c) == len(g.cyclic_orders)
        assert all(0 <= cj < nj for cj, nj in zip(c, g.cyclic_orders))
        assert g.index_of(c) == i
        seen.add(c)
    assert len(seen) == g.order


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6", "Z3xZ9"])
def test_add_is_componentwise_modular(spec):
    g = S.parse_group_spec(spec)
    for i in range(g.order):
        for j in range(g.order):
            want = tuple((a + b) % n for a, b, n in
                         zip(g.coords_of(i), g.coords_of(j), g.cyclic_orders))
            assert g.add(i, j) == g.index_of(want)


def test_identity_and_inverses():
    g = S.parse_group_spec("Z2xZ6")
    assert g.coords_of(0) == (0, 0)
    for i in range(g.order):
        assert g.add(i, 0) == i
        assert g.add(i, g.neg(i)) == 0
        assert g.neg_table()[i] == g.neg(i)


def test_element_orders_match_structure():
    # Z2 x Z4 contains 1 element of order 1, 3 of order 2, 4 of order 4.
    g = S.parse_group_spec("Z2xZ4")
    histogram: dict[int, int] = {}
    for i in range(g.order):
        o = g.element_order(i)
        histogram[o] = histogram.get(o, 0) + 1
        acc, steps = i, 1
        while acc != 0:
            acc = g.add(acc, i)
            steps += 1
        assert steps == o
    assert histogram == {1: 1, 2: 3, 4: 4}


def test_element_order_divides_group_order():
    for spec in ("Z12", "Z2xZ6", "Z3xZ9"):
        g = S.parse_group_spec(spec)
        for i in range(g.order):
            assert g.order % g.element_order(i) == 0


# ------------------------------------------------------- bitmask ops


@pytest.mark.parametrize("spec", ["Z15", "Z2xZ6"])
def test_translate_and_negate_bits_match_elementwise(spec):
    g = S.parse_group_spec(spec)
    rnd = random.Random(7)
    for _ in range(50):
        idx = rnd.sample(range(g.order), rnd.randint(1, g.order - 1))
        bits = sum(1 << i for i in idx)
        t = rnd.randrange(g.order)
        shifted = g.translate_bits(bits, t)
        assert shifted == sum(1 << g.add(i, t) for i in idx)


def test_translate_bits_matches_coordinatewise_reference():
    rnd = random.Random(11)
    for order in range(2, 33):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            for a in range(order):
                for _ in range(3):
                    bits = rnd.getrandbits(order)
                    assert g.translate_bits(bits, a) == \
                        ref.translate_bits_brute(g, bits, a), (g, bits, a)


@pytest.mark.parametrize("spec", ["Z64", "Z2xZ32", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2xZ2",
                                  "Z3xZ3xZ3", "Z7xZ7"])
def test_padded_layout_shift_is_the_translate(spec):
    # the avoiding walk's kill step, K | (K - c), as one shift of the
    # doubled padded mask
    g = S.parse_group_spec(spec)
    pad, unpad, box, doublings = g.padded_layout()
    assert sorted(pad) == list(pad) and len(doublings) == len(g.cyclic_orders)
    assert box == sum(1 << pad[i] for i in range(g.order)) < 1 << pad[g.order]
    assert all(unpad[pad[i]] == i for i in range(g.order)) and len(unpad) == g.order
    if g.is_cyclic_spec:
        assert pad == tuple(range(g.order + 1)) and doublings == (g.order,)
    rnd = random.Random(17)
    neg = g.neg_table()
    for _ in range(8):
        kill = rnd.getrandbits(g.order)
        padded = doubled = sum(1 << pad[i] for i in g.iter_bits(kill))
        for s in doublings:
            doubled |= doubled << s
        for c in range(g.order):
            shifted = padded | (doubled >> pad[c]) & box
            assert sum(1 << unpad[p] for p in g.iter_bits(shifted)) == \
                kill | g.translate_bits(kill, neg[c]), (spec, kill, c)


def test_padded_layout_refuses_masks_past_its_cap():
    with pytest.raises(S.groups.GroupTooLargeError):
        S.make_group((2,) * 13).padded_layout()


def test_automorphism_generators_are_automorphisms():
    # a bijection fixing 0 that is additive on each factor generator e_j is
    # additive everywhere, by induction on the generator word of y
    for order in range(2, 65):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            gens = [g.index_of(int(i == j) for j in range(len(orders)))
                    for i in range(len(orders))]
            for perm in automorphism_generators(g):
                assert sorted(perm) == list(range(order))
                assert perm[0] == 0
                for e in gens:
                    for x in range(order):
                        assert perm[g.add(x, e)] == g.add(perm[x], perm[e])


def test_unit_generators_are_the_greedy_choice_over_the_units():
    # each unit not yet generated is taken in ascending order; what they
    # generate is closed by multiplying until nothing new appears
    for n in range(2, 400):
        gens, reached = [], {1}
        for u in range(2, n):
            if math.gcd(u, n) == 1 and u not in reached:
                gens.append(u)
                grown = reached | {u}
                while grown != reached:
                    reached = grown
                    grown = reached | {r * u % n for r in reached}
        assert _unit_generators(n) == gens, n
        assert reached == {u for u in range(n) if math.gcd(u, n) == 1}, n


def test_units_and_scaling():
    g = S.parse_group_spec("Z12")
    assert sorted(g.units()) == [1, 5, 7, 11]
    bits = (1 << 2) | (1 << 3)
    for u in g.units():
        scaled = sum(1 << (i * u % 12) for i in g.iter_bits(bits))
        assert scaled == (1 << (2 * u) % 12) | (1 << (3 * u) % 12)


def test_canonical_bits_is_orbit_invariant():
    g = S.parse_group_spec("Z15")
    rnd = random.Random(3)
    for _ in range(25):
        idx = rnd.sample(range(1, 15), rnd.randint(1, 8))
        bits = sum(1 << i for i in idx)
        canon = g.canonical_bits_under_units(bits)
        orbit = {sum(1 << (i * u % 15) for i in idx) for u in g.units()}
        assert canon in orbit
        for member in orbit:
            assert g.canonical_bits_under_units(member) == canon
        assert canon == min(orbit)


# --------------------------------------------------------- subgroups


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3"])
def test_all_subgroups_matches_generated_closures(spec):
    g = S.parse_group_spec(spec)
    got = {frozenset(h.indices()) for h in S.all_subgroups(g)}
    want = set(ref.subgroups_brute(g))
    assert got == want
    for h in S.all_subgroups(g):
        assert ref.is_subgroup(g, h.indices())


def test_subgroups_of_order_filters_the_lattice():
    g = S.parse_group_spec("Z12")
    for d in (1, 2, 3, 4, 6, 12):
        subs = S.subgroups_of_order(g, d)
        assert all(h.cardinality == d for h in subs)
        assert len(subs) == 1  # cyclic groups: one subgroup per divisor
    assert S.subgroups_of_order(g, 5) == []


def test_generated_subgroup():
    g = S.parse_group_spec("Z12")
    h = S.generated_subgroup(S.ElementSet.from_indices(g, [4]))
    assert sorted(h.indices()) == [0, 4, 8]
    h2 = S.generated_subgroup(S.ElementSet.from_indices(g, [4, 6]))
    assert sorted(h2.indices()) == [0, 2, 4, 6, 8, 10]


@pytest.mark.parametrize("spec", ["Z2", "Z13", "Z30", "Z2xZ6", "Z3xZ3", "Z2xZ2xZ4"])
def test_generated_subgroup_matches_closure(spec):
    # Z_n reads the gcd off, other specs close under translation
    g = S.parse_group_spec(spec)
    rnd = random.Random(spec)
    for _ in range(40):
        idx = rnd.sample(range(g.order), rnd.randint(0, min(4, g.order)))
        h = S.generated_subgroup(S.ElementSet.from_indices(g, idx))
        assert set(h.indices()) == ref.closure(g, idx), idx


def test_cosets_partition_the_group():
    g = S.parse_group_spec("Z12")
    h = S.generated_subgroup(S.ElementSet.from_indices(g, [3]))
    parts = S.cosets(h)
    seen: set[int] = set()
    for part in parts:
        idx = set(part.indices())
        assert len(idx) == h.cardinality
        assert not (idx & seen)
        seen |= idx
    assert seen == set(range(12))


def test_abelian_groups_of_order_counts():
    # number of abelian groups of order n = product of partition counts
    # of the prime-power exponents
    for n, count in [(7, 1), (8, 3), (12, 2), (16, 5), (36, 4), (24, 3)]:
        orders = S.abelian_groups_of_order(n)
        assert len(orders) == count
        gs = [S.make_group(t) for t in orders]
        assert all(g.order == n for g in gs)
        assert len({g.spec_string for g in gs}) == count


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert S.is_prime(n) == (n in primes)


# ----------------------------------------------------- element sets


def test_element_set_basic_ops():
    g = S.parse_group_spec("Z10")
    a = S.ElementSet.from_indices(g, [1, 3, 5])
    assert a.cardinality == 3
    assert sorted(a.indices()) == [1, 3, 5]
    assert S.ElementSet(g, g.full_mask).is_full
    assert a.serialize() == [1, 3, 5]


def test_element_sets_compare_and_hash_by_group_and_bits():
    z6, z2xz3 = S.parse_group_spec("Z6"), S.parse_group_spec("Z2xZ3")
    a = S.ElementSet.from_indices(z6, [1, 3, 5])
    same = S.ElementSet(S.parse_group_spec("Z6"), 0b101010)
    assert a == same and hash(a) == hash(same)
    assert a != S.ElementSet.from_indices(z6, [1, 3])
    # the same bits in another group of the same order
    other = S.ElementSet(z2xz3, a.bits)
    assert a != other and a.indices() == other.indices()
    assert a != a.bits and a != a.indices()
    assert len({a, same, other}) == 2
    assert {a: "z6", other: "z2xz3"}[same] == "z6"
    assert repr(a) == "ElementSet(Z6, [1, 3, 5])"
    assert repr(other) == "ElementSet(Z2xZ3, [1, 3, 5])"


@pytest.mark.parametrize("bad", [-1, -7, 10, 11, 64])
def test_from_indices_names_an_out_of_range_index(bad):
    g = S.parse_group_spec("Z10")
    with pytest.raises(ValueError, match=rf"element index {bad} out of range"):
        S.ElementSet.from_indices(g, [2, bad, 5])
