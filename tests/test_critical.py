"""Critical numbers: closed formula, exhaustive search, and their agreement."""

from __future__ import annotations

import math

import pytest

import reference as ref
import spanlab as S


def _g(spec: str) -> S.GroupSpec:
    return S.parse_group_spec(spec)


# ----------------------------------------------------------- formula


def test_elementary_divisors_are_prime_power_decomposition():
    assert S.elementary_divisors(_g("Z12")) == (3, 4)
    assert S.elementary_divisors(_g("Z6")) == (2, 3)
    assert S.elementary_divisors(_g("Z8")) == (8,)
    assert S.elementary_divisors(_g("Z2xZ4")) == (2, 4)
    assert S.elementary_divisors(_g("Z2xZ2")) == (2, 2)
    assert S.elementary_divisors(_g("Z3xZ3")) == (3, 3)
    assert S.elementary_divisors(_g("Z7")) == (7,)


def test_case_selection():
    assert S.critical_number_case(_g("Z7")) == "prime"
    assert S.critical_number_case(_g("Z13")) == "prime"
    for spec in ("Z2xZ2", "Z3xZ3", "Z4", "Z6", "Z2xZ4", "Z8"):
        assert S.critical_number_case(_g(spec)) == "special_case2", spec
    # |G|/p an odd prime within the window counts as the second case too
    assert S.critical_number_case(_g("Z9")) == "special_case2"
    assert S.critical_number_case(_g("Z15")) == "special_case2"
    assert S.critical_number_case(_g("Z25")) == "special_case2"
    assert S.critical_number_case(_g("Z49")) == "special_case2"
    # the m = p end of the window is Z_{p^2} alone; Z_p + Z_p is general
    assert S.critical_number_case(_g("Z5xZ5")) == "general_case3"
    assert S.critical_number_case(_g("Z7xZ7")) == "general_case3"
    # window exceeded: q = 7 > 3 + floor(2*sqrt(1)) + 1 = 6
    assert S.critical_number_case(_g("Z21")) == "general_case3"
    assert S.critical_number_case(_g("Z16")) == "general_case3"
    assert S.critical_number_case(_g("Z12")) == "general_case3"


@pytest.mark.parametrize("spec,value", [
    # primes: floor(2*sqrt(p-2))
    ("Z3", 2), ("Z5", 3), ("Z7", 4), ("Z11", 6), ("Z13", 6),
    ("Z17", 7), ("Z19", 8), ("Z23", 9),
    # the six listed small groups: |G|/p + p - 1
    ("Z2xZ2", 3), ("Z3xZ3", 5), ("Z4", 3), ("Z6", 4), ("Z2xZ4", 5), ("Z8", 5),
    # window case: |G|/p + p - 1
    ("Z9", 5), ("Z15", 7), ("Z25", 9),
    # general case: |G|/p + p - 2
    ("Z5xZ5", 8), ("Z7xZ7", 12), ("Z12", 6), ("Z16", 8), ("Z21", 8), ("Z18", 9), ("Z24", 12),
])
def test_formula_anchors(spec, value):
    assert S.critical_number_formula(_g(spec)) == value


def test_formula_matches_case_arithmetic():
    for order in range(3, 25):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            p = ref.smallest_prime_divisor(order)
            m = order // p
            case = S.critical_number_case(g)
            got = S.critical_number_formula(g)
            if case == "prime":
                assert got == S.two_sqrt_floor(order - 2)
            elif case == "special_case2":
                assert got == m + p - 1
            else:
                assert got == m + p - 2


def test_pq_window_interval_is_where_cr_is_p_plus_q_minus_1():
    primes = [n for n in range(3, 100) if S.is_prime(n)]
    for p in primes:
        for q in primes:
            if p < q:
                cr = S.critical_number_formula(S.make_group((p * q,)))
                assert (S.pq_window(p, q) == "interval") == (cr == p + q - 1), (p, q)
                # isqrt(4(p-2)) = floor(2*sqrt(p-2)); (47, 61) sits on the edge
                top = p + math.isqrt(4 * (p - 2)) + 1
                want = ("interval" if q <= top else
                        "coset" if q < 2 * p + 3 else "theorem")
                assert S.pq_window(p, q) == want, (p, q)
    assert [S.pq_window(2, q) for q in (5, 7)] == [None, "theorem"]
    assert [S.pq_window(*pq) for pq in ((5, 3), (3, 3), (3, 9), (4, 7))] == [None] * 4


# ------------------------------------------------------------ search


def test_search_agrees_with_definition_on_small_groups():
    for spec in ("Z5", "Z7", "Z9", "Z2xZ4", "Z3xZ3", "Z12"):
        g = _g(spec)
        out = S.critical_number_search(g)
        assert out.status == "complete"
        brute_size, _ = ref.max_nonspanning_brute(g)
        assert out.max_nonspanning_size == brute_size
        assert out.value == brute_size + 1
        assert out.value == S.critical_number_formula(g)


def test_search_witness_is_lexicographic_least_without_orbit_reduction():
    g = _g("Z9")
    out = S.critical_number_search(g, reduce_orbits=False)
    brute_size, brute_witness = ref.max_nonspanning_brute(g)
    assert out.witness == brute_witness == (1, 2, 3, 8)
    assert out.max_nonspanning_size == brute_size == 4
    assert not ref.spans_brute(g, out.witness)


def test_search_with_orbit_reduction_finds_same_value():
    for order in range(3, 25):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            reduced = S.critical_number_search(g, reduce_orbits=True)
            literal = S.critical_number_search(g, reduce_orbits=False)
            assert reduced.value == literal.value, g
            assert len(reduced.witness) == reduced.max_nonspanning_size
            assert literal.witness <= reduced.witness
            assert S.subset_sums_bits(g, reduced.witness) != g.full_mask
    assert S.critical_number_search(_g("Z9"), reduce_orbits=True).value == 5


# critical_number_search(g).nodes with orbit-reduced targets and no symmetry
# cut, frozen from the engine that kept (Sigma, -Sigma) per node: the
# kill-mask recurrence must walk the same tree, not just reach the same value
SEARCH_NODES_TO_36 = {
    "Z3": 2, "Z2xZ2": 3, "Z4": 5, "Z5": 5, "Z6": 16, "Z7": 11, "Z2xZ2xZ2": 36,
    "Z2xZ4": 45, "Z8": 39, "Z3xZ3": 33, "Z9": 39, "Z10": 77, "Z11": 59,
    "Z2xZ6": 215, "Z12": 235, "Z13": 188, "Z14": 312, "Z15": 566,
    "Z2xZ2xZ2xZ2": 480, "Z2xZ2xZ4": 716, "Z2xZ8": 857, "Z4xZ4": 409,
    "Z16": 650, "Z17": 740, "Z3xZ6": 734, "Z18": 996, "Z19": 988,
    "Z2xZ10": 1758, "Z20": 1539, "Z21": 3748, "Z22": 1507, "Z23": 3071,
    "Z2xZ2xZ6": 4506, "Z2xZ12": 7123, "Z24": 4163, "Z5xZ5": 10600,
    "Z25": 10572, "Z26": 2993, "Z3xZ3xZ3": 7202, "Z3xZ9": 16345, "Z27": 17820,
    "Z2xZ14": 10689, "Z28": 6171, "Z29": 16470, "Z30": 10171, "Z31": 31532,
    "Z2xZ2xZ2xZ2xZ2": 14224, "Z2xZ2xZ2xZ4": 25130, "Z2xZ2xZ8": 36321,
    "Z2xZ4xZ4": 20451, "Z2xZ16": 35052, "Z4xZ8": 15892, "Z32": 11915,
    "Z33": 50637, "Z34": 10758, "Z35": 161307, "Z2xZ18": 77860,
    "Z3xZ12": 28281, "Z6xZ6": 12946, "Z36": 28822,
}


# critical_number_search(g).nodes, each target's walk cut by the
# automorphisms fixing it (target_symmetries)
PRUNED_SEARCH_NODES_TO_36 = {
    "Z3": 2, "Z2xZ2": 3, "Z4": 5, "Z5": 5, "Z6": 16, "Z7": 10, "Z2xZ2xZ2": 17,
    "Z2xZ4": 38, "Z8": 36, "Z3xZ3": 22, "Z9": 35, "Z10": 66, "Z11": 32,
    "Z2xZ6": 166, "Z12": 206, "Z13": 90, "Z14": 221, "Z15": 369,
    "Z2xZ2xZ2xZ2": 55, "Z2xZ2xZ4": 273, "Z2xZ8": 501, "Z4xZ4": 241,
    "Z16": 425, "Z17": 330, "Z3xZ6": 562, "Z18": 769, "Z19": 449,
    "Z2xZ10": 1319, "Z20": 1097, "Z21": 2006, "Z22": 952, "Z23": 1362,
    "Z2xZ2xZ6": 1666, "Z2xZ12": 4173, "Z24": 2975, "Z5xZ5": 3037,
    "Z25": 4567, "Z26": 1837, "Z3xZ3xZ3": 773, "Z3xZ9": 9152, "Z27": 7937,
    "Z2xZ14": 8040, "Z28": 4072, "Z29": 7309, "Z30": 7256, "Z31": 14321,
    "Z2xZ2xZ2xZ2xZ2": 173, "Z2xZ2xZ2xZ4": 1853, "Z2xZ2xZ8": 9701,
    "Z2xZ4xZ4": 5403, "Z2xZ16": 22591, "Z4xZ8": 7201, "Z32": 6805,
    "Z33": 26764, "Z34": 6473, "Z35": 64950, "Z2xZ18": 64590,
    "Z3xZ12": 16015, "Z6xZ6": 7568, "Z36": 19454,
}


def _unpruned_search(g):
    """critical_number_search's target loop with no symmetry cut: (size,
    witness, nodes) under the same floor carry."""
    best_size, best_wit, nodes = 0, (), 0
    for t in S.target_representatives(g, True):
        res = S.max_avoiding(g, t, floor=max(best_size - 1, 0), symmetries=())
        assert res.complete
        nodes += res.nodes
        if res.witness is not None and (
                res.size > best_size
                or (res.size == best_size and res.witness < best_wit)):
            best_size, best_wit = res.size, res.witness
    return best_size, best_wit, nodes


def test_search_walks_the_frozen_tree_to_order_36():
    unpruned, pruned = {}, {}
    for order in range(3, 37):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            out = S.critical_number_search(g)
            assert out.status == "complete", g
            size, witness, unpruned[g.spec_string] = _unpruned_search(g)
            # the cut keeps the value and the witness
            assert (out.max_nonspanning_size, out.witness) == (size, witness), g
            pruned[g.spec_string] = out.nodes
    assert len(unpruned) == 60
    assert unpruned == SEARCH_NODES_TO_36
    assert pruned == PRUNED_SEARCH_NODES_TO_36
    assert sum(pruned.values()) == 348_336 < sum(unpruned.values()) == 706_032


def test_search_respects_budget():
    out = S.critical_number_search(_g("Z21"), budget=S.SearchBudget(max_nodes=50))
    assert out.status == "budget_exceeded"
    assert out.value is None


def test_search_counts_targets():
    g = _g("Z9")
    reduced = S.critical_number_search(g, reduce_orbits=True)
    literal = S.critical_number_search(g, reduce_orbits=False)
    assert literal.targets_searched == 9  # all of Z9, zero included
    assert reduced.targets_searched == len(S.target_representatives(g, True))
    assert reduced.targets_searched < literal.targets_searched


# -------------------------------------------------------- dual table


def test_verify_critical_formula_small_window():
    table = S.verify_critical_formula(12)
    specs = {row.spec for row in table.rows}
    # every abelian group of order 3..12 appears exactly once
    want = {S.make_group(t).spec_string
            for n in range(3, 13) for t in S.abelian_groups_of_order(n)}
    assert specs == want
    assert len(table.rows) == len(want)
    for row in table.rows:
        assert row.status == "complete"
        assert row.agree
        assert row.searched == row.formula
        assert not ref.spans_brute(_g(row.spec), row.witness)
        assert len(row.witness) == row.formula - 1


def test_verify_critical_formula_budget_marks_pending_rows():
    table = S.verify_critical_formula(21, budget=S.SearchBudget(max_nodes=200))
    assert any(row.status != "complete" for row in table.rows)
    for row in table.rows:
        if row.status != "complete":
            assert row.searched is None
            assert not row.agree


# cr(G) by exhaustive search for every abelian group of order 37..64
SEARCHED_CR_37_TO_64 = {
    "Z37": 11, "Z38": 19, "Z39": 14, "Z2xZ2xZ10": 20, "Z2xZ20": 20, "Z40": 20,
    "Z41": 12, "Z42": 21, "Z43": 12, "Z2xZ22": 22, "Z44": 22, "Z3xZ15": 16,
    "Z45": 16, "Z46": 23, "Z47": 13, "Z2xZ2xZ2xZ6": 24, "Z2xZ2xZ12": 24,
    "Z2xZ24": 24, "Z4xZ12": 24, "Z48": 24, "Z7xZ7": 12, "Z49": 13,
    "Z5xZ10": 25, "Z50": 25, "Z51": 18, "Z2xZ26": 26, "Z52": 26, "Z53": 14,
    "Z3xZ3xZ6": 27, "Z3xZ18": 27, "Z54": 27, "Z55": 14, "Z2xZ2xZ14": 28,
    "Z2xZ28": 28, "Z56": 28, "Z57": 20, "Z58": 29, "Z59": 15, "Z2xZ30": 30,
    "Z60": 30, "Z61": 15, "Z62": 31, "Z3xZ21": 22, "Z63": 22,
    "Z2xZ2xZ2xZ2xZ2xZ2": 32, "Z2xZ2xZ2xZ2xZ4": 32, "Z2xZ2xZ2xZ8": 32,
    "Z2xZ2xZ4xZ4": 32, "Z2xZ2xZ16": 32, "Z2xZ4xZ8": 32, "Z2xZ32": 32,
    "Z4xZ4xZ4": 32, "Z4xZ16": 32, "Z8xZ8": 32, "Z64": 32,
}


@pytest.mark.extended
def test_search_certifies_the_formula_to_order_64():
    searched = {}
    for order in range(37, 65):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            out = S.critical_number_search(g)
            assert out.status == "complete", g
            assert out.value == S.critical_number_formula(g), g
            assert S.subset_sums_bits(g, out.witness) != g.full_mask, g
            searched[g.spec_string] = out.value
    assert len(searched) == 55
    assert searched == SEARCHED_CR_37_TO_64


@pytest.mark.extended
def test_search_certifies_the_formula_on_z7xz7():
    g = _g("Z7xZ7")
    out = S.critical_number_search(g)
    assert out.status == "complete" and out.targets_searched == 2
    assert out.value == 12 == S.critical_number_formula(g)
    assert S.subset_sums_bits(g, out.witness) != g.full_mask
