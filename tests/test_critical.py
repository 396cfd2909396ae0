"""Critical numbers: closed formula, exhaustive search, and their agreement."""

from __future__ import annotations

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


# critical_number_search(g).nodes with orbit-reduced targets, frozen from the
# engine that kept (Sigma, -Sigma) per node: the kill-mask recurrence must
# walk the same tree, not just reach the same value
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


def test_search_walks_the_frozen_tree_to_order_36():
    nodes = {}
    for order in range(3, 37):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            out = S.critical_number_search(g, S.SearchBudget(max_exact_order=36))
            assert out.status == "complete", g
            nodes[g.spec_string] = out.nodes
    assert len(nodes) == 60
    assert nodes == SEARCH_NODES_TO_36


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


@pytest.mark.extended
def test_search_certifies_the_formula_on_z7xz7():
    g = _g("Z7xZ7")
    out = S.critical_number_search(g, budget=S.SearchBudget(extended=True))
    assert out.status == "complete" and out.targets_searched == 2
    assert out.value == 12 == S.critical_number_formula(g)
    assert S.subset_sums_bits(g, out.witness) != g.full_mask
