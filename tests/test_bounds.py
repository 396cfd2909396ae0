"""Growth-bound checks: hand-derived vectors, regressions, AP detection."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import reference as ref
import spanlab as S


def _set(spec: str, idx) -> S.ElementSet:
    return S.ElementSet.from_indices(S.parse_group_spec(spec), idx)


# ----------------------------------------------------------- helpers


def test_two_sqrt_floor_is_exact():
    for n in list(range(0, 2000)) + [10**6, 10**9, 4 * 10**12]:
        assert S.two_sqrt_floor(n) == math.isqrt(4 * n)


def test_epsilon_values():
    assert S.epsilon(0) == 2
    assert S.epsilon(1) == 1
    for ell in range(2, 40):
        assert S.epsilon(ell) == 0


# ---------------------------------------------------- AP detection


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_detect_ap_exhaustive_small_primes(p):
    g = S.parse_group_spec(f"Z{p}")
    for bits in range(1, 1 << p):
        idx = [i for i in range(p) if bits >> i & 1]
        w = S.detect_ap(S.ElementSet(g, bits))
        assert w.is_ap == ref.is_ap_brute(p, idx), idx
        assert w.size == len(idx)
        if w.is_ap:
            run = {(w.first + i * w.difference) % p for i in range(w.size)}
            assert run == set(idx)
            assert 1 <= w.difference <= max(1, (p - 1) // 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_detect_ap_reports_the_least_difference(p):
    # check_vosper compares differences, so the least one is the contract
    least = ref.least_ap_differences(p)
    g = S.parse_group_spec(f"Z{p}")
    for bits in range(1, 1 << p):
        idx = frozenset(i for i in range(p) if bits >> i & 1)
        w = S.detect_ap(S.ElementSet(g, bits))
        assert w.difference == least.get(idx), sorted(idx)
        if w.is_ap and len(idx) < p:
            # first starts the run: stepping back from it leaves the set
            assert (w.first - w.difference) % p not in idx, sorted(idx)


@pytest.mark.slow
@pytest.mark.parametrize("p", [17, 19, 23])
def test_detect_ap_sampled_larger_primes(p):
    g = S.parse_group_spec(f"Z{p}")
    rnd = random.Random(p)
    for _ in range(4000):
        idx = rnd.sample(range(p), rnd.randint(1, p - 1))
        w = S.detect_ap(S.ElementSet.from_indices(g, idx))
        assert w.is_ap == ref.is_ap_brute(p, idx), idx
    # plus every actual progression of every length
    for d in range(1, p):
        for a in range(p):
            for ln in range(1, p + 1):
                idx = [(a + i * d) % p for i in range(ln)]
                assert S.detect_ap(S.ElementSet.from_indices(g, idx)).is_ap


def test_detect_ap_degenerate_sizes_use_difference_one():
    g = S.parse_group_spec("Z11")
    for idx in ([4], list(range(1, 11)), list(range(11))):
        w = S.detect_ap(S.ElementSet.from_indices(g, idx))
        assert w.is_ap and w.difference == 1


# ------------------------------------------------ subset-sum growth


def test_growth_bound_vectors():
    # |Sigma(A)| >= min(|<A>|, 2|A| - 1)
    r = S.check_growth_bound(_set("Z12", [1, 5]))
    assert r.applied and r.holds
    assert r.actual == 3 and r.bound == 3  # Sigma = {1,5,6}, bound 2*2-1
    r = S.check_growth_bound(_set("Z12", [2, 4]))
    assert r.holds and r.actual == 3 and r.bound == 3  # inside <2>, order 6


def test_prime_growth_bound_vectors():
    # |Sigma_circ(A)| >= min(p, 2l - 1 + epsilon(l))
    r = S.check_prime_growth_bound(_set("Z7", [3]))
    assert r.applied and r.holds
    assert r.actual == 2 and r.bound == 2  # {0,3}; 2*1-1+eps(1) = 2
    r = S.check_prime_growth_bound(_set("Z7", [1, 3]))
    assert r.holds and r.actual == 4 and r.bound == 3


def test_cauchy_davenport_vectors():
    # |A1 + ... + Ah| >= min(p, sum|Ai| - h + 1)
    r = S.check_cauchy_davenport([_set("Z7", [1, 2]), _set("Z7", [3, 4])])
    assert r.applied and r.holds
    assert r.actual == 3 and r.bound == 3  # {4,5,6}
    r = S.check_cauchy_davenport([_set("Z5", [0, 1, 2]), _set("Z5", [0, 1, 2])])
    assert r.holds and r.actual == 5 and r.bound == 5  # saturates at p


def test_folk_lemma_vectors():
    # |A| + |B| >= |G| + 1 forces A + B = G (any finite abelian group)
    r = S.check_folk_lemma(_set("Z7", [0, 1, 2, 3]), _set("Z7", [0, 1, 2, 3]))
    assert r.applied and r.holds and r.actual == 7
    r = S.check_folk_lemma(_set("Z7", [0, 1, 2]), _set("Z7", [0, 1, 2, 3]))
    assert not r.applied  # 3 + 4 = 7 < 8: hypothesis not met
    r = S.check_folk_lemma(_set("Z2xZ4", [0, 1, 2, 3, 4]),
                           _set("Z2xZ4", [2, 3, 5, 6]))
    assert r.applied and r.holds


def test_three_facts_vectors():
    # clause (i): |Sigma_h(A)| >= min(p, h|A| - h^2 + 1)
    r = S.check_three_facts(_set("Z11", [1, 2, 3, 4]), 2)
    assert r.applied and r.holds
    assert r.actual == 5 and r.bound == 5  # {3..7}; 2*4 - 4 + 1


def test_sequence_growth_vectors():
    g5 = S.parse_group_spec("Z5")
    r = S.check_sequence_growth(S.SequenceOverGroup(g5, (1, 1)))
    assert r.applied and r.holds  # Sigma_circ = {0,1,2}, bound min(5,3)
    assert r.actual == 3 and r.bound == 3
    r = S.check_sequence_growth(S.SequenceOverGroup(g5, (1, 4, 1)))
    assert r.holds  # equality case with support {g, -g}


def test_hamidoune_dichotomy_vectors():
    # concentrated case: all of H minus zero, |H| = 15 inside Z30
    h_nz = [i for i in range(2, 30, 2)]
    assert len(h_nz) == 14
    r = S.check_hamidoune_dichotomy(_set("Z30", h_nz))
    assert r.applied and r.holds  # subgroup branch
    # spread case over a prime group: sums reach everything
    r = S.check_hamidoune_dichotomy(_set("Z31", list(range(1, 15))))
    assert r.applied and r.holds  # growth branch
    with pytest.raises(ValueError, match="14"):
        S.check_hamidoune_dichotomy(_set("Z31", list(range(1, 14))))


# --------------------------------------------------- critical pairs


def test_vosper_trigger_requires_sumset_two_below_p():
    # |B1+B2| = p - 1 belongs to the exceptional family: no structure forced
    r = S.check_vosper(_set("Z7", [1, 2, 3, 5]), _set("Z7", [0, 1, 3]))
    assert r.actual == 6 and r.bound == 6 and not r.applied and r.holds


def test_vosper_critical_pair_structure():
    r = S.check_vosper(_set("Z7", [0, 1, 2]), _set("Z7", [0, 1]))
    assert r.applied and r.holds
    assert r.actual == 4 < r.bound == 5
    assert r.detail["b1_witness"]["is_ap"] and r.detail["b2_witness"]["is_ap"]
    assert r.detail["differences_match"]


@pytest.mark.parametrize("p", [5, 7])
def test_vosper_exhaustive_never_violated(p):
    g = S.parse_group_spec(f"Z{p}")
    subsets = [
        s
        for bits in range(1, 1 << p)
        if 2 <= (s := S.ElementSet(g, bits)).cardinality <= p - 2
    ]
    assert subsets
    for b1 in subsets:
        for b2 in subsets:
            assert S.check_vosper(b1, b2).holds


def test_diderrich_singletons_spend_the_exception():
    # {2} + {1} + {3,8} in Z13 sums to {6,11}: if singletons were allowed
    # to pick distinct differences freely the bound 1+1+2-1 = 3 would
    # apply and fail, so the hypothesis must not fire here.
    r = S.check_diderrich([_set("Z13", [2]), _set("Z13", [1]),
                           _set("Z13", [3, 8])])
    assert not r.applied
    assert r.holds


def test_diderrich_differences_distinct_up_to_sign():
    # {2,6,11} is an AP with difference 4 (or 9); {7,11} has difference 4.
    # Parallel progressions must not be rescued by flipping one sign.
    r = S.check_diderrich([_set("Z13", [2, 6, 11]), _set("Z13", [7, 11]),
                           _set("Z13", [8])])
    assert not r.applied
    assert r.holds


def test_diderrich_applies_and_holds_on_clean_instance():
    # differences 1 and 2, one singleton exception allowed
    r = S.check_diderrich([_set("Z13", [1, 2, 3]), _set("Z13", [1, 3, 5]),
                           _set("Z13", [7])])
    assert r.applied and r.holds
    assert r.bound == min(13, 3 + 3 + 1 - 1)


def test_diderrich_full_sized_sets_are_exempt_from_distinctness():
    # sets of size p-1 and p are progressions for every difference, so
    # two of them never collide
    g = "Z5"
    r = S.check_diderrich([_set(g, [0, 1, 2, 3]), _set(g, [1, 2, 3, 4])])
    assert r.applied and r.holds
    assert r.actual == 5  # sumset saturates Z5


def test_diderrich_random_instances_never_violated():
    rnd = random.Random(99)
    for _ in range(300):
        p = rnd.choice([5, 7, 11, 13])
        g = S.parse_group_spec(f"Z{p}")
        sets = []
        for _ in range(rnd.randint(2, 4)):
            size = rnd.randint(1, p - 1)
            sets.append(S.ElementSet.from_indices(
                g, rnd.sample(range(p), size)))
        assert S.check_diderrich(sets).holds


# ----------------------------------------------------- report shape


def test_bound_reports_carry_named_check_and_detail():
    r = S.check_growth_bound(_set("Z12", [1, 5]))
    assert isinstance(r.check, str) and r.check
    assert isinstance(r.detail, dict)
    r2 = S.check_diderrich([_set("Z13", [1, 2]), _set("Z13", [1, 3])])
    assert isinstance(r2.detail, dict)
