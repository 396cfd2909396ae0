"""Executable lower-bound checks for subset sums and sumsets.

Each check evaluates one classical inequality on a concrete instance and
returns a small report: whether the hypothesis applied, the computed
left-hand side, the bound, and whether the instance satisfies it. A check
whose hypothesis does not apply reports holds=True with applied=False
(no claim is made), never a violation.

Difference witnesses for arithmetic progressions are canonicalized to the
representative in [1, (p-1)/2], so d and -d never disagree across calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .groups import ElementSet, all_subgroups, generated_subgroup, is_prime
from .sums import (SequenceOverGroup, restricted_sums, subset_sums_bits, sumset,
                   sumset_bits)


def epsilon(ell: int) -> int:
    """2 for ell=0, 1 for ell=1, 0 for ell>=2."""
    if ell < 0:
        raise ValueError("epsilon is defined for nonnegative arguments")
    return 2 if ell == 0 else (1 if ell == 1 else 0)


def two_sqrt_floor(n: int) -> int:
    """floor(2*sqrt(n)) computed exactly in integers."""
    if n < 0:
        raise ValueError("needs a nonnegative argument")
    return math.isqrt(4 * n)


# -- arithmetic progression detection ---------------------------------------


class APWitness(NamedTuple):
    is_ap: bool
    first: int | None
    difference: int | None
    size: int

    def to_dict(self) -> dict:
        return self._asdict()


def _prime_cyclic_order(b: ElementSet | SequenceOverGroup) -> int:
    g = b.group
    if not g.is_cyclic_spec or not is_prime(g.order):
        raise ValueError("needs a prime-order Z_p spec")
    return g.order


def _prime_sets(sets: Sequence[ElementSet]) -> int:
    """p of the one Z_p that every set lives in, all of them nonempty."""
    if not sets:
        raise ValueError("needs at least one set")
    p = _prime_cyclic_order(sets[0])
    for s in sets:
        if s.group != sets[0].group:
            raise ValueError("sets from mismatched groups")
        if s.bits == 0:
            raise ValueError("needs nonempty sets")
    return p


def detect_ap(b: ElementSet) -> APWitness:
    """Decide whether b is an arithmetic progression in Z_p.

    Stepping by d runs through all of Z_p, so a proper subset B splits
    into maximal d-runs and B+d keeps all of B but the first of each run:
    B is a d-progression exactly when |B intersect (B+d)| = |B|-1. The
    witness is the least such d in [1, p/2], and first is the one element
    of B not in B+d. The full group reports first 0 and difference 1.
    """
    p = _prime_cyclic_order(b)
    n = b.cardinality
    if n == 0:
        raise ValueError("empty set has no progression structure")
    if n == p:
        return APWitness(True, 0, 1, n)
    step = _progression_step(b.bits, n, p)
    return APWitness(True, *step, n) if step else APWitness(False, None, None, n)


def _progression_step(bits: int, n: int, p: int) -> tuple[int, int] | None:
    """(first, least difference) of the n-element proper subset `bits` of
    Z_p as a progression, or None: the rule of detect_ap."""
    full = (1 << p) - 1
    for d in range(1, p // 2 + 1):
        moved = ((bits << d) | (bits >> (p - d))) & full
        if (moved & bits).bit_count() == n - 1:
            return (bits & ~moved).bit_length() - 1, d
    return None


# -- report types ------------------------------------------------------------


class BoundReport(NamedTuple):
    """One check on one instance; actual and bound are None where the check
    computed none, and detail holds plain JSON values."""

    check: str
    applied: bool
    holds: bool
    actual: int | None
    bound: int | None
    detail: dict

    def to_dict(self) -> dict:
        return self._asdict()


# -- the checks ---------------------------------------------------------------


def check_folk_lemma(a: ElementSet, b: ElementSet) -> BoundReport:
    """|A|+|B| >= |G|+1 forces A+B = G."""
    if a.bits == 0 or b.bits == 0:
        raise ValueError("folk lemma needs nonempty sets")
    g = a.group
    applied = a.cardinality + b.cardinality >= g.order + 1
    if not applied:
        return BoundReport("folk_lemma", False, True, None, None,
                           {"sizes": [a.cardinality, b.cardinality], "order": g.order})
    s = sumset(a, b)
    return BoundReport("folk_lemma", True, s.is_full, s.cardinality, g.order,
                       {"sizes": [a.cardinality, b.cardinality], "order": g.order})


def check_hamidoune_dichotomy(a: ElementSet) -> BoundReport:
    """0 not in A, |A| >= 14: either |Sigma_circ(A)| >= min(|G|-3, 3|A|-3)
    or some proper subgroup H has |A intersect H| >= |A|-1."""
    if a.bits == 0 or (a.bits & 1):
        raise ValueError("expects a nonempty subset of G \\ {0}")
    if a.cardinality < 14:
        raise ValueError("dichotomy needs |A| >= 14")
    g = a.group
    size = a.cardinality
    sigma0 = (subset_sums_bits(g, a.indices()) | 1).bit_count()
    bound = min(g.order - 3, 3 * size - 3)
    branch_i = sigma0 >= bound
    branch_ii = False
    concentrated = None
    for h in all_subgroups(g):
        if h.bits == g.full_mask:
            continue
        if (a.bits & h.bits).bit_count() >= size - 1:
            branch_ii = True
            concentrated = h.serialize()
            break
    return BoundReport("hamidoune_dichotomy", True, branch_i or branch_ii,
                       sigma0, bound,
                       {"branch_i": branch_i, "branch_ii": branch_ii,
                        "subgroup": concentrated})


def _iterated_sumset_size(sets: Sequence[ElementSet]) -> int:
    """|A_1 + ... + A_h| for sets _prime_sets has checked."""
    group, acc = sets[0].group, sets[0].bits
    for s in sets[1:]:
        acc = sumset_bits(group, acc, s.bits)
    return acc.bit_count()


def check_cauchy_davenport(sets: Sequence[ElementSet]) -> BoundReport:
    """|A_1 + ... + A_h| >= min(p, sum |A_i| - h + 1) over Z_p."""
    p = _prime_sets(sets)
    total = sum(s.cardinality for s in sets)
    bound = min(p, total - len(sets) + 1)
    actual = _iterated_sumset_size(sets)
    return BoundReport("cauchy_davenport", True, actual >= bound, actual, bound,
                       {"sizes": [s.cardinality for s in sets], "p": p})


def check_diderrich(sets: Sequence[ElementSet]) -> BoundReport:
    """All but at most one set an AP with a well-defined nonzero difference,
    those differences pairwise distinct under some sign choice:
    |A_1 + ... + A_h| >= min(p, sum |A_i| - 1).

    A progression only carries a difference once it has two elements, so
    singletons count toward the single allowed exception just like
    non-progressions; letting two singletons pick "free" distinct
    differences would make the bound false (in Z13, {2} + {1} + {3, 8}
    sums to just {6, 11}, below 1 + 1 + 2 - 1 = 3).
    """
    p = _prime_sets(sets)
    exceptions = 0
    diffs: list[int] = []
    for s in sets:
        size = s.bits.bit_count()
        if size == 1:
            exceptions += 1
        elif size <= p - 2:
            step = _progression_step(s.bits, size, p)
            if step:
                diffs.append(step[1])
            else:
                exceptions += 1
        # size p-1 and p sets are progressions for *every* difference, so
        # they can always dodge a clash and never constrain the assignment
    # each difference is its class's representative in [1, p/2], so the
    # classes {d, -d} are distinct exactly when the differences are. Sign
    # flips cannot rescue a clash: two parallel lines add with
    # Cauchy-Davenport equality whichever ends they are read from (in Z13,
    # {2,6,11} + {7,11}, both difference-4 lines, has 4 elements)
    applied = exceptions <= 1 and len(set(diffs)) == len(diffs)
    total = sum(s.cardinality for s in sets)
    actual = _iterated_sumset_size(sets)
    if not applied:
        return BoundReport("diderrich", False, True, actual, None,
                           {"exception_count": exceptions, "p": p,
                            "sign_assignment": None})
    bound = min(p, total - 1)
    return BoundReport("diderrich", True, actual >= bound, actual, bound,
                       {"exception_count": exceptions, "p": p,
                        "sign_assignment": diffs})


def check_vosper(b1: ElementSet, b2: ElementSet) -> BoundReport:
    """Critical pair structure in Z_p: |B1+B2| >= min(p-1, |B1|+|B2|)
    unless both sets are progressions with the same canonical difference.

    The check applies when the sumset is below that bound, i.e. when
    |B1+B2| < min(p, |B1|+|B2|) and |B1+B2| <= p-2, and then holds when
    the two progressions match. The sumset cap is part of the underlying
    theorem, not a convenience: pairs whose sumset misses exactly one
    element form a genuine exceptional family that need not be
    progressions (B1 = {1,2,3,5}, B2 = {0,1,3} in Z7 has |B1+B2| = 6 = p-1
    with neither set an AP), so such pairs report applied=False.
    """
    p = _prime_cyclic_order(b1)
    if p == 2:
        raise ValueError("needs an odd prime order")
    if b2.group != b1.group:
        raise ValueError("sets from mismatched groups")
    for b in (b1, b2):
        if not 2 <= b.cardinality <= p - 2:
            raise ValueError("needs 2 <= |B_i| <= p-2")
    s = sumset_bits(b1.group, b1.bits, b2.bits).bit_count()
    bound = min(p - 1, b1.cardinality + b2.cardinality)
    detail: dict = {"p": p, "sizes": [b1.cardinality, b2.cardinality]}
    if s >= bound:
        return BoundReport("vosper", False, True, s, bound, detail)
    w1, w2 = detect_ap(b1), detect_ap(b2)
    # canonical differences live in [1,(p-1)/2], so {d,-d} classes compare equal
    match = bool(w1.is_ap and w2.is_ap and w1.difference == w2.difference)
    detail.update(b1_witness=w1.to_dict(), b2_witness=w2.to_dict(),
                  differences_match=match)
    return BoundReport("vosper", True, match, s, bound, detail)


def check_three_facts(a: ElementSet, h: int) -> BoundReport:
    """Restricted-sum growth in Z_p.

    (i)   |Sigma_h(A)| >= min(p, h|A| - h^2 + 1) for 1 <= h <= |A|;
    (ii)  with m = floor(sqrt(4p-7)) and 0 not in A, |A| = m forces
          |Sigma_t(A U {0})| = p at t = floor((m+1)/2);
    (iii) 0 not in A and |A| >= floor(2 sqrt(p-2)) force |Sigma(A)| = p.

    Clause (ii) is stated here in the zero-adjoined form, which is the one
    that follows from (i); the bare form without adjoining 0 is false
    (witness {1,...,6} in Z_13) and is reported by the fuzz campaigns as an
    observational count instead.
    """
    p = _prime_cyclic_order(a)
    size = a.cardinality
    if size == 0:
        raise ValueError("needs a nonempty set")
    if not 1 <= h <= size:
        raise ValueError(f"h = {h} out of range [1, {size}]")
    detail: dict = {"p": p, "size": size, "h": h}

    actual_i = restricted_sums(a, h).cardinality
    bound_i = min(p, h * size - h * h + 1)
    clause_i = actual_i >= bound_i
    detail["clause_i"] = {"actual": actual_i, "bound": bound_i, "holds": clause_i}

    holds = clause_i
    m = math.isqrt(4 * p - 7)
    zero_free = (a.bits & 1) == 0
    if zero_free and size == m:
        t = (m + 1) // 2
        adjoined = ElementSet(a.group, a.bits | 1)
        actual_ii = restricted_sums(adjoined, t).cardinality
        clause_ii = actual_ii == p
        detail["clause_ii"] = {"t": t, "actual": actual_ii, "bound": p, "holds": clause_ii}
        holds = holds and clause_ii

    if zero_free and size >= two_sqrt_floor(p - 2):
        actual_iii = subset_sums_bits(a.group, a.indices()).bit_count()
        clause_iii = actual_iii == p
        detail["clause_iii"] = {"actual": actual_iii, "bound": p, "holds": clause_iii}
        holds = holds and clause_iii

    return BoundReport("three_facts", True, holds, actual_i, bound_i, detail)


def check_growth_bound(a: ElementSet) -> BoundReport:
    """|Sigma(A)| >= min(|<A>|, 2|A|-1) for nonempty A with 0 not in A."""
    if a.bits == 0 or (a.bits & 1):
        raise ValueError("expects a nonempty subset of G \\ {0}")
    generated = generated_subgroup(a).cardinality
    actual = subset_sums_bits(a.group, a.indices()).bit_count()
    bound = min(generated, 2 * a.cardinality - 1)
    return BoundReport("growth_bound", True, actual >= bound, actual, bound,
                       {"generated_order": generated, "size": a.cardinality})


def check_prime_growth_bound(a: ElementSet) -> BoundReport:
    """|Sigma_circ(A)| >= min(p, 2l - 1 + epsilon(l)) for A in Z_p \\ {0}."""
    p = _prime_cyclic_order(a)
    if a.bits & 1:
        raise ValueError("expects a subset of Z_p \\ {0}")
    ell = a.cardinality
    actual = (subset_sums_bits(a.group, a.indices()) | 1).bit_count()
    bound = min(p, 2 * ell - 1 + epsilon(ell))
    return BoundReport("prime_growth_bound", True, actual >= bound, actual, bound,
                       {"p": p, "ell": ell})


def check_sequence_growth(t: SequenceOverGroup) -> BoundReport:
    """|Sigma_circ(T)| >= min(p, |T|+1) for sequences over Z_p \\ {0} of length
    >= 2, and at equality with |T| <= p-2 the support is {g, -g} or {g}."""
    p = _prime_cyclic_order(t)
    terms, length = t.terms, len(t.terms)
    if length < 2:
        raise ValueError("needs a sequence of length >= 2")
    if 0 in terms:
        raise ValueError("terms must avoid 0")
    actual = (subset_sums_bits(t.group, terms) | 1).bit_count()
    bound = min(p, length + 1)
    holds = actual >= bound
    detail: dict = {"p": p, "length": length}
    if holds and actual == bound:
        support = sorted(set(terms))
        pm_pair = len(support) == 1 or (
            len(support) == 2 and (support[0] + support[1]) % p == 0)
        structure_ok = length >= p - 1 or pm_pair
        detail["equality"] = {"support": support, "long": length >= p - 1,
                              "pm_pair": pm_pair, "holds": structure_ok}
        holds = structure_ok
    return BoundReport("sequence_growth", True, holds, actual, bound, detail)
