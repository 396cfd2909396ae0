"""Subset-sum objects over finite abelian groups.

Sigma(A) is the set of sums of nonempty subsets of A (for a sequence,
nonempty subsequences); Sigma_circ adds 0; Sigma_h keeps only sums of
exactly h distinct terms. All three run as bitset dynamic programs, one
translate per term, so a full Sigma costs |A| big-int shifts. On a
single-factor spec Z_n the translate is an inline rotation,
((x << a) | (x >> (n - a))) & full, with no call per term; other specs
call GroupSpec.translate_bits. Sigma_h updates only the layers that can
still reach h with the terms left.

Convention: Sigma(empty) = {0}, Sigma_0 = {0}.
"""

from __future__ import annotations

from typing import Iterable, Union

from .groups import ElementSet, GroupSpec, all_subgroups, generated_subgroup


class SequenceOverGroup:
    """A finite multiset of group elements, stored as a sorted tuple of indices."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GroupSpec, terms: tuple[int, ...]):
        self.group = group
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SequenceOverGroup) and self.terms == other.terms
                and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.group, self.terms))

    def __repr__(self) -> str:
        return f"SequenceOverGroup(group={self.group!r}, terms={self.terms!r})"

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "SequenceOverGroup":
        terms = tuple(sorted(map(int, indices)))
        if terms and not (terms[0] >= 0 and terms[-1] < group.order):
            bad = terms[0] if terms[0] < 0 else terms[-1]
            raise ValueError(f"element index {bad} out of range for {group.spec_string}")
        return cls(group, terms)

    def __len__(self) -> int:
        return len(self.terms)


Summable = Union[ElementSet, SequenceOverGroup]


def _terms_of(x: Summable) -> tuple[GroupSpec, tuple[int, ...]]:
    if isinstance(x, SequenceOverGroup):
        return x.group, x.terms
    if isinstance(x, ElementSet):
        return x.group, x.indices()
    raise TypeError(f"expected ElementSet or SequenceOverGroup, got {type(x).__name__}")


def subset_sums_bits(group: GroupSpec, terms: Iterable[int]) -> int:
    """Bitmask of Sigma over the given terms; 0 for an empty term list."""
    acc = 0
    if group.is_cyclic_spec:
        n, full = group.order, group.full_mask
        for a in terms:
            x = acc | 1
            acc |= ((x << a) | (x >> (n - a))) & full
        return acc
    translate = group.translate_bits
    for a in terms:
        acc |= translate(acc | 1, a)
    return acc


def subset_sums(x: Summable) -> ElementSet:
    """Sigma(x): sums over nonempty subsets (subsequences). Sigma(empty) = {0}."""
    group, terms = _terms_of(x)
    if not terms:
        return ElementSet(group, 1)
    return ElementSet(group, subset_sums_bits(group, terms))


def subset_sums_with_zero(x: Summable) -> ElementSet:
    """Sigma_circ(x) = Sigma(x) together with 0."""
    group, terms = _terms_of(x)
    return ElementSet(group, subset_sums_bits(group, terms) | 1)


def restricted_sums(x: Summable, h: int) -> ElementSet:
    """Sigma_h(x): sums of exactly h distinct terms. Sigma_0 = {0}."""
    group, terms = _terms_of(x)
    if not 0 <= h <= len(terms):
        raise ValueError(f"h = {h} out of range for a sequence of length {len(terms)}")
    n, full, cyclic = group.order, group.full_mask, group.is_cyclic_spec
    translate = group.translate_bits
    layers = [1] + [0] * h  # layers[j]: the sums of j terms seen so far
    left = len(terms)
    for seen, a in enumerate(terms):
        left -= 1  # a layer below h - left cannot reach h any more
        for j in range(min(h, seen + 1), max(0, h - left - 1), -1):
            prev = layers[j - 1]
            layers[j] |= (((prev << a) | (prev >> (n - a))) & full if cyclic
                          else translate(prev, a))
    return ElementSet(group, layers[h])


def sumset_bits(group: GroupSpec, a: int, b: int) -> int:
    """Bitmask of A + B for the bitmasks a and b: the larger set translated
    by each element of the smaller, until the union fills the group."""
    big, small = (a, b) if a.bit_count() >= b.bit_count() else (b, a)
    n, full, cyclic = group.order, group.full_mask, group.is_cyclic_spec
    translate = group.translate_bits
    out = 0
    for x in group.iter_bits(small):
        out |= ((big << x) | (big >> (n - x))) & full if cyclic else translate(big, x)
        if out == full:
            break
    return out


def sumset(a: ElementSet, b: ElementSet) -> ElementSet:
    """A + B = {x + y : x in A, y in B}."""
    if a.group != b.group:
        raise ValueError("sumset over mismatched groups")
    if a.bits == 0 or b.bits == 0:
        raise ValueError("sumset of an empty set is undefined here")
    return ElementSet(a.group, sumset_bits(a.group, a.bits, b.bits))


def spans(a: Summable) -> bool:
    """True when Sigma(a) is the whole group."""
    group, terms = _terms_of(a)
    if not terms:
        return group.order == 1
    return subset_sums_bits(group, terms) == group.full_mask


def is_complete(a: ElementSet) -> bool:
    """A is complete when Sigma(A) equals the subgroup A generates."""
    if a.bits == 0:
        raise ValueError("completeness is defined for nonempty sets")
    return subset_sums_bits(a.group, a.indices()) == generated_subgroup(a).bits


def complete_subgroup_witnesses(a: ElementSet) -> list[ElementSet]:
    """Nontrivial subgroups K with Sigma(A intersect K) = K, in canonical order.

    Sigma is monotone under supersets, so a complete subset generating K
    exists inside A exactly when A's full trace on K is complete.
    """
    group = a.group
    out = []
    for h in all_subgroups(group):
        if h.bits == 1:
            continue
        trace = a.bits & h.bits
        if trace and subset_sums_bits(group, tuple(group.iter_bits(trace))) == h.bits:
            out.append(h)
    return out


def contains_complete_subset(a: ElementSet) -> ElementSet | None:
    """Smallest subgroup K (by order, then elements) completed inside A, if any."""
    if a.bits == 0 or (a.bits & 1):
        raise ValueError("expects a nonempty subset of G \\ {0}")
    witnesses = complete_subgroup_witnesses(a)
    return witnesses[0] if witnesses else None
