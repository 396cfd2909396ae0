"""Critical numbers of finite abelian groups.

The critical number cr(G) is the least t such that every subset of
G \\ {0} with at least t elements has subset sums covering all of G.
Two independent routes are provided:

* ``critical_number_formula`` -- the closed form, split by |G| prime /
  a short list of small exceptional groups or |G| = p*q with q in a
  window above p (``pq_window``, the paper's split of |G| = pq) /
  everything else;
* ``critical_number_search`` -- exhaustive branch-and-bound over
  target-avoiding subsets, returning a maximum non-spanning witness,
  which certifies cr(G) = |witness| + 1 with no formula input.

``verify_critical_formula`` runs both on every abelian group up to a
given order and reports agreement row by row.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .bounds import two_sqrt_floor
from .groups import (GroupSpec, abelian_groups_of_order, is_prime, make_group,
                     prime_factors, smallest_prime_divisor)
from .search import (SearchBudget, max_avoiding, target_representatives,
                     target_symmetries)
from .sums import subset_sums_bits

MAX_EXACT_ORDER = 64  # cr searches up to this order unless told otherwise

# Isomorphism types (as sorted prime-power elementary divisors) that take
# the larger value |G|/p + p - 1 unconditionally.
_SPECIAL_TYPES = frozenset({
    (2, 2),   # Z2 x Z2
    (3, 3),   # Z3 x Z3
    (4,),     # Z4
    (2, 3),   # Z6
    (2, 4),   # Z2 x Z4
    (8,),     # Z8
})


def elementary_divisors(group: GroupSpec) -> tuple[int, ...]:
    """Sorted prime-power decomposition; equal tuples <=> isomorphic groups."""
    return tuple(sorted(p ** e for n in group.cyclic_orders
                        for p, e in prime_factors(n).items()))


def pq_window(p: int, q: int) -> str | None:
    """Where the paper's split of |G| = p*q puts the primes p < q.

    'interval' when p is odd and q <= p + floor(2*sqrt(p-2)) + 1: cr(Z_pq)
    = p + q - 1, the symmetric generator intervals (Example 2, conjecture
    2). 'coset' when p is odd and q lies above that but below 2p + 3:
    cr = p + q - 2, the order-p coset sets (Example 1, conjecture 1).
    'theorem' when q >= 2p + 3, the structure theorem's hypothesis. None
    when p and q are not primes with p < q, or p = 2 and q < 7.
    """
    if not (p < q and is_prime(p) and is_prime(q)):
        return None
    if q >= 2 * p + 3:
        return "theorem"
    if p == 2:
        return None
    return "interval" if q <= p + two_sqrt_floor(p - 2) + 1 else "coset"


def critical_number_case(group: GroupSpec) -> str:
    """Which arm of the closed form applies: 'prime', 'special_case2',
    or 'general_case3'.

    The special arm fires for the six exceptional small groups, when
    |G| = p*q with (p, q) in the 'interval' window of pq_window, and on
    the cyclic group Z_{p^2} for odd p, where the window's end q = p would
    sit. There the larger value 2p - 1 holds: Z9 has the non-spanning
    4-set {1, 3, 4, 7}, whose subset sums hit everything except 0, and
    exhaustive search gives cr(Z25) = 9. The other group of order p^2,
    Z_p + Z_p, takes the general value 2p - 2: search gives cr = 8 on
    Z5xZ5 and 12 on Z7xZ7 (Z3xZ3 is on the exceptional list). A spec of
    order p^2 is one of the two by its factor count.
    """
    n = group.order
    if n < 3:
        raise ValueError(f"critical number requires order >= 3, got {n}")
    p = smallest_prime_divisor(n)
    if n == p:
        return "prime"
    m = n // p
    if (pq_window(p, m) == "interval" or (m == p > 2 and group.is_cyclic_spec)
            or elementary_divisors(group) in _SPECIAL_TYPES):
        return "special_case2"
    return "general_case3"


def critical_number_formula(group: GroupSpec) -> int:
    """Closed-form cr(G) for |G| >= 3."""
    case = critical_number_case(group)
    n = group.order
    p = smallest_prime_divisor(n)
    if case == "prime":
        return two_sqrt_floor(p - 2)
    if case == "special_case2":
        return n // p + p - 1
    return n // p + p - 2


class CriticalSearchOutcome(NamedTuple):
    """Result of the exhaustive search. status is 'complete',
    'budget_exceeded', or 'skipped' (order above max_exact_order)."""

    status: str
    value: int | None
    max_nonspanning_size: int | None
    witness: tuple[int, ...] | None
    nodes: int
    targets_searched: int

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "witness": list(self.witness) if self.witness is not None else None}


def critical_number_search(group: GroupSpec, budget: SearchBudget = SearchBudget(),
                           reduce_orbits: bool = True,
                           max_exact_order: int = MAX_EXACT_ORDER
                           ) -> CriticalSearchOutcome:
    """Certified cr(G) by exhaustive search.

    For each avoided target t, branch and bound finds the largest subset
    whose sums miss t; the floor carried across targets lets later
    searches skip anything not beating the best so far, while ties are
    still revisited, so the reported witness is the lexicographically
    least maximum-size set avoiding any of the searched targets. With
    reduce_orbits=False every target is searched and the witness is the
    global lexicographic minimum over all maximum non-spanning sets;
    with reduction on, one target per automorphism orbit is searched
    (see target_representatives). The *size* (and hence the value) is
    still exact, because an automorphism carries a set missing t to one
    missing t's representative, but the witness is canonical only up to
    the automorphisms used. The empty set is the size-0 baseline
    (Sigma(empty) = {0} != G). Each target's walk is cut by the
    automorphisms fixing it (search.target_symmetries), on cyclic and
    non-cyclic specs alike; that keeps each target's size and witness.
    The budget bounds the whole search, shared across targets; orders
    above max_exact_order are skipped.
    """
    n = group.order
    if n < 3:
        raise ValueError(f"critical number requires order >= 3, got {n}")
    if n > max_exact_order:
        return CriticalSearchOutcome("skipped", None, None, None, 0, 0)
    targets = target_representatives(group, reduce_orbits)
    best_size = 0
    best_wit: tuple[int, ...] = ()
    nodes = 0
    start = time.monotonic()
    for i, t in enumerate(targets):
        res = max_avoiding(group, t, floor=max(best_size - 1, 0),
                           budget=budget.remaining(nodes, start),
                           symmetries=target_symmetries(group, t))
        nodes += res.nodes
        if not res.complete:
            return CriticalSearchOutcome("budget_exceeded", None, None, None, nodes, i)
        if res.witness is not None and (
                res.size > best_size
                or (res.size == best_size and res.witness < best_wit)):
            best_size, best_wit = res.size, res.witness
    if best_wit and subset_sums_bits(group, best_wit) == group.full_mask:
        raise AssertionError("search returned a spanning witness")  # pragma: no cover
    return CriticalSearchOutcome("complete", best_size + 1, best_size,
                                 best_wit, nodes, len(targets))


class CriticalRow(NamedTuple):
    spec: str
    order: int
    formula: int
    searched: int | None
    agree: bool | None
    witness: tuple[int, ...] | None
    nodes: int
    status: str

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "witness": list(self.witness) if self.witness is not None else None}


class CriticalTable:
    __slots__ = ("max_order", "rows")

    def __init__(self, max_order: int):
        self.max_order = max_order
        self.rows: list[CriticalRow] = []

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.rows if r.agree is not None) and any(
            r.agree is not None for r in self.rows)

    @property
    def disagreements(self) -> list[CriticalRow]:
        return [r for r in self.rows if r.agree is False]

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "all_agree": self.all_agree,
            "rows": [r.to_dict() for r in self.rows],
        }


def verify_critical_formula(max_order: int, budget: SearchBudget = SearchBudget()
                            ) -> CriticalTable:
    """Formula vs exhaustive search on every abelian group of order
    3..max_order, each group's search on the whole budget. ValueError for
    max_order < 3, which would check no group."""
    if max_order < 3:
        raise ValueError(f"max_order must be at least 3, got {max_order}")
    table = CriticalTable(max_order=max_order)
    for n in range(3, max_order + 1):
        for orders in abelian_groups_of_order(n):
            g = make_group(orders)
            formula = critical_number_formula(g)
            out = critical_number_search(g, budget, max_exact_order=max_order)
            agree = (out.value == formula) if out.status == "complete" else None
            table.rows.append(CriticalRow(
                spec=g.spec_string, order=n, formula=formula,
                searched=out.value, agree=agree, witness=out.witness,
                nodes=out.nodes, status=out.status))
    return table
