"""Independent reference implementations used to cross-check the package.

Everything here is written against the *definitions* (subset sums via
literal subset enumeration, subgroups via closure of small generating
sets, shapes via direct containment scans) rather than against the
package's algorithms, so agreement is meaningful evidence.  Element
arithmetic is taken from the GroupSpec under test; its own correctness
is established separately in test_groups against mixed-radix math.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

# ---------------------------------------------------------------- numbers


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def smallest_prime_divisor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


# ------------------------------------------------------------ subset sums


def subset_sums_brute(group, indices) -> set[int]:
    """All sums over nonempty subsets, by literal enumeration."""
    out: set[int] = set()
    elems = list(indices)
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            s = 0
            for x in combo:
                s = group.add(s, x)
            out.add(s)
    return out


def restricted_sums_brute(group, indices, h: int) -> set[int]:
    """Sums over index subsets of size exactly h."""
    elems = list(indices)
    if h == 0:
        return {0}
    out: set[int] = set()
    for combo in itertools.combinations(range(len(elems)), h):
        s = 0
        for i in combo:
            s = group.add(s, elems[i])
        out.add(s)
    return out


def sumset_brute(group, a, b) -> set[int]:
    return {group.add(x, y) for x in a for y in b}


def closure(group, gens) -> frozenset[int]:
    """Subgroup generated by `gens`: close {0} ∪ gens under addition.

    In a finite group the additive closure of a set containing 0 already
    contains inverses, so this is the subgroup itself.
    """
    cur = {0} | set(gens)
    frontier = list(cur)
    while frontier:
        x = frontier.pop()
        for y in list(cur):
            z = group.add(x, y)
            if z not in cur:
                cur.add(z)
                frontier.append(z)
    return frozenset(cur)


def contains_complete_subset_brute(group, indices) -> bool:
    """Is there a nonempty B ⊆ A with Σ(B) = ⟨B⟩?

    Depth-first over include/exclude decisions, carrying Σ(B) and ⟨B⟩
    incrementally as bitmasks; completely different strategy from a
    subgroup scan.  ⟨B ∪ {x}⟩ is grown by unioning the ⟨B⟩-cosets of
    0, x, 2x, ... until the orbit closes, which keeps every node cheap.
    """
    elems = list(indices)
    translate = group.translate_bits

    def extend_subgroup(sub_bits: int, x: int) -> int:
        cur = sub_bits
        coset = translate(sub_bits, x)
        while coset != sub_bits:
            cur |= coset
            coset = translate(coset, x)
        return cur

    def rec(i: int, sums: int, sub: int) -> bool:
        if sums and sums == sub:
            return True
        if i == len(elems):
            return False
        if rec(i + 1, sums, sub):  # exclude elems[i]
            return True
        x = elems[i]
        new_sums = (1 << x) | sums | translate(sums, x)
        return rec(i + 1, new_sums, extend_subgroup(sub, x))

    return rec(0, 0, 1)


# ------------------------------------------------------------ translation


def _coords(orders, index) -> list[int]:
    """Mixed-radix digits of an element index, last coordinate fastest."""
    out = []
    for n in reversed(orders):
        index, c = divmod(index, n)
        out.append(c)
    return out[::-1]


def _index(orders, coords) -> int:
    index = 0
    for c, n in zip(coords, orders):
        index = index * n + c % n
    return index


def translate_bits_brute(group, bits: int, a: int) -> int:
    """Image of a bitmask under x -> x + a, one element at a time, adding
    coordinates mod each factor order."""
    orders = group.cyclic_orders
    shift = _coords(orders, a)
    out = 0
    for x in range(group.order):
        if bits >> x & 1:
            out |= 1 << _index(orders, [c + s for c, s in
                                        zip(_coords(orders, x), shift)])
    return out


# ----------------------------------------------------------- automorphisms


def automorphism_orbits_brute(group) -> set[frozenset[int]]:
    """Orbits of the full Aut(G) on G.

    A homomorphism is fixed by the images of the factor generators e_i,
    which must be elements killed by n_i; every choice of images is tried
    and kept when the induced map is a bijection.
    """
    orders = group.cyclic_orders
    n = group.order
    add = [[group.add(x, y) for y in range(n)] for x in range(n)]

    def times(x: int, c: int) -> int:
        out = 0
        for _ in range(c):
            out = add[out][x]
        return out

    killed = [[x for x in range(n) if times(x, m) == 0] for m in orders]
    strides = [1]
    for m in reversed(orders[1:]):
        strides.insert(0, strides[0] * m)
    # phi(x) = phi(x - e_j) + phi(e_j), with j the last nonzero coordinate
    steps = [None] + [max(j for j, c in enumerate(_coords(orders, x)) if c)
                      for x in range(1, n)]
    orbit = {x: {x} for x in range(n)}
    for images in itertools.product(*killed):
        phi = [0] * n
        for x in range(1, n):
            j = steps[x]
            phi[x] = add[phi[x - strides[j]]][images[j]]
        if len(set(phi)) == n:
            for x, y in enumerate(phi):
                orbit[x].add(y)
    return {frozenset(o) for o in orbit.values()}


# -------------------------------------------------------------- subgroups


@lru_cache(maxsize=None)
def _subgroups_cached(key) -> tuple[frozenset[int], ...]:
    group, max_gens = key
    found = {frozenset({0}), frozenset(range(group.order))}
    idx = range(group.order)
    for r in range(1, max_gens + 1):
        for gens in itertools.combinations(idx, r):
            found.add(closure(group, gens))
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def subgroups_brute(group, max_gens: int = 3) -> list[frozenset[int]]:
    """Every subgroup generated by at most `max_gens` elements.

    For groups of rank ≤ max_gens (all groups used in these tests) this
    is the complete subgroup lattice.
    """
    return list(_subgroups_cached((group, max_gens)))


def is_subgroup(group, elems) -> bool:
    s = set(elems)
    if 0 not in s:
        return False
    return all(group.add(a, b) in s for a in s for b in s)


# ---------------------------------------------- arithmetic progressions


def is_ap_brute(p: int, elems) -> bool:
    """Is the set a progression {a, a+d, ..., a+(n-1)d} in Z_p, d ≠ 0?"""
    s = {x % p for x in elems}
    n = len(s)
    if n == 0:
        return False
    for d in range(1, p):
        for a in s:
            if {(a + i * d) % p for i in range(n)} == s:
                return True
    return False


def least_ap_differences(p: int) -> dict[frozenset[int], int]:
    """Every progression {a, a+d, ..., a+(n-1)d} of Z_p, 1 <= n <= p, keyed
    to the least d in [1, p/2] that builds it. Reading a progression
    backwards turns d into -d, so these d cover every difference class."""
    out: dict[frozenset[int], int] = {}
    for d in range(p // 2, 0, -1):
        for a in range(p):
            for n in range(1, p + 1):
                out[frozenset((a + i * d) % p for i in range(n))] = d
    return out


# ------------------------------------------------------------- spanning


def spans_brute(group, indices) -> bool:
    return len(subset_sums_brute(group, indices)) == group.order


def max_nonspanning_brute(group) -> tuple[int, tuple[int, ...]]:
    """Largest A ⊆ G∖{0} with Σ(A) ≠ G, with its lex-least witness."""
    n = group.order
    best, witness = 0, ()
    for r in range(1, n):
        hit = None
        for combo in itertools.combinations(range(1, n), r):
            if not spans_brute(group, combo):
                hit = combo
                break
        if hit is None:
            break
        best, witness = r, hit
    return best, witness


# -------------------------------------------------------- orbit records


def orbit_records_unpruned(group) -> list[tuple[int, ...]]:
    """Extremal unit-orbit representatives of a cyclic group, in the order
    the orbit-deduplicated missed-target enumeration emits them, from the
    unpruned DFS: for each target representative in turn, every leaf of
    AvoidingEnumerator with no symmetries; the first leaf of each orbit
    (keyed by its least image under the units, as a bitmask) records that
    least image."""
    import spanlab as S

    n = group.order
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    k = S.critical_number_formula(group) - 1
    seen, out = set(), []
    for t in S.target_representatives(group, True):
        for leaf in S.AvoidingEnumerator(group, t, k).run():
            key = min(sum(1 << (u * x % n) for x in leaf) for u in units)
            if key not in seen:
                seen.add(key)
                out.append(tuple(x for x in range(n) if key >> x & 1))
    return out


def raw_records_unpruned(group) -> list[tuple[int, ...]]:
    """Every extremal set, in the order the missed-target enumeration without
    orbit dedup emits them, from a seen set: for each element as target in
    turn, every leaf of AvoidingEnumerator; the first leaf of each set
    records it."""
    import spanlab as S

    k = S.critical_number_formula(group) - 1
    seen, out = set(), []
    for t in S.target_representatives(group, False):
        for leaf in S.AvoidingEnumerator(group, t, k).run():
            if leaf not in seen:
                seen.add(leaf)
                out.append(leaf)
    return out


# ----------------------------------------------------------- coset data


def coset_profile_brute(group, a_indices, h_indices):
    """(lengths, k, r, m) of A relative to subgroup H, from the definitions.

    lengths[0] = |A ∩ H|; the rest are the per-nonzero-coset counts in
    descending order; r_u counts cosets with exactly u elements (u ≤ 4,
    r_5 counts ≥ 5); m_t = k − Σ_{u<t} r_u.
    """
    h = frozenset(h_indices)
    a = set(a_indices)
    l0 = len(a & h)
    buckets: dict[frozenset[int], int] = {}
    for x in a - h:
        coset = frozenset(group.add(x, y) for y in h)
        buckets[coset] = buckets.get(coset, 0) + 1
    sizes = sorted(buckets.values(), reverse=True)
    k = len(sizes)
    r = [0] * 5
    for sz in sizes:
        r[min(sz, 5) - 1] += 1
    m = []
    acc = 0
    for t in range(5):
        m.append(k - acc)
        acc += r[t]
    return (l0, *sizes), k, tuple(r), tuple(m)


# ------------------------------------------------------------- shapes


def _coset_bits(group, rep, h) -> frozenset[int]:
    return frozenset(group.add(rep, y) for y in h)


def _pair_coset_holds(group, h, a) -> bool:
    """A∖H inside (g+H) ∪ (−g+H) for some g ∉ H."""
    outside = set(a) - set(h)
    if not outside:
        return True
    for g in range(1, group.order):
        if g in h:
            continue
        cover = _coset_bits(group, g, h) | _coset_bits(group, group.neg(g), h)
        if outside <= cover:
            return True
    return False


def shape_subgroup_minus_zero(group, a_indices) -> bool:
    """A equals H∖{0} for a subgroup H of index smallest-prime(|G|)."""
    n = group.order
    p = smallest_prime_divisor(n)
    a = frozenset(a_indices)
    for h in subgroups_brute(group):
        if len(h) == n // p and a == h - {0}:
            return True
    return False


def shape_three_coset(group, a_indices) -> bool:
    """H∖{0} ⊆ A ⊆ H ∪ (g+H) ∪ (−g+H) for an index-p subgroup H."""
    n = group.order
    p = smallest_prime_divisor(n)
    a = frozenset(a_indices)
    for h in subgroups_brute(group):
        if len(h) != n // p or not (h - {0}) <= a:
            continue
        if _pair_coset_holds(group, h, a):
            return True
    return False


def shape_small_three_coset(group, a_indices) -> bool:
    """K∖{0} ⊆ A ⊆ K ∪ (g+K) ∪ (−g+K) for an order-p subgroup K."""
    n = group.order
    p = smallest_prime_divisor(n)
    a = frozenset(a_indices)
    for k in subgroups_brute(group):
        if len(k) != p or not (k - {0}) <= a:
            continue
        if _pair_coset_holds(group, k, a):
            return True
    return False


def shape_symmetric_interval(group, a_indices) -> bool:
    """A = {±g, ±2g, ..., ±((p+q−2)/2)g} for a generator g of order |G|."""
    n = group.order
    p = smallest_prime_divisor(n)
    q = n // p
    if p == q or p % 2 == 0 or not is_prime(q):
        return False
    a = frozenset(a_indices)
    if len(a) != p + q - 2:
        return False
    half = (p + q - 2) // 2
    for g in range(1, n):
        if group.element_order(g) != n:
            continue
        acc = 0
        elems = set()
        for _ in range(half):
            acc = group.add(acc, g)
            elems.add(acc)
            elems.add(group.neg(acc))
        if frozenset(elems) == a:
            return True
    return False
