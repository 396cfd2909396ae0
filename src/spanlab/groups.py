"""Finite abelian groups as mixed-radix index spaces with bitset subsets.

A group Z_{n1} + ... + Z_{nk} is described by its tuple of cyclic orders.
Elements are indexed 0..order-1 in mixed radix, last coordinate fastest,
and subsets are immutable bitmasks over those indices. Keeping the hot
operations (translation, union, popcount) on Python big ints makes the
search engines fast enough for exhaustive runs without native code.

No isomorphism detection is attempted: Z_6 and Z_2 x Z_3 are distinct
specs on purpose, so results always name the presentation they ran on.
"""

from __future__ import annotations

import math
import re
import threading
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

MAX_GROUP_ORDER = 10**6
MAX_SUBGROUP_ENUM_ORDER = 10**4
MAX_PADDED_BITS = 1 << 24  # 2 MB per doubled mask: rank 12 at order 4096

_SPEC_RE = re.compile(r"^z(\d+)(?:xz(\d+))*$", re.IGNORECASE)


class GroupTooLargeError(ValueError):
    pass


class PaddedLayout(NamedTuple):
    """A bit layout in which coordinate j has 2*n_j slots (see
    GroupSpec.padded_layout)."""

    pad: tuple[int, ...]  # bit position of element i; pad[order] past them all
    unpad: dict[int, int]  # position -> element, the inverse of pad
    box: int  # the positions of elements: every coordinate below n_j
    doublings: tuple[int, ...]  # n_j times coordinate j's padded stride


class GroupSpec:
    """A finite abelian group presented as a direct sum of cyclic factors.

    Immutable after construction. Lazily built lookup tables (negation,
    translation plan, padded layout, subgroup list, units, automorphism
    generators) are initialized exactly once under a lock, so instances
    are safe to share across threads.
    """

    __slots__ = (
        "cyclic_orders",
        "order",
        "full_mask",
        "_strides",
        "_lock",
        "_neg_table",
        "_shift_plan",
        "_padded",
        "_subgroups",
        "_units",
        "_automorphisms",
    )

    def __init__(self, cyclic_orders: tuple[int, ...]):
        self.cyclic_orders = tuple(int(n) for n in cyclic_orders)
        order = 1
        for n in self.cyclic_orders:
            order *= n
        self.order = order
        self.full_mask = (1 << order) - 1
        strides = []
        acc = 1
        for n in reversed(self.cyclic_orders):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        # Reentrant: all_subgroups holds the lock while its closure loop
        # calls translate_bits, which may build _shift_plan under it.
        self._lock = threading.RLock()
        self._neg_table: tuple[int, ...] | None = None
        self._shift_plan: tuple[tuple[tuple[int, int, int], ...], ...] | None = None
        self._padded: PaddedLayout | None = None
        self._subgroups: list[ElementSet] | None = None
        self._units: tuple[int, ...] | None = None
        self._automorphisms: tuple[tuple[int, ...], ...] | None = None

    # -- identity ----------------------------------------------------------

    @property
    def spec_string(self) -> str:
        return "x".join(f"Z{n}" for n in self.cyclic_orders)

    @property
    def is_cyclic_spec(self) -> bool:
        return len(self.cyclic_orders) == 1

    def __repr__(self) -> str:
        return f"GroupSpec({self.spec_string})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupSpec) and self.cyclic_orders == other.cyclic_orders

    def __hash__(self) -> int:
        return hash(self.cyclic_orders)

    # -- elements ----------------------------------------------------------

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self.spec_string}")
        coords = []
        for n, stride in zip(self.cyclic_orders, self._strides):
            c, index = divmod(index, stride)
            coords.append(c)
        return tuple(coords)

    def index_of(self, coords: Iterable[int]) -> int:
        coords = tuple(coords)
        if len(coords) != len(self.cyclic_orders):
            raise ValueError(f"expected {len(self.cyclic_orders)} coordinates, got {len(coords)}")
        idx = 0
        for c, n, stride in zip(coords, self.cyclic_orders, self._strides):
            idx += (c % n) * stride
        return idx

    def add(self, i: int, j: int) -> int:
        if len(self.cyclic_orders) == 1:
            return (i + j) % self.order
        return self.index_of(a + b for a, b in zip(self.coords_of(i), self.coords_of(j)))

    def neg(self, i: int) -> int:
        if len(self.cyclic_orders) == 1:
            return (-i) % self.order
        return self.index_of(-c for c in self.coords_of(i))

    def element_order(self, i: int) -> int:
        out = 1
        for c, n in zip(self.coords_of(i), self.cyclic_orders):
            out = math.lcm(out, n // math.gcd(c, n))
        return out

    # -- lazy tables -------------------------------------------------------

    def _lazy(self, slot: str, build):
        """The table held in `slot`, filled with build() on first use: built
        once under the lock, however many threads ask at the same time."""
        tab = getattr(self, slot)
        if tab is None:
            with self._lock:
                tab = getattr(self, slot)
                if tab is None:
                    tab = build()
                    setattr(self, slot, tab)
        return tab

    def neg_table(self) -> tuple[int, ...]:
        tab = self._neg_table
        if tab is None:
            tab = self._lazy("_neg_table", lambda: tuple(
                self.neg(i) for i in range(self.order)))
        return tab

    def _translation_plan(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per element a, the (mask, up, down) steps that translate by a.

        One step per coordinate j where a is nonzero, say a_j = v: mask
        selects the slabs with coordinate j below n_j - v, which move up
        by v*stride_j; the rest wrap around, moving down by (n_j - v)*stride_j.
        """
        def build():
            steps = []
            for n, stride in zip(self.cyclic_orders, self._strides):
                # one bit at the base of each superblock
                replicator = self.full_mask // ((1 << (n * stride)) - 1)
                steps.append([(((1 << ((n - v) * stride)) - 1) * replicator,
                               v * stride, (n - v) * stride)
                              for v in range(n)])
            return tuple(
                tuple(steps[j][v] for j, v in enumerate(self.coords_of(a)) if v)
                for a in range(self.order))
        return self._lazy("_shift_plan", build)

    def padded_layout(self) -> PaddedLayout:
        """The layout in which coordinate j has 2*n_j slots, mixed radix as
        the indices, so element order is bit order. Doubling a mask in it
        (or-ing in its shift by each of the doublings) puts every element
        x also at x + n_j*e_j for each j; a right shift of that doubled mask
        by pad[c], masked to the box, is the mask translated by -c, since a
        position that wrapped is out of range in its lowest wrapped
        coordinate. On a single-factor spec pad is the identity and the one
        doubling is n. A doubled mask has 2^r*|G| bits for rank r.
        """
        def build():
            widths = [2 * n for n in self.cyclic_orders]
            strides = [math.prod(widths[j + 1:]) for j in range(len(widths))]
            if widths[0] * strides[0] > MAX_PADDED_BITS:
                raise GroupTooLargeError(
                    f"{self.spec_string}: a doubled mask of {widths[0] * strides[0]} "
                    f"bits exceeds the padded-layout cap {MAX_PADDED_BITS}")
            pad, box = [0], 1
            for n, s in zip(self.cyclic_orders, strides):  # n copies, s apart
                pad = [p + x * s for p in pad for x in range(n)]
                box *= ((1 << n * s) - 1) // ((1 << s) - 1)
            return PaddedLayout(
                tuple(pad + [pad[-1] + 1]), {p: i for i, p in enumerate(pad)}, box,
                tuple(n * s for n, s in zip(self.cyclic_orders, strides)))
        return self._lazy("_padded", build)

    # -- bitset kernels ----------------------------------------------------

    def translate_bits(self, bits: int, a: int) -> int:
        """Image of a subset bitmask under x -> x + a."""
        if a == 0 or bits == 0:
            return bits
        if len(self.cyclic_orders) == 1:
            n = self.order
            return ((bits << a) | (bits >> (n - a))) & self.full_mask
        for mask, up, down in (self._shift_plan or self._translation_plan())[a]:
            low = bits & mask
            bits = (low << up) | ((bits ^ low) >> down)
        return bits

    def iter_bits(self, bits: int) -> Iterator[int]:
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # -- unit scaling (single-factor specs only) ----------------------------

    def units(self) -> tuple[int, ...]:
        if not self.is_cyclic_spec:
            raise ValueError("unit scaling is defined for single-factor specs only")
        tab = self._units
        if tab is None:
            n = self.order
            tab = self._lazy("_units", lambda: tuple(
                u for u in range(1, n) if math.gcd(u, n) == 1))
        return tab

    def canonical_bits_under_units(self, bits: int) -> int:
        """The least of bits' images under the unit scalings (u = 1 among
        them), its elements read once and scaled for each unit."""
        n = self.order
        elems = list(self.iter_bits(bits))
        best = bits
        for u in self.units():
            out = 0
            for x in elems:
                out |= 1 << x * u % n
            if out < best:
                best = out
        return best


class ElementSet:
    """Immutable subset of a group, stored as a bitmask over element indices.
    Subgroups and cosets are ElementSets too; set algebra works on `bits`."""

    __slots__ = ("group", "bits")

    def __init__(self, group: GroupSpec, bits: int):
        self.group = group
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ElementSet) and self.bits == other.bits
                and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "ElementSet":
        bits = 0
        for i in indices:
            if i < 0:
                break  # i is the bad index
            bits |= 1 << i
        else:  # the upper bound is checked once, on the finished mask
            if not bits >> group.order:
                return cls(group, bits)
            i = bits.bit_length() - 1  # the largest index is a bad one
        raise ValueError(f"element index {i} out of range for {group.spec_string}")

    def indices(self) -> tuple[int, ...]:
        return tuple(self.group.iter_bits(self.bits))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[int]:
        return self.group.iter_bits(self.bits)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.group.order and (self.bits >> index) & 1 == 1

    @property
    def is_full(self) -> bool:
        return self.bits == self.group.full_mask

    def serialize(self) -> list[int]:
        return list(self.indices())

    def __repr__(self) -> str:
        return f"ElementSet({self.group.spec_string}, {list(self.indices())})"


def make_group(cyclic_orders: Iterable[int]) -> GroupSpec:
    orders = tuple(int(n) for n in cyclic_orders)
    if not orders:
        raise ValueError("a group needs at least one cyclic factor")
    for n in orders:
        if n < 2:
            raise ValueError(f"cyclic factor {n} is not a valid order (need >= 2)")
    total = 1
    for n in orders:
        total *= n
        if total > MAX_GROUP_ORDER:
            raise GroupTooLargeError(f"group order exceeds cap {MAX_GROUP_ORDER}")
    return GroupSpec(orders)


@lru_cache(maxsize=None)
def cached_group(orders: tuple[int, ...]) -> GroupSpec:
    """make_group, one GroupSpec (and its lazy tables) per spec per process:
    pool workers and fuzz trials reuse it."""
    return make_group(orders)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse "Z15" or "Z2xZ4" (case-insensitive) into a GroupSpec."""
    cleaned = text.strip()
    if not _SPEC_RE.match(cleaned):
        raise ValueError(f"malformed group spec {text!r}; expected forms like Z15 or Z2xZ4")
    orders = [int(part[1:]) for part in cleaned.lower().split("x")]
    return make_group(orders)


def smallest_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError(f"{n} has no prime divisor")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def prime_factors(n: int) -> dict[int, int]:
    """{p: e} with n = prod p**e, primes ascending, by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_divisor(n) == n


def _unit_generators(n: int) -> list[int]:
    """A generating set of the unit group mod n, chosen greedily."""
    gens, reached = [], {1}
    for u in range(2, n):
        if math.gcd(u, n) == 1 and u not in reached:
            gens.append(u)
            # <reached, u> is the cosets reached * u^j below the first
            # power of u that lies in reached
            grown, power = set(reached), u
            while power not in reached:
                grown.update(r * power % n for r in reached)
                power = power * u % n
            reached = grown
    return gens


def automorphism_generators(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of g, each as the element permutation x -> phi(x).

    They generate a subgroup of Aut(g), built from moves on the factor
    generators e_i (Hillar & Rhea, Automorphisms of finite abelian groups,
    Amer. Math. Monthly 114, 2007): unit scalings e_i -> u*e_i,
    transvections e_i -> e_i + c*e_j with c the least positive value such
    that n_j | c*n_i, and swaps of equal factors. Each move is an
    automorphism: a unit scaling and a swap plainly are, and a
    transvection is a homomorphism (n_i*c = 0 mod n_j) that fixes
    coordinate i, so x -> x - x_i*c*e_j inverts it. Built once per group
    and cached on it.
    """
    return g._lazy("_automorphisms", lambda: _build_automorphism_generators(g))


def _build_automorphism_generators(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    orders = g.cyclic_orders
    k = len(orders)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    moves: list[dict[int, tuple[int, ...]]] = []  # factor -> new image
    for i, n in enumerate(orders):
        for u in _unit_generators(n):
            moves.append({i: tuple(u * x for x in basis[i])})
        for j, m in enumerate(orders):
            c = m // math.gcd(n, m)
            if j != i and c < m:
                moves.append({i: tuple(x + c * y for x, y in zip(basis[i], basis[j]))})
            if j > i and m == n:
                moves.append({i: basis[j], j: basis[i]})
    coords = [g.coords_of(x) for x in range(g.order)]
    perms = []
    for move in moves:
        images = [move.get(i, basis[i]) for i in range(k)]
        perms.append(tuple(g.index_of(sum(x * image[j] for x, image in zip(xs, images))
                                      for j in range(k))
                           for xs in coords))
    return tuple(perms)


def _closure_extend(g: GroupSpec, sub_bits: int, x: int) -> int:
    # union of sub_bits + k*x over all k; doubles coverage each pass
    cur = sub_bits
    while True:
        nxt = cur | g.translate_bits(cur, x)
        if nxt == cur:
            return cur
        cur = nxt


def generated_subgroup(s: ElementSet) -> ElementSet:
    """Smallest subgroup containing s. Additive closure suffices in a finite
    group; in Z_n it is the multiples of gcd(n, s), read off directly."""
    g = s.group
    if g.is_cyclic_spec:
        return ElementSet(g, g.full_mask // ((1 << math.gcd(g.order, *s)) - 1))
    bits = 1  # identity
    for x in s:
        if not (bits >> x) & 1:
            bits = _closure_extend(g, bits, x)
    return ElementSet(g, bits)


def all_subgroups(g: GroupSpec) -> list[ElementSet]:
    """Every subgroup, sorted by (order, element tuple). Cached on the group."""

    def build() -> list[ElementSet]:
        if g.order > MAX_SUBGROUP_ENUM_ORDER:
            raise GroupTooLargeError(
                f"subgroup enumeration capped at order {MAX_SUBGROUP_ENUM_ORDER}")
        found = {1}
        frontier = [1]
        while frontier:
            s = frontier.pop()
            for x in range(1, g.order):
                if not (s >> x) & 1:
                    t = _closure_extend(g, s, x)
                    if t not in found:
                        found.add(t)
                        frontier.append(t)
        return [ElementSet(g, bits) for bits in sorted(
            found, key=lambda bits: (bits.bit_count(), tuple(g.iter_bits(bits))))]
    return g._lazy("_subgroups", build)


def subgroups_of_order(g: GroupSpec, order: int) -> list[ElementSet]:
    return [h for h in all_subgroups(g) if h.bits.bit_count() == order]


def cosets(h: ElementSet) -> list[ElementSet]:
    """Cosets of the subgroup h in its ambient group; h itself comes first,
    the rest ordered by smallest representative."""
    g = h.group
    seen = h.bits
    out = [h]
    for i in range(g.order):
        if not (seen >> i) & 1:
            c = g.translate_bits(h.bits, i)
            out.append(ElementSet(g, c))
            seen |= c
    return out


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_groups_of_order(n: int) -> list[tuple[int, ...]]:
    """Invariant-factor presentations (ascending) of all abelian groups of order n."""
    if n < 2:
        raise ValueError("order must be at least 2")
    factors = prime_factors(n)
    primes = list(factors)
    choices = [_partitions(e) for e in factors.values()]
    out = []

    def rec(i: int, chosen: list[tuple[int, ...]]) -> None:
        if i == len(primes):
            depth = max(len(c) for c in chosen)
            invariant = []
            for level in range(depth):
                d = 1
                for p, parts in zip(primes, chosen):
                    if level < len(parts):
                        d *= p ** parts[level]
                invariant.append(d)
            out.append(tuple(sorted(invariant)))
            return
        for parts in choices[i]:
            rec(i + 1, chosen + [parts])

    rec(0, [])
    return sorted(out)
