"""Extremal non-spanning sets: enumeration, classification, verdicts.

An extremal set for a group G is A subset of G \\ {0} with |A| = cr(G) - 1
and Sigma(A) != G: one element short of the guaranteed-spanning size, yet
still missing something. This module enumerates them exhaustively, tags
each against the known structural shapes, profiles them by coset layout,
and states the claims the conjectures and the structure theorem make of
them, with the reports the conjecture and verify-main commands certify.

Shape tags (witness payloads in parentheses):

* SHAPE_I    -- A = H \\ {0} for a subgroup H of index p (H);
* SHAPE_II   -- H \\ {0} <= A <= H + (g+H) + (-g+H) for an index-p H (H, g);
* SHAPE_B    -- synonym of SHAPE_II, emitted alongside it (same witness);
* SHAPE_EX1  -- K \\ {0} <= A <= K + (g+K) + (-g+K) for an order-p K (K, g);
* SHAPE_EX2  -- A = {+-g, +-2g, ..., +-mg} for a generator g, where
                |G| = p*q with (p, q) in pq_window's 'interval' window
                and m = (p+q-2)/2 (g);
* HAS_COMPLETE_SUBSET -- some subgroup K has Sigma(A intersect K) = K (K);
* UNCLASSIFIED -- none of the SHAPE_* tags matched.

p always denotes the smallest prime divisor of |G|.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from functools import lru_cache
from typing import Iterator, NamedTuple

from .critical import critical_number_formula, pq_window
from .groups import (ElementSet, GroupSpec, cosets, make_group,
                     smallest_prime_divisor, subgroups_of_order)
from .search import (ENGINE_VERSION, AvoidingEnumerator, CheckpointMismatch,
                     ProcessPoolExecutor, SearchBudget, SearchStats, SizedEnumerator,
                     check_fields, check_no_extra_fields, target_representatives,
                     target_symmetries, usable_cpus)
from .sums import complete_subgroup_witnesses, contains_complete_subset, subset_sums_bits

SCHEMA_VERSION = 1
MAX_CANDIDATES = 5_000_000  # the largest C(|G|-1, k) the direct walk takes

SHAPE_I = "SHAPE_I"
SHAPE_II = "SHAPE_II"
SHAPE_B = "SHAPE_B"
SHAPE_EX1 = "SHAPE_EX1"
SHAPE_EX2 = "SHAPE_EX2"
HAS_COMPLETE_SUBSET = "HAS_COMPLETE_SUBSET"
UNCLASSIFIED = "UNCLASSIFIED"

_SHAPE_TAGS = frozenset({SHAPE_I, SHAPE_II, SHAPE_B, SHAPE_EX1, SHAPE_EX2})


# -- coset profiles -------------------------------------------------------------


class CosetProfile(NamedTuple):
    """Layout of a set against a subgroup H: how much of H it fills and how
    its remainder spreads over the nonzero cosets.

    lengths = (l_0, l_1, ..., l_k) with l_0 = |A intersect H| and
    l_1 >= ... >= l_k > 0 the sizes of the nonempty nonzero-coset slices;
    r = (r_1..r_5) with r_u = #{i >= 1 : l_i = u} for u <= 4 and
    r_5 = #{i : l_i >= 5}; m = (m_1..m_5) with m_t = k - sum(r_u, u < t),
    so the slices of size >= t are exactly l_1..l_{m_t}.
    """

    subgroup: ElementSet
    k: int
    lengths: tuple[int, ...]
    r: tuple[int, int, int, int, int]
    m: tuple[int, int, int, int, int]

    def to_dict(self) -> dict:
        return {
            "subgroup": list(self.subgroup.indices()),
            "k": self.k,
            "lengths": list(self.lengths),
            "r": list(self.r),
            "m": list(self.m),
        }


def coset_profile(a: ElementSet, h: ElementSet) -> CosetProfile:
    """Decompose a by the cosets of the subgroup h (proper, nontrivial)."""
    g = a.group
    if h.group != g:
        raise ValueError("subgroup from a different group")
    if not 1 < h.bits.bit_count() < g.order:
        raise ValueError("coset profile needs a proper nontrivial subgroup")
    ell0 = (a.bits & h.bits).bit_count()
    nonzero = []
    for coset in cosets(h)[1:]:
        c = (a.bits & coset.bits).bit_count()
        if c:
            nonzero.append(c)
    nonzero.sort(reverse=True)
    k = len(nonzero)
    r = tuple(sum(1 for l in nonzero if l == u) for u in (1, 2, 3, 4))
    r = r + (sum(1 for l in nonzero if l >= 5),)
    m, acc = [], 0
    for t in range(1, 6):
        m.append(k - acc)
        acc += r[t - 1]
    return CosetProfile(h, k, (ell0, *nonzero), r, tuple(m))


# -- extremality and classification ---------------------------------------------


def extremality_failure(a: ElementSet) -> str | None:
    """None when a is extremal; otherwise a human-readable reason."""
    g = a.group
    if g.order < 3:
        return "group order below 3"
    if 0 in a:
        return "contains the identity"
    k = critical_number_formula(g) - 1
    if len(a) != k:
        return f"size {len(a)} != cr - 1 = {k}"
    if subset_sums_bits(g, a.indices()) == g.full_mask:
        return "subset sums cover the whole group"
    return None


def _coset_pair_shape(g: GroupSpec, subgroups: list[ElementSet],
                      a_bits: int) -> tuple[ElementSet, int] | None:
    """The first H in subgroups with H \\ {0} <= A <= H + (x+H) + (-x+H),
    and the least such x; None when no H qualifies.

    Any element of either coset names the same pair, so testing the pair
    named by the lowest element of A outside H is exhaustive; when A lies
    inside H, every x outside H fits. Each H must be proper.
    """
    for h in subgroups:
        if (h.bits ^ 1) & ~a_bits:
            continue  # H \ {0} not contained in A
        union = g.full_mask ^ h.bits
        residual = a_bits & union
        if residual:
            c = (residual & -residual).bit_length() - 1
            union = g.translate_bits(h.bits, c) | g.translate_bits(h.bits, g.neg(c))
            if residual & ~union:
                continue
        return h, (union & -union).bit_length() - 1
    return None


def _interval_set_bits(g: GroupSpec, gen: int, m: int) -> int:
    """Bitmask of {+-gen, +-2*gen, ..., +-m*gen}."""
    bits = 0
    cur = 0
    neg = g.neg_table()
    for _ in range(m):
        cur = g.add(cur, gen)
        bits |= (1 << cur) | (1 << neg[cur])
    return bits


class ExtremalRecord(NamedTuple):
    group: GroupSpec
    indices: tuple[int, ...]
    tags: tuple[str, ...]
    witnesses: dict[str, dict]
    profile: CosetProfile | None

    @property
    def element_set(self) -> ElementSet:
        return ElementSet.from_indices(self.group, self.indices)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "group": self.group.spec_string,
            "set": list(self.indices),
            "tags": list(self.tags),
            "witnesses": self.witnesses,
            "profile": self.profile.to_dict() if self.profile else None,
        }


def classify(a: ElementSet) -> ExtremalRecord:
    """Full shape classification of an extremal set.

    Every tag is decided by exhaustive scan over its witness space
    (index-p subgroups for SHAPE_II, order-p subgroups for SHAPE_EX1,
    the generators in A for SHAPE_EX2), and every recorded witness is the
    first in canonical order, so records are deterministic and
    re-verifiable. SHAPE_I is read off the SHAPE_II witness H: A = H \\ {0}
    leaves H the only index-p subgroup whose nonzero part lies in A, and
    the coset profile is taken against H (with no SHAPE_II, against the
    index-p subgroup holding the most of A).
    """
    g = a.group
    reason = extremality_failure(a)
    if reason:
        raise ValueError(f"not an extremal set: {reason}")
    n = g.order
    p = smallest_prime_divisor(n)
    q = n // p
    a_bits = a.bits
    witnesses: dict[str, dict] = {}
    profile = None

    if p < n:
        index_p = subgroups_of_order(g, q)
        shape_ii = _coset_pair_shape(g, index_p, a_bits)
        if shape_ii:
            h, x = shape_ii
            subgroup = list(h.indices())
            if a_bits == h.bits ^ 1:
                witnesses[SHAPE_I] = {"subgroup": subgroup}
            witnesses[SHAPE_II] = {"subgroup": subgroup, "g": x}
            witnesses[SHAPE_B] = {"subgroup": subgroup, "g": x}
        else:
            # max returns the first, i.e. canonical, subgroup on ties
            h = max(index_p, key=lambda s: (a_bits & s.bits).bit_count())
        profile = coset_profile(a, h)
        ex1 = _coset_pair_shape(g, subgroups_of_order(g, p), a_bits)
        if ex1:
            witnesses[SHAPE_EX1] = {"subgroup": list(ex1[0].indices()), "g": ex1[1]}

    if pq_window(p, q) == "interval":
        m_half = (p + q - 2) // 2
        # a generator x with A = {+-x, ..., +-mx} lies in A
        for gen in a.indices():
            if (g.element_order(gen) == n
                    and _interval_set_bits(g, gen, m_half) == a_bits):
                witnesses[SHAPE_EX2] = {"generator": gen}
                break

    witness_k = contains_complete_subset(a)
    if witness_k is not None:
        witnesses[HAS_COMPLETE_SUBSET] = {"subgroup": list(witness_k.indices())}

    tags = set(witnesses)
    if not tags & _SHAPE_TAGS:
        tags.add(UNCLASSIFIED)
    return ExtremalRecord(g, a.indices(), tuple(sorted(tags)), witnesses, profile)


# -- observation: complete subsets fill their subgroup --------------------------


class ObservationReport(NamedTuple):
    """For an extremal A: every subgroup K with Sigma(A intersect K) = K
    must satisfy A intersect K = K \\ {0}."""

    holds: bool
    checks: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"holds": self.holds, "checks": list(self.checks)}


def check_observation_31(a: ElementSet) -> ObservationReport:
    reason = extremality_failure(a)
    if reason:
        raise ValueError(f"not an extremal set: {reason}")
    checks = []
    holds = True
    for k in complete_subgroup_witnesses(a):
        trace = a.bits & k.bits
        ok = trace == (k.bits ^ 1)
        holds = holds and ok
        checks.append({
            "subgroup": list(k.indices()),
            "trace": [i for i in a.indices() if (k.bits >> i) & 1],
            "ok": ok,
        })
    return ObservationReport(holds, tuple(checks))


# -- enumeration ----------------------------------------------------------------


def _candidates_fit(n: int, k: int) -> bool:
    """Whether C(n, k) <= MAX_CANDIDATES. C(n, i) grows with i up to
    min(k, n - k), so the product stops once it passes the budget and no
    binomial past it is built."""
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > MAX_CANDIDATES:
            return False
    return True


@lru_cache(maxsize=1)
def _orbits_below(n: int, d: int) -> int:
    """The nonzero x in Z_n with gcd(x, n) < d, as a mask built in O(n):
    the orbit of a divisor under the units is the x whose gcd with n it is."""
    return int("".join("1" if math.gcd(x, n) < d else "0"
                       for x in range(n - 1, 0, -1)) + "0", 2)


class ExtremalEnumeration:
    """Streams every extremal set of a group exactly once, classified.

    The group picks the walks. "direct" is one SizedEnumerator walk over
    all size-k subsets of G \\ {0}, cutting spanning prefixes, taken when
    there are at most MAX_CANDIDATES of them; it keeps every leaf.
    Otherwise, or with extended, "missed_target" runs one target-avoiding
    DFS per target, which scales to far larger spaces but meets a set once
    for each target it misses, so it keeps a leaf only at its first
    sighting (see _first_sighting). With orbit dedup the targets are one
    per divisor class and a record is the least unit image of its set;
    orbit_dedup asks for it, self.orbit_dedup is whether it is in effect:
    only on a missed-target run over a single-factor spec.

    threads must be at least 1; more than one worker, min(threads, CPUs),
    hands each target's walk to AvoidingEnumerator.run_split over a process
    pool of that many: one unit per root node the walk pushes, merged in
    lexicographic order, so the records are the bytes of a single-worker
    run. The budget of records() bounds that call under one rule at any
    thread count: a walk stops once its allowance is spent, a single
    worker before its next node, the pool after the root node whose
    subtree spent it, and before the first node when the allowance is
    spent already. records() then returns with done False, and the next
    records() call continues from that position. The checkpoint argument
    restores a state() under any thread count: the run is rebuilt from
    the checkpoint's position alone, and a checkpoint that is not the
    state() of that run raises CheckpointMismatch (see _load).
    stats.nodes counts the nodes this object walked.
    """

    def __init__(self, group: GroupSpec, extended: bool = False,
                 orbit_dedup: bool = True, checkpoint: dict | None = None,
                 threads: int = 1):
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        self.group = group
        self.k = critical_number_formula(group) - 1
        missed = extended or not _candidates_fit(group.order - 1, self.k)
        self.mode = "missed_target" if missed else "direct"
        self.orbit_dedup = bool(orbit_dedup and missed and group.is_cyclic_spec)
        self.workers = min(threads, usable_cpus()) if missed else 1
        self.stats = SearchStats()
        self._engine: SizedEnumerator | AvoidingEnumerator | None = None
        self.targets = (target_representatives(group, self.orbit_dedup)
                        if missed else [None])
        self.target_pos = 0
        self._units: list[tuple[int, int]] | None = None  # (u, u^-1), at first use
        if checkpoint is not None:
            try:
                self._load(checkpoint)
            except CheckpointMismatch:
                raise
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CheckpointMismatch(f"corrupt checkpoint: {exc}") from None

    def engine(self) -> SizedEnumerator | AvoidingEnumerator | None:
        """The engine of the walk at target_pos, built at its root on first
        use: the SizedEnumerator of a direct run, the AvoidingEnumerator of
        targets[target_pos] otherwise, and None once every walk is done."""
        if self._engine is None and self.target_pos < len(self.targets):
            t = self.targets[self.target_pos]
            self._engine = (SizedEnumerator(self.group, self.k) if t is None else
                            AvoidingEnumerator(self.group, t, self.k,
                                               self._stabilizer(t)))
        return self._engine

    @property
    def done(self) -> bool:
        return (eng := self.engine()) is None or eng.done

    # state round-trip ------------------------------------------------------

    def state(self) -> dict:
        eng = self.engine()
        return {
            "engine": ENGINE_VERSION,
            "kind": "extremal",
            "group": self.group.spec_string,
            "k": self.k,
            "mode": self.mode,
            "orbit_dedup": self.orbit_dedup,
            "targets": list(self.targets),
            "target_pos": self.target_pos,
            "emitted": self.stats.emitted,
            "done": self.done,
            "inner": None if eng is None else eng.state(),
        }

    def _load(self, st: dict) -> None:
        """Rebuild the run at st's position, target_pos and the inner engine's
        state (null only once every walk is done), then refuse st unless it
        is the state() of that run. emitted, the records written before st,
        is taken as it stands, done follows from the position, the rest from
        this run; a field state() does not write is refused."""
        check_fields(st, "checkpoint", mode=self.mode)
        pos = self.target_pos = st["target_pos"]
        if not isinstance(pos, int) or not 0 <= pos <= len(self.targets):
            raise CheckpointMismatch(f"checkpoint target_pos {pos!r} "
                                     f"outside 0..{len(self.targets)}")
        emitted = self.stats.emitted = st["emitted"]
        if type(emitted) is not int or emitted < 0:
            raise CheckpointMismatch(f"corrupt checkpoint: emitted {emitted!r}")
        root, inner = self.engine(), st["inner"]
        if root is not None:
            if inner is None:
                raise CheckpointMismatch(
                    f"checkpoint inner null, yet this run is unfinished and "
                    f"needs its {root.kind} engine's state")
            check_fields(inner, "checkpoint", group=self.group.spec_string,
                         **{f: getattr(root, f) for f in root.fields})
            self._engine = type(root).from_state(self.group, inner, *(
                [root.symmetries] if root.kind == "avoiding" else []))
        want = self.state()
        check_no_extra_fields(st, "corrupt checkpoint:", want)
        check_fields(st, "corrupt checkpoint:", **want)

    # records -------------------------------------------------------------------

    def _first_sighting(self, leaf: tuple[int, ...]) -> tuple[int, ...] | None:
        """The record's indices for a leaf A of the walk at target_pos (A's
        least unit image with orbit dedup, else A), or None when an earlier
        leaf stood for the same set. A is kept iff (1) Sigma(A) holds the
        whole orbit of every earlier target, so no earlier walk met A's
        orbit, and (2) with orbit dedup, no unit image u*A that also avoids
        t = targets[target_pos] (u^-1 t outside Sigma(A)) is smaller in the
        walk's lexicographic order, so this walk met no other member first.
        The earlier orbits are 0..t-1 without orbit dedup (none in a direct
        run), and with it the x != 0 with gcd(x, n) < t, all if t = 0."""
        g, n, t = self.group, self.group.order, self.targets[self.target_pos]
        if not self.orbit_dedup:  # the targets are 0..n-1, or None: direct
            return None if t and (1 << t) - 1 & ~subset_sums_bits(g, leaf) else leaf
        sums = subset_sums_bits(g, leaf)
        if _orbits_below(n, t or n) & ~sums:
            return None
        if self._units is None:
            self._units = [(u, pow(u, -1, n)) for u in g.units()]
        mask = best = sum(1 << x for x in leaf)
        for u, inverse in self._units:
            image = sum(1 << u * x % n for x in leaf)
            diff = mask ^ image
            # the least element of A ^ uA is in uA, and uA avoids t
            if image & diff & -diff and not sums >> (inverse * t % n) & 1:
                return None
            best = min(best, image)
        return tuple(g.iter_bits(best))

    def _stabilizer(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The unit scalings fixing t with orbit dedup (else ()): they cut
        target t's DFS (see search.py)."""
        return target_symmetries(self.group, t) if self.orbit_dedup else ()

    def records(self, budget: SearchBudget = SearchBudget()) -> Iterator[ExtremalRecord]:
        if self.done:
            return
        start, before = time.monotonic(), self.stats.nodes
        with (ProcessPoolExecutor(max_workers=self.workers) if self.workers > 1
              else nullcontext()) as pool:
            while (eng := self.engine()) is not None:
                left = budget.remaining(self.stats.nodes - before, start)
                for leaf in self._walk(eng, pool, left):
                    if (indices := self._first_sighting(leaf)) is not None:
                        self.stats.emitted += 1
                        yield classify(ElementSet.from_indices(self.group, indices))
                if not eng.done:
                    return
                self._engine = None
                self.target_pos += 1

    def _walk(self, eng, pool, budget: SearchBudget) -> Iterator[tuple[int, ...]]:
        """eng's leaves on `budget`, split over the pool if there is one and
        eng is at its root. The nodes walked go into stats.nodes."""
        before = eng.stats.nodes
        try:
            yield from (eng.run_split(pool.submit, budget) if pool and not eng.path
                        else eng.run(budget))
        finally:
            self.stats.nodes += eng.stats.nodes - before


# -- named example constructions -------------------------------------------------


def _require_window(what: str, p: int, q: int, window: str) -> None:
    if pq_window(p, q) != window:
        raise ValueError(f"{what} needs (p, q) in pq_window's {window!r} "
                         f"window, got ({p}, {q})")


def make_example_1(p: int, q: int, seed: int = 0) -> ElementSet:
    """Random extremal set in Z_pq built around an order-p subgroup K:
    all of K \\ {0}, plus q - 2 elements split between the cosets 1 + K
    and -1 + K. Requires (p, q) in pq_window's 'coset' window.

    Subset sums stay inside coset indices [-b, a] of K where a + b = q - 2,
    so one coset of K is always missed and the construction cannot fail the
    non-spanning re-check, which is kept as an assertion.
    """
    _require_window("example 1", p, q, "coset")
    g = make_group((p * q,))
    k_bits = 0
    for i in range(0, p * q, q):
        k_bits |= 1 << i
    plus = [i for i in range(g.order) if (g.translate_bits(k_bits, 1) >> i) & 1]
    minus = [i for i in range(g.order)
             if (g.translate_bits(k_bits, g.order - 1) >> i) & 1]
    need = q - 2
    rng = random.Random(seed)
    a_count = rng.randint(max(0, need - p), min(p, need))
    chosen = rng.sample(plus, a_count) + rng.sample(minus, need - a_count)
    indices = tuple(sorted([i for i in range(g.order)
                            if (k_bits >> i) & 1 and i != 0] + chosen))
    a = ElementSet.from_indices(g, indices)
    if len(a) != p + q - 3 or subset_sums_bits(g, indices) == g.full_mask:
        raise AssertionError(
            f"example 1 for ({p}, {q}) is not extremal")  # pragma: no cover
    return a


def make_example_2(p: int, q: int) -> ElementSet:
    """The symmetric interval {+-1, +-2, ..., +-(p+q-2)/2} of Z_pq.
    Requires (p, q) in pq_window's 'interval' window. The result has size
    p + q - 2 = cr(Z_pq) - 1 and is verified non-spanning.
    """
    _require_window("example 2", p, q, "interval")
    g = make_group((p * q,))
    bits = _interval_set_bits(g, 1, (p + q - 2) // 2)
    a = ElementSet(g, bits)
    if len(a) != p + q - 2:
        raise AssertionError("interval set has repeated elements")  # pragma: no cover
    if subset_sums_bits(g, a.indices()) == g.full_mask:
        raise AssertionError(
            f"symmetric interval for ({p}, {q}) unexpectedly spans")
    return a


# -- verdicts: one streaming fold ------------------------------------------------

MAX_COUNTEREXAMPLES = 25


class Verdict:
    """Streaming fold of one claim over extremal record dicts: every record
    must carry the `required` tag (None only tallies tags).

    It counts records and failures, tallies tags, and keeps the first
    MAX_COUNTEREXAMPLES failing records, so memory stays flat whatever the
    group; the records file holds every one of them.
    """

    __slots__ = ("required", "total", "failing", "tag_counts", "examples")

    def __init__(self, required: str | None):
        self.required = required
        self.total = self.failing = 0
        self.tag_counts: dict[str, int] = {}
        self.examples: list[dict] = []

    def add(self, record: dict) -> None:
        self.total += 1
        tags = record["tags"]
        for tag in tags:
            self.tag_counts[tag] = self.tag_counts.get(tag, 0) + 1
        if self.required is not None and self.required not in tags:
            self.failing += 1
            if len(self.examples) < MAX_COUNTEREXAMPLES:
                self.examples.append(record)

    def outcome(self, complete: bool) -> str:
        if not complete:
            return "PARTIAL"
        return "REFUTED" if self.failing else "VERIFIED"


# -- conjectures -------------------------------------------------------------------


class ConjectureReport(NamedTuple):
    which: int
    p: int
    q: int
    group: str
    property_name: str
    outcome: str  # VERIFIED | REFUTED | PARTIAL
    extremal_count: int
    failing_count: int
    counterexamples: list[dict]  # the first MAX_COUNTEREXAMPLES of them

    @classmethod
    def from_verdict(cls, group: GroupSpec, verdict: Verdict,
                     complete: bool) -> ConjectureReport:
        which, p, q, _, claim = conjecture_claim(group)
        return cls(which, p, q, group.spec_string, claim,
                   verdict.outcome(complete), verdict.total, verdict.failing,
                   verdict.examples)

    def to_dict(self) -> dict:
        d = self._asdict()
        d["property"] = d.pop("property_name")
        d["orbit_dedup"] = False  # cmd_conjecture passes orbit_dedup=False
        return d


def conjecture_claim(group: GroupSpec) -> tuple[int, int, int, str, str]:
    """(which, p, q, required tag, property text) of the conjecture on
    group: a single-factor Z_pq, p its smallest prime divisor, with (p, q)
    in pq_window's 'coset' window (conjecture 1) or 'interval' window
    (conjecture 2). Any other group, such as Z16, Z25, Z33 or Z3xZ5,
    raises ValueError."""
    n = group.order
    p = smallest_prime_divisor(n)
    window = pq_window(p, n // p) if group.is_cyclic_spec else None
    if window == "coset":
        return (1, p, n // p, HAS_COMPLETE_SUBSET,
                "every extremal set contains a complete subset")
    if window == "interval":
        return (2, p, n // p, SHAPE_EX2,
                "every extremal set is a symmetric generator interval")
    raise ValueError(
        f"{group.spec_string} is no Z_pq with (p, q) in pq_window's 'coset' "
        f"window (conjecture 1) or 'interval' window (conjecture 2)")


# -- main structure theorem --------------------------------------------------------


class TheoremReport(NamedTuple):
    group: str
    case: str  # "even" | "odd"
    required_tag: str
    outcome: str  # VERIFIED | REFUTED | PARTIAL
    extremal_count: int
    tag_counts: dict[str, int]
    violation_count: int
    violations: list[dict]  # the first MAX_COUNTEREXAMPLES of them
    orbit_dedup: bool

    @classmethod
    def from_verdict(cls, group: GroupSpec, verdict: Verdict, complete: bool,
                     orbit_dedup: bool) -> TheoremReport:
        return cls(group.spec_string, theorem_main_hypothesis(group),
                   verdict.required, verdict.outcome(complete), verdict.total,
                   dict(sorted(verdict.tag_counts.items())), verdict.failing,
                   verdict.examples, orbit_dedup)

    def to_dict(self) -> dict:
        d = self._asdict()
        del d["violation_count"]  # the report lists violations, not their count
        return d


def theorem_main_hypothesis(group: GroupSpec) -> str:
    """'even' or 'odd' when the structure theorem applies, else ValueError.

    Applies when |G| is even and at least 36 (the even case, which requires
    SHAPE_I), or when |G| = pq for odd primes p < q with q >= 2p + 3, i.e.
    (p, q) in pq_window's 'theorem' window (the odd case, SHAPE_II). The
    abstract settles even orders only from 36, so |G| = 2q below 36 is not
    covered although (2, q) is in that window: Z14 has an extremal set,
    {3, 5, 6, 8, 9, 11}, that is not SHAPE_I.
    """
    n = group.order
    if n < 3:
        raise ValueError("group too small")
    p = smallest_prime_divisor(n)
    if p == 2 and n >= 36:
        return "even"
    if p > 2 and pq_window(p, n // p) == "theorem":
        return "odd"
    raise ValueError(
        f"{group.spec_string} meets no structure-theorem hypothesis "
        f"(need |G| even and >= 36, or |G| = pq for odd primes with "
        f"q >= 2p + 3); use plain enumeration for exploratory reports")


def theorem_verdict(group: GroupSpec) -> Verdict:
    """The structure theorem's claim on group as an empty Verdict."""
    case = theorem_main_hypothesis(group)
    return Verdict(SHAPE_I if case == "even" else SHAPE_II)
