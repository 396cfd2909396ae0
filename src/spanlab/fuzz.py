"""Randomized and exhaustive campaigns over the bound checks.

Each campaign hammers one numbered bound (2.1 through 2.9) with seeded
random instances -- every trial derives its own generator from
``seed * STRIDE + trial`` so any single case replays in isolation -- and
counts hypothesis-applied trials and violations. Several campaigns add an
exhaustive sub-suite over a space small enough to close out completely:

* 2.6: all 924 zero-free 6-subsets of Z_13 \\ {0}. The zero-adjoined
  midpoint clause must hold on every one (violation check), while the
  bare clause |Sigma_3(A)| = 13 demonstrably fails on 462 of them; the
  campaign reports that count as an observation, not a failure. Clause
  (iii) is closed out over Z_11, with the with-zero variant counted
  observationally for contrast (it fails, e.g. on {0,1,2,3,9,10}).
* 2.9: every sequence over Z_p \\ {0} of length 2..6 for p up to 13.

A campaign with zero violations is the deliverable; a nonzero count means
either the bound or the implementation is wrong, and the examples list
carries the first five offending instances for replay. The campaigns are
rows of one table (CAMPAIGNS) that one trial loop (run_campaign) drives.
run_all_campaigns runs them on every usable CPU, with the same reports as on one.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Callable, NamedTuple

from .bounds import (check_cauchy_davenport, check_diderrich, check_folk_lemma,
                     check_growth_bound, check_hamidoune_dichotomy,
                     check_prime_growth_bound, check_sequence_growth,
                     check_three_facts, check_vosper, two_sqrt_floor)
from .groups import ElementSet, GroupSpec, abelian_groups_of_order, cached_group
from .search import ProcessPoolExecutor, usable_cpus
from .sums import SequenceOverGroup, restricted_sums, subset_sums_bits

_SEED_STRIDE = 1_000_003
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_MAX_EXAMPLES = 5

DEFAULT_TRIALS = 10_000


class FuzzReport(NamedTuple):
    lemma: str
    description: str
    trials: int
    applied: int
    violations: int
    seed: int
    examples: list[dict]  # the first _MAX_EXAMPLES violations, as plain JSON
    exhaustive: dict | None  # the census, or None for a campaign without one

    @property
    def clean(self) -> bool:
        return self.violations == 0 and (
            self.exhaustive is None or self.exhaustive.get("violations", 0) == 0)

    def to_dict(self) -> dict:
        return {**self._asdict(), "clean": self.clean}


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + trial)


@lru_cache(maxsize=None)
def _groups_menu(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(abelian_groups_of_order(n))


def _random_group(rng: random.Random, min_order: int, max_order: int) -> GroupSpec:
    n = rng.randint(min_order, max_order)
    return cached_group(rng.choice(_groups_menu(n)))


@lru_cache(maxsize=None)
def _prime_groups(min_p: int, max_p: int) -> tuple[GroupSpec, ...]:
    return tuple(cached_group((q,)) for q in _PRIMES if min_p <= q <= max_p)


def _prime_group(rng: random.Random, min_p: int = 3, max_p: int = 31) -> GroupSpec:
    return rng.choice(_prime_groups(min_p, max_p))


def _random_subset(rng: random.Random, g: GroupSpec, size: int,
                   zero_free: bool = True) -> ElementSet:
    # sample indexes the range as it would a list of it: the same draws
    pop = range(1, g.order) if zero_free else range(g.order)
    return ElementSet.from_indices(g, rng.sample(pop, size))


# -- trial cases ------------------------------------------------------------------
#
# One per bound: draw an instance from the trial's generator, run the check,
# and return (report, thunk building the replay payload of a violation).


def _folk_case(rng: random.Random, i: int):
    g = _random_group(rng, 2, 30)
    n = g.order
    ka = rng.randint(1, n)
    kb = rng.randint(max(1, n + 1 - ka), n) if i % 2 == 0 else rng.randint(1, n)
    a = _random_subset(rng, g, ka, zero_free=False)
    b = _random_subset(rng, g, kb, zero_free=False)
    return check_folk_lemma(a, b), lambda: {
        "group": g.spec_string, "a": a.serialize(), "b": b.serialize()}


def _hamidoune_case(rng: random.Random, i: int):
    g = _random_group(rng, 15, 40)
    size = rng.randint(14, min(g.order - 1, 20))
    a = _random_subset(rng, g, size)
    return check_hamidoune_dichotomy(a), lambda: {
        "group": g.spec_string, "a": a.serialize()}


def _cauchy_case(rng: random.Random, i: int):
    g = _prime_group(rng)
    p = g.order
    h = rng.randint(1, 4)
    sets = [_random_subset(rng, g, rng.randint(1, p), zero_free=False)
            for _ in range(h)]
    return check_cauchy_davenport(sets), lambda: {
        "group": g.spec_string, "sets": [s.serialize() for s in sets]}


def _ap_set(g: GroupSpec, start: int, diff: int, length: int) -> ElementSet:
    p = g.order
    return ElementSet.from_indices(g, [(start + j * diff) % p for j in range(length)])


def _diderrich_case(rng: random.Random, i: int):
    g = _prime_group(rng, min_p=11)
    p = g.order
    h = rng.randint(2, min(4, (p - 1) // 2))
    if i % 3 < 2:
        diffs = rng.sample(range(1, (p - 1) // 2 + 1), h)
        sets = [_ap_set(g, rng.randrange(p), d, rng.randint(1, 4))
                for d in diffs]
        if i % 3 == 1:  # one allowed exception
            sets[rng.randrange(h)] = _random_subset(
                rng, g, rng.randint(2, 5), zero_free=False)
    else:
        sets = [_random_subset(rng, g, rng.randint(1, 5), zero_free=False)
                for _ in range(h)]
    return check_diderrich(sets), lambda: {
        "group": g.spec_string, "sets": [s.serialize() for s in sets]}


def _vosper_case(rng: random.Random, i: int):
    g = _prime_group(rng, min_p=5)
    p = g.order
    if i % 2 == 0:
        d = rng.randint(1, p - 1)
        k1 = rng.randint(2, p - 3)
        k2 = rng.randint(2, max(2, min(p - 2, p - k1)))
        b1 = _ap_set(g, rng.randrange(p), d, k1)
        b2 = _ap_set(g, rng.randrange(p), d, k2)
    else:
        b1 = _random_subset(rng, g, rng.randint(2, p - 2), zero_free=False)
        b2 = _random_subset(rng, g, rng.randint(2, p - 2), zero_free=False)
    return check_vosper(b1, b2), lambda: {
        "group": g.spec_string, "b1": b1.serialize(), "b2": b2.serialize()}


def _three_facts_case(rng: random.Random, i: int):
    g = _prime_group(rng)
    p = g.order
    size = rng.randint(1, p - 1)
    a = _random_subset(rng, g, size, zero_free=(i % 3 != 0))
    h = rng.randint(1, size)
    return check_three_facts(a, h), lambda: {
        "group": g.spec_string, "a": a.serialize(), "h": h}


def _growth_case(rng: random.Random, i: int):
    g = _random_group(rng, 3, 36)
    size = rng.randint(1, min(g.order - 1, 12))
    a = _random_subset(rng, g, size)
    return check_growth_bound(a), lambda: {
        "group": g.spec_string, "a": a.serialize()}


def _prime_growth_case(rng: random.Random, i: int):
    g = _prime_group(rng)
    size = rng.randint(0, min(g.order - 1, 10))
    a = _random_subset(rng, g, size)
    return check_prime_growth_bound(a), lambda: {
        "group": g.spec_string, "a": a.serialize()}


def _sequence_case(rng: random.Random, i: int):
    g = _prime_group(rng)
    p = g.order
    length = rng.randint(2, 8)
    if i % 2 == 0:
        base = rng.randint(1, p - 1)
        terms = tuple(rng.choice((base, p - base)) for _ in range(length))
    else:
        terms = tuple(rng.randint(1, p - 1) for _ in range(length))
    rep = check_sequence_growth(SequenceOverGroup.from_indices(g, terms))
    return rep, lambda: {"group": g.spec_string, "terms": list(terms)}


# -- exhaustive censuses -----------------------------------------------------------
def _exhaustive_midpoint_z13() -> dict:
    """Close out the midpoint clause over every zero-free 6-subset of Z_13.

    The zero-adjoined form must always reach p (counted as violations if
    not); the bare form |Sigma_3(A)| = p provably fails on some sets, so
    its failure count is reported as an observation.
    """
    g = cached_group((13,))
    p, m = 13, 6
    t = (m + 1) // 2
    total = adjoined_failures = bare_failures = 0
    for combo in combinations(range(1, p), m):
        total += 1
        a = ElementSet.from_indices(g, combo)
        adjoined = ElementSet(g, a.bits | 1)
        if restricted_sums(adjoined, t).cardinality != p:
            adjoined_failures += 1
        if restricted_sums(a, m // 2).cardinality != p:
            bare_failures += 1
    return {
        "suite": "midpoint clause, Z_13, all zero-free 6-subsets",
        "sets": total,
        "t": t,
        "violations": adjoined_failures,
        "observed_bare_failures": bare_failures,
    }


def _exhaustive_full_span_z11() -> dict:
    """Close out clause (iii) over Z_11: every zero-free set of size >=
    floor(2 sqrt(p-2)) = 6 must have Sigma covering Z_11. Sets containing
    0 are counted separately -- the clause genuinely fails there, which is
    why it carries the zero-free hypothesis."""
    g = cached_group((11,))
    p = 11
    threshold = two_sqrt_floor(p - 2)
    zero_free = zf_failures = with_zero = wz_failures = 0
    for size in range(threshold, p):
        for combo in combinations(range(1, p), size):
            zero_free += 1
            if subset_sums_bits(g, combo) != g.full_mask:
                zf_failures += 1
        for combo in combinations(range(1, p), size - 1):
            with_zero += 1
            if subset_sums_bits(g, combo) | 1 != g.full_mask:
                wz_failures += 1
    return {
        "suite": "full-span clause, Z_11, all sets of size >= 6",
        "threshold": threshold,
        "zero_free_sets": zero_free,
        "violations": zf_failures,
        "with_zero_sets": with_zero,
        "observed_with_zero_failures": wz_failures,
    }


def _exhaustive_sequences() -> dict:
    total = failures = 0
    for p in (3, 5, 7, 11, 13):
        g = cached_group((p,))
        for length in range(2, 7):
            for terms in combinations_with_replacement(range(1, p), length):
                total += 1
                rep = check_sequence_growth(SequenceOverGroup(g, terms))
                if not rep.holds:
                    failures += 1
    return {
        "suite": "all sequences of length 2..6 over Z_p \\ {0}, p <= 13",
        "sequences": total,
        "violations": failures,
    }



def _exhaustive_restricted_sums() -> dict:
    mid = _exhaustive_midpoint_z13()
    full = _exhaustive_full_span_z11()
    return {"suites": [mid, full],
            "violations": mid["violations"] + full["violations"]}


# -- campaign table ------------------------------------------------------------------


class Campaign(NamedTuple):
    """One bound's campaign: `case` builds and checks one trial, whose
    report's `applied` counts it as hypothesis-applied; `census` is the
    optional exhaustive sub-suite."""

    description: str
    case: Callable[[random.Random, int], tuple]
    census: Callable[[], dict] | None = None


# The censuses are looked up when called, not bound here, so wrappers placed
# on the module functions (profilers, tracers) see them.
CAMPAIGNS: dict[str, Campaign] = {
    "2.1": Campaign("oversized pairs must have spanning sumsets", _folk_case),
    "2.2": Campaign("large zero-free sets: big Sigma or a packed subgroup",
                    _hamidoune_case),
    "2.3": Campaign("iterated sumset lower bound in Z_p", _cauchy_case),
    "2.4": Campaign("near-progression families: sumset >= sum of sizes - 1",
                    _diderrich_case),
    "2.5": Campaign("small sumsets force matching progressions", _vosper_case),
    "2.6": Campaign("restricted-sum growth and full-span clauses in Z_p",
                    _three_facts_case,
                    census=lambda: _exhaustive_restricted_sums()),
    "2.7": Campaign("Sigma grows to min(subgroup, 2|A|-1)", _growth_case),
    "2.8": Campaign("Sigma-with-zero growth in Z_p with epsilon boost",
                    _prime_growth_case),
    "2.9": Campaign("sequence sums grow past length, equality is rigid",
                    _sequence_case, census=lambda: _exhaustive_sequences()),
}


def run_campaign(lemma: str, trials: int = DEFAULT_TRIALS,
                 seed: int = 0) -> FuzzReport:
    try:
        campaign = CAMPAIGNS[lemma]
    except KeyError:
        raise ValueError(
            f"unknown bound {lemma!r}; expected one of {', '.join(CAMPAIGNS)}"
        ) from None
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    applied = violations = 0
    examples: list[dict] = []
    for i in range(trials):
        rep, example = campaign.case(_trial_rng(seed, i), i)
        applied += rep.applied
        if not rep.holds:
            violations += 1
            if len(examples) < _MAX_EXAMPLES:
                examples.append({**example(), "report": rep.to_dict()})
    exhaustive = campaign.census() if campaign.census is not None else None
    return FuzzReport(lemma, campaign.description, trials, applied,
                      violations, seed, examples, exhaustive)


def run_all_campaigns(trials: int = DEFAULT_TRIALS, seed: int = 0,
                      lemmas: list[str] | None = None) -> list[FuzzReport]:
    """run_campaign for each lemma (default: all), the reports in that order:
    the caller runs the first at once, then from the front each one it can
    still cancel in a pool whose one worker per further usable CPU works from
    the back, else waits for its report; it cancels the rest if it stops."""
    names = list(lemmas or CAMPAIGNS)
    reports = [run_campaign(names[0], trials, seed)]
    workers = min(usable_cpus() - 1, len(names) - 2)
    if workers < 1:
        return reports + [run_campaign(name, trials, seed) for name in names[1:]]
    pool = ProcessPoolExecutor(workers)
    try:
        queued = [pool.submit(run_campaign, name, trials, seed)
                  for name in reversed(names[1:])][::-1]
        for name, unit in zip(names[1:], queued):
            reports.append(run_campaign(name, trials, seed) if unit.cancel()
                           else unit.result())
    finally:
        pool.shutdown(cancel_futures=True)
    return reports
