"""Enumeration and classification of maximal non-spanning sets."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from math import comb

import pytest

import reference as ref
import spanlab as S
from spanlab.extremal import MAX_CANDIDATES, Verdict
from spanlab.store import dump_json


def _g(spec: str) -> S.GroupSpec:
    return S.parse_group_spec(spec)


def _tag_histogram(records) -> Counter:
    hist: Counter = Counter()
    for rec in records:
        hist.update(rec.tags)
    return hist


# ------------------------------------------------------- enumeration


def test_z15_census(z15_records):
    assert len(z15_records) == 28
    hist = _tag_histogram(z15_records)
    assert hist[S.UNCLASSIFIED] == 24
    assert hist[S.SHAPE_EX2] == 4
    assert hist[S.HAS_COMPLETE_SUBSET] == 0
    # literal enumeration: distinct sets, all of the extremal size
    seen = {tuple(sorted(r.indices)) for r in z15_records}
    assert len(seen) == 28
    cr = S.critical_number_formula(_g("Z15"))
    for rec in z15_records:
        assert len(rec.indices) == cr - 1 == 6
        assert 0 not in rec.indices
        assert not ref.spans_brute(rec.group, rec.indices)


def test_z16_census(z16_records):
    assert len(z16_records) == 1
    rec = z16_records[0]
    assert tuple(sorted(rec.indices)) == (2, 4, 6, 8, 10, 12, 14)
    assert set(rec.tags) == {S.SHAPE_I, S.SHAPE_II, S.SHAPE_B,
                             S.HAS_COMPLETE_SUBSET}


def test_z21_census(z21_records):
    assert len(z21_records) == 390
    hist = _tag_histogram(z21_records)
    assert hist[S.UNCLASSIFIED] == 358
    assert hist[S.HAS_COMPLETE_SUBSET] == 32
    assert hist[S.SHAPE_B] == 14
    assert hist[S.SHAPE_II] == 14
    assert hist[S.SHAPE_EX1] == 18
    assert hist[S.SHAPE_I] == 0
    assert hist[S.SHAPE_EX2] == 0


def test_every_small_direct_census_classifies_to_pinned_bytes():
    # every group of order 3..40 whose direct walk has at most 10^6
    # candidates, Z5xZ5 among them (7,344 records; there the index-p and
    # order-p subgroups are the same list)
    digest = hashlib.sha256()
    groups = records = 0
    for n in range(3, 41):
        for orders in S.abelian_groups_of_order(n):
            g = S.make_group(orders)
            if comb(n - 1, S.critical_number_formula(g) - 1) > 1_000_000:
                continue
            groups += 1
            for rec in S.ExtremalEnumeration(g).records():
                records += 1
                digest.update(json.dumps(rec.to_dict(), sort_keys=True).encode())
    assert (groups, records) == (34, 8884)
    assert digest.hexdigest() == \
        "c2ae1c24304612fc4747d60c64ecd01482b5bbb77b9d765ddf8a791e48d06fa0"


def test_enumeration_is_exhaustive_against_brute_force(z15_records):
    import itertools
    got = {tuple(sorted(r.indices)) for r in z15_records}
    g = _g("Z15")
    want = {combo for combo in itertools.combinations(range(1, 15), 6)
            if not ref.spans_brute(g, combo)}
    assert got == want


def test_enumeration_streams_are_deterministic():
    a = [tuple(r.indices) for r in S.ExtremalEnumeration(_g("Z15")).records()]
    b = [tuple(r.indices) for r in S.ExtremalEnumeration(_g("Z15")).records()]
    assert a == b


def test_orbit_dedup_keeps_one_representative_per_orbit(z15_records):
    g = _g("Z15")
    reduced = list(S.ExtremalEnumeration(g, extended=True, orbit_dedup=True).records())
    literal_orbits = {g.canonical_bits_under_units(r.element_set.bits)
                      for r in z15_records}
    reduced_bits = [r.element_set.bits for r in reduced]
    assert len(reduced) == len(literal_orbits)
    assert {g.canonical_bits_under_units(b) for b in reduced_bits} == \
        literal_orbits
    assert len(set(reduced_bits)) == len(reduced_bits)


def test_orbit_dedup_applies_to_extended_runs_on_cyclic_groups_only(z15_records):
    direct = S.ExtremalEnumeration(_g("Z15"), orbit_dedup=True)
    assert direct.mode == "direct" and not direct.orbit_dedup
    assert [r.indices for r in direct.records()] == \
        [r.indices for r in z15_records]
    g = _g("Z2xZ8")
    raw = S.ExtremalEnumeration(g, extended=True, orbit_dedup=True)
    assert not raw.orbit_dedup and len(raw.targets) == g.order
    assert sorted(r.indices for r in raw.records()) == \
        sorted(r.indices for r in S.ExtremalEnumeration(g).records())


def test_the_group_picks_the_walk():
    # direct exactly when C(|G|-1, k) is within the budget: 40 groups up to
    # order 300, none above order 27; extended forces the missed-target walk
    direct = []
    for n in range(3, 301):
        for orders in S.abelian_groups_of_order(n):
            g = S.make_group(orders)
            enum = S.ExtremalEnumeration(g)
            fits = comb(n - 1, enum.k) <= MAX_CANDIDATES
            assert enum.mode == ("direct" if fits else "missed_target"), g
            if fits:
                direct.append(n)
                assert S.ExtremalEnumeration(g, extended=True).mode == \
                    "missed_target"
    assert len(direct) == 40 and max(direct) == 27


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_is_refused(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        S.ExtremalEnumeration(_g("Z15"), extended=True, threads=threads)


@pytest.mark.parametrize("spec", ["Z3xZ3xZ3", "Z2xZ2xZ2xZ2"])
def test_missed_target_engine_matches_direct_on_noncyclic_groups(spec):
    # the avoiding engine, one target per element, against the sized engine
    g = _g(spec)
    direct = S.ExtremalEnumeration(g)
    missed = S.ExtremalEnumeration(g, extended=True)
    assert (direct.mode, missed.mode) == ("direct", "missed_target")
    assert not missed.orbit_dedup and len(missed.targets) == g.order
    want = [rec.indices for rec in direct.records()]
    got = [rec.indices for rec in missed.records()]
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == set(want)


def test_enumeration_pause_and_resume_round_trip():
    g = _g("Z21")
    full = [tuple(r.indices) for r in S.ExtremalEnumeration(g).records()]
    enum = S.ExtremalEnumeration(g, budget=S.SearchBudget(max_nodes=3000))
    first = []
    state = None
    try:
        for rec in enum.records():
            first.append(tuple(rec.indices))
    except S.EnumerationPaused as pause:
        state = pause.state
    assert state is not None and 0 < len(first) < len(full)
    rest = [tuple(r.indices)
            for r in S.ExtremalEnumeration(g, checkpoint=state).records()]
    assert first + rest == full


def _snapshots(enum):
    """The records of a run, and state() taken while records() is suspended
    at each yield, as the CLI's periodic checkpoint and its Ctrl-C handler
    take it (JSON round-tripped)."""
    records, snapshots = [], []
    for rec in enum.records():
        records.append(rec)
        snapshots.append(json.loads(json.dumps(enum.state())))
    return records, snapshots


# Z15 and Z21 run in direct mode; Z33 and Z36 in missed-target mode with
# orbit dedup, whose snapshots sit inside a target's pruned DFS
@pytest.mark.parametrize("spec", ["Z15", "Z21", "Z33", "Z36"])
def test_snapshot_at_every_record_resumes_to_the_same_records(spec):
    g = _g(spec)
    extended = spec in ("Z33", "Z36")
    full, snapshots = _snapshots(S.ExtremalEnumeration(g, extended=extended))
    assert full == list(S.ExtremalEnumeration(g, extended=extended).records())
    assert snapshots[0]["mode"] == ("missed_target" if extended else "direct")
    assert snapshots[0]["orbit_dedup"] is extended
    assert all(st["inner"] is not None for st in snapshots)
    for k, state in enumerate(snapshots, start=1):
        assert state["emitted"] == k
        rest = list(S.ExtremalEnumeration(g, extended=extended,
                                          checkpoint=state).records())
        assert full[:k] + rest == full, f"{spec}: resume after record {k}"


def _cut_by_stabilizer(enum, inner):
    """True when the pruned DFS never reaches this (target, path): some
    s in Stab(t) puts the least element of s(P) ^ P in s(P)."""
    path = set(inner["path"])
    for s in enum._stabilizer(inner["target"]):
        image = {s[x] for x in path}
        if image != path and min(image ^ path) in image:
            return True
    return False


def test_unpruned_snapshots_resume_under_stabilizer_pruning(monkeypatch):
    # mid-target orbit-dedup checkpoints written by the unpruned engine, after
    # every record and at every 4999-node pause, have the same format; resumed
    # with the pruning they give the same records bytes, also from positions
    # the pruned DFS cuts
    g = _g("Z33")
    full = [dump_json(rec.to_dict())
            for rec in S.ExtremalEnumeration(g, extended=True).records()]
    with monkeypatch.context() as m:
        m.setattr(S.ExtremalEnumeration, "_stabilizer", lambda self, t: ())
        unpruned, snapshots = _snapshots(S.ExtremalEnumeration(g, extended=True))
        state = None
        while True:
            enum = S.ExtremalEnumeration(
                g, S.SearchBudget(max_nodes=4999), extended=True, checkpoint=state)
            try:
                for _ in enum.records():
                    pass
                break
            except S.EnumerationPaused as pause:
                state = json.loads(json.dumps(pause.state))
                snapshots.append(state)
    assert [dump_json(rec.to_dict()) for rec in unpruned] == full
    pruned = S.ExtremalEnumeration(g, extended=True)
    assert sum(_cut_by_stabilizer(pruned, st["inner"]) for st in snapshots) >= 5
    for state in snapshots:
        k = state["emitted"]
        rest = S.ExtremalEnumeration(g, extended=True, checkpoint=state).records()
        assert full[:k] + [dump_json(rec.to_dict()) for rec in rest] == full, state


@pytest.mark.parametrize("n", range(3, 43))
def test_stabilizer_pruned_orbit_records_match_the_unpruned_tree(n):
    g = _g(f"Z{n}")
    enum = S.ExtremalEnumeration(g, extended=True, orbit_dedup=True)
    assert [tuple(rec.indices) for rec in enum.records()] == \
        ref.orbit_records_unpruned(g)


@pytest.mark.parametrize("spec", ["Z35", "Z36"])
def test_stabilizer_pruned_orbit_records_match_with_two_workers(spec):
    g = _g(spec)
    recs = S.ExtremalEnumeration(g, extended=True, orbit_dedup=True,
                                 threads=2).records()
    assert [tuple(rec.indices) for rec in recs] == ref.orbit_records_unpruned(g)


def _run_to_pause(g, budget, checkpoint=None, threads=1):
    """(records, JSON round-tripped pause state or None) of one extended
    invocation."""
    enum = S.ExtremalEnumeration(g, budget, extended=True, checkpoint=checkpoint,
                                 threads=threads)
    records = []
    try:
        for rec in enum.records():
            records.append(tuple(rec.indices))
    except S.EnumerationPaused as pause:
        return records, json.loads(json.dumps(pause.state))
    return records, None


def test_node_budget_bounds_the_whole_run_at_any_thread_count():
    # 158,618 nodes over 27 targets: a 10,000-node allowance for the whole
    # invocation pauses it, where one allowance per target would not
    g = _g("Z3xZ3xZ3")
    straight = [tuple(rec.indices)
                for rec in S.ExtremalEnumeration(g, extended=True).records()]
    budget = S.SearchBudget(max_nodes=10_000)
    for threads in (1, 2):
        records, state = _run_to_pause(g, budget, threads=threads)
        assert state is not None, threads
        while state is not None:
            more, state = _run_to_pause(g, budget, state, threads)
            records += more
        assert records == straight, threads


@pytest.mark.parametrize("threads", [1, 2])
def test_zero_second_budget_pauses_before_the_first_target(threads):
    records, state = _run_to_pause(
        _g("Z3xZ3xZ3"), S.SearchBudget(max_seconds=0), threads=threads)
    assert records == [] and state["target_pos"] == 0
    assert state["inner"]["path"] == [] and state["inner"]["nodes"] == 0


@pytest.mark.parametrize("spec", ["Z3xZ3xZ3", "Z35"])
def test_mid_target_checkpoint_resumes_with_two_workers(spec):
    # a one-worker snapshot inside a target's DFS (Z35: the stabilizer-cut
    # orbit-dedup walk) finishes that target on its engine, then the pool
    g = _g(spec)
    full, snapshots = _snapshots(S.ExtremalEnumeration(g, extended=True))
    k = len(full) // 2
    state = snapshots[k - 1]
    assert state["inner"] is not None and state["emitted"] == k
    rest = S.ExtremalEnumeration(g, extended=True, checkpoint=state,
                                 threads=2).records()
    assert full[:k] + list(rest) == full


def test_enumeration_rejects_checkpoint_from_other_group():
    enum = S.ExtremalEnumeration(_g("Z21"),
                                 budget=S.SearchBudget(max_nodes=3000))
    try:
        for _ in enum.records():
            pass
    except S.EnumerationPaused as pause:
        state = pause.state
    with pytest.raises(S.CheckpointMismatch):
        list(S.ExtremalEnumeration(_g("Z15"), checkpoint=state).records())


def _state_after_first_record(spec, extended):
    enum = S.ExtremalEnumeration(_g(spec), extended=extended)
    next(enum.records())
    state = json.loads(json.dumps(enum.state()))
    assert state["inner"] is not None
    return state


# Z21 --extended has 4 targets: 7 is past them mid-target, and -1 (between
# targets) would restart at the last target and emit its records again
@pytest.mark.parametrize("target_pos,mid_target", [(7, True), (-1, False)])
def test_enumeration_rejects_target_pos_out_of_range(target_pos, mid_target):
    state = _state_after_first_record("Z21", True)
    state["target_pos"] = target_pos
    if not mid_target:
        state["inner"] = None
    with pytest.raises(S.CheckpointMismatch):
        S.ExtremalEnumeration(_g("Z21"), extended=True, checkpoint=state)


@pytest.mark.parametrize("spec,extended", [("Z15", False), ("Z21", True)])
def test_enumeration_rejects_an_inner_engine_of_another_size(spec, extended):
    state = _state_after_first_record(spec, extended)
    state["inner"]["k"] -= 1
    with pytest.raises(S.CheckpointMismatch):
        S.ExtremalEnumeration(_g(spec), extended=extended, checkpoint=state)


@pytest.mark.parametrize("spec,extended", [("Z15", False), ("Z21", True)])
def test_enumeration_rejects_a_field_state_does_not_write(spec, extended):
    state = _state_after_first_record(spec, extended)
    with pytest.raises(S.CheckpointMismatch, match="field 'bogus'"):
        S.ExtremalEnumeration(_g(spec), extended=extended,
                              checkpoint=dict(state, bogus=1))
    S.ExtremalEnumeration(_g(spec), extended=extended, checkpoint=state)


# ------------------------------------------------------ extremality


def test_extremality_failure_reasons():
    g = _g("Z15")
    good = S.ElementSet.from_indices(g, [1, 2, 3, 12, 13, 14])
    assert S.extremality_failure(good) is None
    spanning = S.ElementSet.from_indices(g, [1, 2, 3, 4, 5, 6])
    assert "cover" in S.extremality_failure(spanning)
    wrong_size = S.ElementSet.from_indices(g, [1, 2, 3])
    assert "6" in S.extremality_failure(wrong_size)
    with_zero = S.ElementSet.from_indices(g, [0, 1, 2, 3, 12, 13])
    assert S.extremality_failure(with_zero) is not None


def test_classify_rejects_non_extremal_input():
    g = _g("Z15")
    with pytest.raises(ValueError):
        S.classify(S.ElementSet.from_indices(g, [1, 2, 3]))


# ------------------------------------------------------------- tags


def test_tags_match_independent_predicates(z15_records, z16_records,
                                           z21_records):
    sample = list(z15_records) + list(z16_records) + z21_records[::13]
    for rec in sample:
        g = rec.group
        idx = list(rec.indices)
        want = set()
        if ref.shape_subgroup_minus_zero(g, idx):
            want.add(S.SHAPE_I)
        if ref.shape_three_coset(g, idx):
            want.update((S.SHAPE_II, S.SHAPE_B))
        if ref.shape_small_three_coset(g, idx):
            want.add(S.SHAPE_EX1)
        if ref.shape_symmetric_interval(g, idx):
            want.add(S.SHAPE_EX2)
        if ref.contains_complete_subset_brute(g, idx):
            want.add(S.HAS_COMPLETE_SUBSET)
        if not want & {S.SHAPE_I, S.SHAPE_II, S.SHAPE_B, S.SHAPE_EX1,
                       S.SHAPE_EX2}:
            want.add(S.UNCLASSIFIED)
        assert set(rec.tags) == want, idx


def test_witnesses_reverify_by_direct_computation(z15_records, z16_records,
                                                  z21_records):
    for rec in list(z15_records) + list(z16_records) + list(z21_records):
        g = rec.group
        a = set(rec.indices)
        for tag, w in rec.witnesses.items():
            if tag == S.HAS_COMPLETE_SUBSET:
                k = set(w["subgroup"])
                assert ref.is_subgroup(g, k)
                inter = [i for i in a if i in k]
                assert ref.subset_sums_brute(g, inter) == k
                continue
            if tag == S.SHAPE_EX2:
                gen = w["generator"]
                assert g.element_order(gen) == g.order
                half = len(a) // 2
                acc, elems = 0, set()
                for _ in range(half):
                    acc = g.add(acc, gen)
                    elems.update((acc, g.neg(acc)))
                assert elems == a
                continue
            h = set(w["subgroup"])
            assert ref.is_subgroup(g, h)
            assert h - {0} <= a
            if tag == S.SHAPE_I:
                assert a == h - {0}
            else:  # SHAPE_II, SHAPE_B, SHAPE_EX1: three-coset containment
                gen = w["g"]
                cover = set(h)
                cover |= {g.add(gen, y) for y in h}
                cover |= {g.add(g.neg(gen), y) for y in h}
                assert a <= cover


def test_record_serialization_schema(z16_records):
    d = z16_records[0].to_dict()
    assert d["schema_version"] == 1
    assert d["group"] == "Z16"
    assert d["set"] == sorted(z16_records[0].indices)
    assert sorted(d["tags"]) == d["tags"]
    assert set(d) == {"schema_version", "group", "set", "tags",
                      "witnesses", "profile"}


# ---------------------------------------------------- coset profiles


def test_profiles_match_reference_computation(z15_records, z16_records,
                                              z21_records):
    checked = 0
    for rec in list(z15_records) + list(z16_records) + list(z21_records):
        prof = rec.profile
        if prof is None:
            continue
        checked += 1
        g = rec.group
        h_idx = list(prof.subgroup.indices())
        lengths, k, r, m = ref.coset_profile_brute(g, rec.indices, h_idx)
        assert tuple(prof.lengths) == lengths
        assert prof.k == k
        assert tuple(prof.r) == r
        assert tuple(prof.m) == m
        # partition identity and monotonicity
        assert sum(prof.lengths) == len(rec.indices)
        tail = list(prof.lengths[1:])
        assert tail == sorted(tail, reverse=True)
    assert checked > 0


def test_coset_profile_direct_example():
    g = _g("Z15")
    a = S.ElementSet.from_indices(g, [1, 2, 3, 12, 13, 14])
    h = S.generated_subgroup(S.ElementSet.from_indices(g, [3]))  # order 5
    prof = S.coset_profile(a, h)
    assert prof.lengths[0] == 2          # {3, 12}
    assert prof.k == 2
    assert tuple(prof.lengths) == (2, 2, 2)
    assert tuple(prof.r) == (0, 2, 0, 0, 0)
    assert tuple(prof.m) == (2, 2, 0, 0, 0)


def test_coset_profile_of_subgroup_complement_case():
    g = _g("Z16")
    h = S.generated_subgroup(S.ElementSet.from_indices(g, [2]))
    a = S.ElementSet.from_indices(g, [i for i in range(2, 16, 2)])
    prof = S.coset_profile(a, h)
    assert prof.k == 0
    assert tuple(prof.lengths) == (7,)


def test_coset_profile_rejects_trivial_and_full_subgroups():
    g = _g("Z15")
    a = S.ElementSet.from_indices(g, [1, 2, 3, 12, 13, 14])
    with pytest.raises(ValueError):
        S.coset_profile(a, S.generated_subgroup(S.ElementSet(g, 0)))
    with pytest.raises(ValueError):
        S.coset_profile(a, S.generated_subgroup(
            S.ElementSet.from_indices(g, [1])))


# -------------------------------------------------------- observation


def test_observation_holds_for_every_record(z15_records, z16_records,
                                            z21_records):
    total = 0
    for rec in list(z15_records) + list(z16_records) + list(z21_records):
        rep = S.check_observation_31(rec.element_set)
        assert rep.holds
        total += 1
    assert total == 419


def test_observation_checks_are_meaningful(z16_records):
    rep = S.check_observation_31(z16_records[0].element_set)
    assert rep.holds
    assert rep.checks, "the even-elements set completes a subgroup"


# ---------------------------------------------------------- examples


@pytest.mark.parametrize("p,q", [(3, 7), (5, 11), (7, 13)])
def test_example_constructor_coset_variant(p, q):
    a = S.make_example_1(p, q)
    g = a.group
    assert g.order == p * q
    assert a.cardinality == p + q - 3 == S.critical_number_formula(g) - 1
    assert not ref.spans_brute(g, list(a.indices()))
    assert S.extremality_failure(a) is None
    # the order-p subgroup is fully present minus zero
    k = next(h for h in S.all_subgroups(g) if h.cardinality == p)
    inter = set(a.indices()) & set(k.indices())
    assert inter == set(k.indices()) - {0}


def test_example_constructor_coset_variant_rejects_bad_window():
    with pytest.raises(ValueError):
        S.make_example_1(3, 5)   # 5 < 3 + 2 + 1
    with pytest.raises(ValueError):
        S.make_example_1(3, 11)  # 11 > 2*3 + 3


def test_example_constructor_coset_variant_is_seeded():
    a = S.make_example_1(3, 7, seed=5)
    b = S.make_example_1(3, 7, seed=5)
    assert sorted(a.indices()) == sorted(b.indices())


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7)])
def test_example_constructor_interval_variant(p, q):
    a = S.make_example_2(p, q)
    g = a.group
    assert g.order == p * q
    assert a.cardinality == p + q - 2 == S.critical_number_formula(g) - 1
    assert not ref.spans_brute(g, list(a.indices()))
    assert S.extremality_failure(a) is None
    assert ref.shape_symmetric_interval(g, list(a.indices()))


def test_example_constructor_interval_variant_hand_value():
    a = S.make_example_2(3, 5)
    assert sorted(a.indices()) == [1, 2, 3, 12, 13, 14]


def test_example_constructor_interval_variant_rejects_bad_window():
    with pytest.raises(ValueError):
        S.make_example_2(3, 11)  # q > p + floor(2 sqrt(p-2)) + 1
    with pytest.raises(ValueError):
        S.make_example_2(5, 3)   # needs p < q


# -------------------------------------------------------- conjectures


def test_conjecture_certificate_for_interval_shape(z15_records):
    rep = S.check_conjecture(2, 3, 5)
    assert rep.outcome == "REFUTED"
    assert rep.which == 2 and (rep.p, rep.q) == (3, 5)
    assert rep.group == "Z15"
    assert rep.extremal_count == 28
    assert rep.failing_count == 24
    assert len(z15_records) == 28
    assert len(rep.counterexamples) == 24
    assert rep.orbit_dedup is False
    assert rep.counterexamples == [r.to_dict() for r in z15_records
                                   if S.SHAPE_EX2 not in r.tags]


def test_conjecture_certificate_for_complete_subset(z21_records):
    rep = S.check_conjecture(1, 3, 7)
    assert rep.outcome == "REFUTED"
    assert rep.group == "Z21"
    assert rep.extremal_count == 390
    assert rep.failing_count == 358
    # the certificate lists the first 25 failing sets in enumeration order
    failing = [r.to_dict() for r in z21_records
               if S.HAS_COMPLETE_SUBSET not in r.tags]
    assert len(failing) == 358
    assert rep.counterexamples == failing[:25]


def test_a_budgeted_report_is_partial_and_a_run_resumes_on_its_enumeration():
    # the reports carry no checkpoint: a paused run resumes on its
    # ExtremalEnumeration, and one Verdict folds the records on both sides
    rep = S.check_conjecture(2, 3, 5, S.SearchBudget(max_nodes=60))
    assert rep.outcome == "PARTIAL" and not hasattr(rep, "checkpoint")
    verdict = Verdict(S.SHAPE_EX2)
    enum = S.ExtremalEnumeration(_g("Z15"), S.SearchBudget(max_nodes=60))
    assert verdict.feed(enum) is False
    resumed = S.ExtremalEnumeration(_g("Z15"), checkpoint=enum.state())
    assert verdict.feed(resumed) is True
    assert (verdict.outcome(True), verdict.total, verdict.failing) == \
        ("REFUTED", 28, 24)


def test_conjecture_windows_are_enforced():
    with pytest.raises(ValueError):
        S.check_conjecture(1, 3, 5)   # 5 < 6: outside the open window
    with pytest.raises(ValueError):
        S.check_conjecture(2, 3, 7)   # 7 > 6: outside the closed window


# -------------------------------------------------- structure theorem


def test_structure_theorem_hypothesis_detection():
    # the abstract settles even orders from 36 on, so |G| = 2q below 36 is
    # outside the theorem although (2, q) is in pq_window's 'theorem'
    # window: Z14's extremal set {3, 5, 6, 8, 9, 11} is not SHAPE_I
    assert S.theorem_main_hypothesis(_g("Z33")) == "odd"
    assert S.theorem_main_hypothesis(_g("Z36")) == "even"
    assert S.pq_window(2, 7) == "theorem"
    z14 = S.classify(S.ElementSet.from_indices(_g("Z14"), [3, 5, 6, 8, 9, 11]))
    assert z14.tags == (S.UNCLASSIFIED,)
    for spec in ("Z15", "Z16", "Z21", "Z25", "Z14", "Z2xZ7", "Z22", "Z26",
                 "Z34"):
        with pytest.raises(ValueError):
            S.theorem_main_hypothesis(_g(spec))


@pytest.mark.parametrize("spec,tag", [("Z33", S.SHAPE_II), ("Z36", S.SHAPE_I)])
def test_structure_theorem_extended_runs(spec, tag):
    rep = S.verify_theorem_main(_g(spec), orbit_dedup=True)
    assert rep.outcome == "VERIFIED"
    assert rep.required_tag == tag
    assert not rep.violations and rep.violation_count == 0
    assert rep.extremal_count > 0
    assert rep.tag_counts.get(tag) == rep.extremal_count


def test_structure_theorem_needs_no_flag():
    # every group the theorem covers is past the direct walk's budget (Z33
    # has C(32, 11) = 129,024,480 candidate sets), so the default call takes
    # the missed-target walk, with orbit dedup
    rep = S.verify_theorem_main(_g("Z33"))
    assert rep.outcome == "VERIFIED" and rep.orbit_dedup


@pytest.mark.extended
def test_z55_parallel_missed_target_records_bytes():
    # the benchmark's extremal-parallel run: 2 pool workers, unit-orbit dedup
    recs = S.ExtremalEnumeration(_g("Z55"), extended=True, threads=2).records()
    lines = [dump_json(rec.to_dict()) + "\n" for rec in recs]
    assert len(lines) == 126
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "9903cc8fd6a74cec84127fc7c8ad474f7f93d4bc03d110fce75e0a034dd02434")
