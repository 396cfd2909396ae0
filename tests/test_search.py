"""Search engines against exhaustive brute force; pause/resume identity."""

from __future__ import annotations

import itertools
import math
import types
from concurrent.futures import Future

import pytest

import reference as ref
import spanlab as S


# ----------------------------------------------------- brute parity


@pytest.mark.parametrize("spec", ["Z5", "Z7", "Z8", "Z9", "Z11", "Z2xZ4"])
def test_max_avoiding_matches_brute_force_every_target(spec):
    g = S.parse_group_spec(spec)
    for target in range(1, g.order):
        # largest A in G \ {0} with target not in Sigma(A)
        best = 0
        for r in range(1, g.order):
            ok = any(
                target not in ref.subset_sums_brute(g, combo)
                for combo in itertools.combinations(range(1, g.order), r))
            if not ok:
                break
            best = r
        res = S.max_avoiding(g, target)
        assert res.complete
        assert res.size == best, (spec, target)
        assert target not in ref.subset_sums_brute(g, res.witness)
        assert len(res.witness) == res.size


def test_max_avoiding_floor_reports_only_larger_witnesses():
    g = S.parse_group_spec("Z9")
    baseline = S.max_avoiding(g, 1)
    assert baseline.witness is not None
    # nothing strictly larger exists, so the floor comes back untouched
    at_floor = S.max_avoiding(g, 1, floor=baseline.size)
    assert at_floor.size == baseline.size and at_floor.witness is None
    below = S.max_avoiding(g, 1, floor=baseline.size - 1)
    assert below.size == baseline.size and below.witness == baseline.witness


def test_budget_exhaustion_reports_incomplete():
    g = S.parse_group_spec("Z21")
    res = S.max_avoiding(g, 1, budget=S.SearchBudget(max_nodes=10))
    assert res.complete is False and res.nodes == 10
    # a spent allowance returns before the first node, with no witness
    res = S.max_avoiding(g, 1, budget=S.SearchBudget(max_seconds=0))
    assert (res.nodes, res.witness, res.complete) == (0, None, False)


def test_an_unset_budget_is_infinite():
    budget = S.SearchBudget()
    assert budget == (math.inf, math.inf)
    assert budget.remaining(10**9, 0.0) == (math.inf, math.inf)


@pytest.mark.parametrize("make", [
    lambda g: S.SizedEnumerator(g, 2),
    lambda g: S.AvoidingEnumerator(g, 1, 2),
], ids=["sized", "avoiding"])
def test_a_wide_group_reads_the_clock_before_every_node(monkeypatch, make):
    # a node on Z1000000 shifts a 10^6-bit box, so the walk reads the clock
    # before each one; with a clock one second on at every read, run() fixes
    # its deadline, reads 1 s (allowed), walks a node and reads 2 s: a pause
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads) - 1)

    monkeypatch.setattr("spanlab.search.time", types.SimpleNamespace(monotonic=clock))
    eng = make(S.parse_group_spec("Z1000000"))
    list(eng.run(S.SearchBudget(max_seconds=1.5)))
    assert not eng.done
    assert eng.state()["nodes"] == eng.stats.nodes == 1
    assert len(reads) == 3


@pytest.mark.parametrize("spec", ["Z7", "Z9", "Z15"])
def test_search_witness_is_lexicographic_least_without_orbit_reduction(spec):
    # every target searched, so the witness is the lex-least maximum
    # non-spanning set: (1,2,3), (1,2,3,8) and (1,2,3,4,13,14)
    g = S.parse_group_spec(spec)
    out = S.critical_number_search(g, reduce_orbits=False)
    assert out.status == "complete"
    assert (out.value - 1, out.witness) == ref.max_nonspanning_brute(g)


# ----------------------------------------------------------- targets


def test_target_representatives_cover_unit_orbits():
    # 0 is a legitimate missing element, so it is always a target
    g = S.parse_group_spec("Z12")
    full = S.target_representatives(g, reduce_orbits=False)
    assert sorted(full) == list(range(12))
    reps = S.target_representatives(g, reduce_orbits=True)
    # orbits of Z12 under units {1,5,7,11}: one representative each
    orbits = set()
    for t in range(12):
        orbits.add(frozenset(t * u % 12 for u in (1, 5, 7, 11)))
    assert len(reps) == len(orbits) == 6
    covered = {frozenset(t * u % 12 for u in (1, 5, 7, 11)) for t in reps}
    assert covered == orbits


def test_orbit_targets_meet_every_automorphism_orbit_once():
    # Aut(G) by brute force over the images of the factor generators; the
    # generated subgroup turns out to be all of Aut(G) on these groups
    for order in range(2, 28):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            orbits = ref.automorphism_orbits_brute(g)
            reps = S.target_representatives(g, reduce_orbits=True)
            assert reps[-1] == 0 and reps[:-1] == sorted(reps[:-1])
            assert {orb for orb in orbits if orb & set(reps)} == orbits, g
            assert len(reps) == len(orbits), g
            assert all(min(orb) in reps for orb in orbits), g


def test_orbit_targets_on_cyclic_specs_are_the_divisors_then_zero():
    for n in range(3, 201):
        g = S.make_group((n,))
        want = [d for d in range(1, n) if n % d == 0] + [0]
        assert S.target_representatives(g, reduce_orbits=True) == want, n


def test_orbit_targets_on_a_large_cyclic_spec_build_no_automorphisms():
    g = S.make_group((100000,))
    want = [d for d in range(1, 100000) if 100000 % d == 0] + [0]
    assert S.target_representatives(g, reduce_orbits=True) == want
    assert g._automorphisms is None


def test_orbit_targets_shrink_the_noncyclic_searches():
    counts = {spec: len(S.target_representatives(S.parse_group_spec(spec), True))
              for spec in ("Z2xZ2xZ2xZ2xZ2", "Z5xZ5", "Z7xZ7", "Z3xZ12")}
    assert counts == {"Z2xZ2xZ2xZ2xZ2": 2, "Z5xZ5": 2, "Z7xZ7": 2, "Z3xZ12": 6}
    total = sum(len(S.target_representatives(S.make_group(orders), True))
                for n in range(3, 37) for orders in S.abelian_groups_of_order(n))
    assert total == 244


# ------------------------------------------------------ enumerators


def test_sized_enumerator_yields_exactly_the_nonspanning_sets():
    g = S.parse_group_spec("Z9")
    got = set(S.SizedEnumerator(g, 3).run())
    want = {combo for combo in itertools.combinations(range(1, 9), 3)
            if not ref.spans_brute(g, combo)}
    assert got == want


def test_avoiding_enumerator_yields_exactly_the_avoiding_sets():
    g = S.parse_group_spec("Z9")
    target = 4
    got = set(S.AvoidingEnumerator(g, target, 3).run())
    want = {combo for combo in itertools.combinations(range(1, 9), 3)
            if target not in ref.subset_sums_brute(g, combo)}
    assert got == want


def test_enumerators_yield_the_brute_force_sets_in_lex_order():
    for spec in ("Z9", "Z3xZ3"):
        g = S.parse_group_spec(spec)
        combos = {k: list(itertools.combinations(range(1, g.order), k))
                  for k in (2, 3, 4)}
        for k, sets in combos.items():
            assert list(S.SizedEnumerator(g, k).run()) == [
                a for a in sets if not ref.spans_brute(g, a)], (spec, k)
            for target in range(g.order):
                assert list(S.AvoidingEnumerator(g, target, k).run()) == [
                    a for a in sets if target not in ref.subset_sums_brute(g, a)
                ], (spec, target, k)


# AvoidingEnumerator(g, t, cr(g) - 1) node counts for t = 0, 1, ..., |g| - 1,
# frozen from the engine that kept (Sigma, -Sigma) per node: the kill-mask
# recurrence walks the same tree
AVOIDING_NODES = {
    "Z21": [
        1507, 1456, 1460, 1406, 1454, 1466, 1395, 1428, 1404, 1354, 1439, 1434,
        1421, 1460, 1554, 1518, 1623, 1549, 1534, 1466, 1490,
    ],
    "Z3xZ3xZ3": [
        4427, 4612, 4681, 4670, 4670, 4670, 4741, 4741, 4741, 6872, 6824, 6815,
        6724, 6724, 6724, 6622, 6657, 6639, 6231, 6231, 6231, 6225, 6237, 6231,
        6226, 6226, 6226,
    ],
}


@pytest.mark.parametrize("spec", sorted(AVOIDING_NODES))
def test_avoiding_enumerator_walks_the_frozen_tree(spec):
    g = S.parse_group_spec(spec)
    k = S.critical_number_formula(g) - 1
    nodes = []
    for target in range(g.order):
        eng = S.AvoidingEnumerator(g, target, k)
        for _ in eng.run():
            pass
        nodes.append(eng.stats.nodes)
    assert nodes == AVOIDING_NODES[spec]


def _unit_stabilizer(g, t):
    n = g.order
    return tuple(tuple(u * x % n for x in range(n)) for u in range(2, n)
                 if math.gcd(u, n) == 1 and u * t % n == t)


@pytest.mark.parametrize("spec", ["Z21", "Z25", "Z33", "Z36"])
def test_stabilizer_pruning_keeps_exactly_the_lex_leaders(spec):
    # the pruned leaves are the subsequence of the unpruned leaves that are
    # lex-least among their images under Stab(t), by brute force over the
    # sorted images: no lex-leader is cut, and no other leaf is kept
    g = S.parse_group_spec(spec)
    k = S.critical_number_formula(g) - 1
    full_nodes = pruned_nodes = 0
    for t in range(g.order):
        syms = _unit_stabilizer(g, t)
        full = S.AvoidingEnumerator(g, t, k)
        leaves = list(full.run())
        pruned = S.AvoidingEnumerator(g, t, k, symmetries=syms)
        assert list(pruned.run()) == [
            a for a in leaves
            if all(tuple(sorted(s[x] for x in a)) >= a for s in syms)], (spec, t)
        full_nodes += full.stats.nodes
        pruned_nodes += pruned.stats.nodes
    assert pruned_nodes < full_nodes


@pytest.mark.parametrize("spec", ["Z3xZ6", "Z2xZ2xZ4", "Z3xZ3xZ3"])
def test_generator_pruning_keeps_exactly_the_lex_leaders(spec):
    # the non-cyclic cut: the automorphism generators fixing t, checked as in
    # the cyclic test above by brute force over the sorted images
    g = S.parse_group_spec(spec)
    cr = S.critical_number_formula(g)
    generators = set(S.groups.automorphism_generators(g))
    cut = 0
    for k in (cr - 2, cr - 1):
        for t in range(g.order):
            syms = S.target_symmetries(g, t)
            assert all(s[t] == t for s in syms) and set(syms) <= generators
            leaves = list(S.AvoidingEnumerator(g, t, k).run())
            kept = list(S.AvoidingEnumerator(g, t, k, symmetries=syms).run())
            assert kept == [
                a for a in leaves
                if all(tuple(sorted(s[x] for x in a)) >= a for s in syms)
            ], (spec, k, t)
            cut += len(leaves) - len(kept)
    assert cut > 0


def test_target_symmetries_on_cyclic_specs_are_the_unit_stabilizer():
    for n in (9, 12, 25, 36):
        g = S.make_group((n,))
        for t in range(n):
            assert S.target_symmetries(g, t) == _unit_stabilizer(g, t), (n, t)


def test_symmetry_cut_keeps_every_targets_maximum_and_witness():
    # floor 0 on every target of every group of order 3..30: the cut walk
    # finds the same lex-least maximum as the full one, in fewer nodes
    full_nodes = cut_nodes = 0
    for order in range(3, 31):
        for orders in S.abelian_groups_of_order(order):
            g = S.make_group(orders)
            for t in range(g.order):
                full = S.max_avoiding(g, t)
                cut = S.max_avoiding(g, t, symmetries=S.target_symmetries(g, t))
                assert full.complete and cut.complete
                assert (cut.size, cut.witness) == (full.size, full.witness), (g, t)
                full_nodes += full.nodes
                cut_nodes += cut.nodes
    assert cut_nodes < full_nodes


def test_pruned_avoiding_enumerator_resume_is_lossless():
    g = S.parse_group_spec("Z25")
    syms = _unit_stabilizer(g, 5)
    uninterrupted = list(S.AvoidingEnumerator(g, 5, 7, symmetries=syms).run())
    assert len(uninterrupted) == 132

    def make(state):
        if state is None:
            return S.AvoidingEnumerator(g, 5, 7, syms)
        return S.AvoidingEnumerator.from_state(g, state, syms)

    chunked, _ = _drain_with_pauses(make, 97)
    assert chunked == uninterrupted


def test_symmetries_must_fix_the_target():
    g = S.parse_group_spec("Z9")
    with pytest.raises(ValueError):
        S.AvoidingEnumerator(g, 1, 3, symmetries=_unit_stabilizer(g, 0))


def test_sized_enumerator_rejects_bad_size():
    g = S.parse_group_spec("Z9")
    with pytest.raises(ValueError):
        S.SizedEnumerator(g, 0)
    with pytest.raises(ValueError):
        S.SizedEnumerator(g, 9)


# ---------------------------------------------------- pause/resume


def _drain_with_pauses(make, budget_nodes: int):
    """Run an enumerator in budget-limited slices until it finishes, each
    slice on an engine rebuilt from the state the last one stopped at."""
    out = []
    state = None
    for _ in range(10_000):
        enum = make(state)
        for item in enum.run(S.SearchBudget(max_nodes=budget_nodes)):
            out.append(item)
        if not enum.done:
            state = enum.state()
            continue
        return out, enum.state()
    raise AssertionError("enumeration never completed")


def test_sized_enumerator_resume_is_lossless():
    g = S.parse_group_spec("Z15")
    uninterrupted = list(S.SizedEnumerator(g, 6).run())

    def make(state):
        if state is None:
            return S.SizedEnumerator(g, 6)
        return S.SizedEnumerator.from_state(g, state)

    chunked, final_state = _drain_with_pauses(make, 500)
    assert chunked == uninterrupted
    assert final_state["done"] is True


def test_avoiding_enumerator_resume_is_lossless():
    g = S.parse_group_spec("Z15")
    uninterrupted = list(S.AvoidingEnumerator(g, 2, 6).run())

    def make(state):
        if state is None:
            return S.AvoidingEnumerator(g, 2, 6)
        return S.AvoidingEnumerator.from_state(g, state)

    chunked, _ = _drain_with_pauses(make, 400)
    assert chunked == uninterrupted


@pytest.mark.parametrize("spec,target,k", [("Z3xZ3xZ3", 4, 9), ("Z2xZ8", 4, 5)])
@pytest.mark.parametrize("cut", [False, True])
def test_noncyclic_avoiding_resume_is_lossless(spec, target, k, cut):
    # off single-factor specs the engine's padded bit positions differ from
    # the element indices in path and cursor, so a resume that mixed the
    # two would lose or repeat leaves
    g = S.parse_group_spec(spec)
    syms = S.target_symmetries(g, target) if cut else ()
    assert bool(syms) == cut
    straight = S.AvoidingEnumerator(g, target, k, symmetries=syms)
    uninterrupted = list(straight.run())
    assert len(uninterrupted) > 1

    def make(state):
        if state is None:
            return S.AvoidingEnumerator(g, target, k, syms)
        return S.AvoidingEnumerator.from_state(g, state, syms)

    chunked, final_state = _drain_with_pauses(make, 97)
    assert chunked == uninterrupted
    assert final_state["nodes"] == straight.stats.nodes > 97


@pytest.mark.parametrize("spec,k", [("Z3xZ3xZ3", 9), ("Z2xZ8", 7)])
def test_noncyclic_sized_resume_is_lossless(spec, k):
    # sigs are in the padded layout, path and cursor in element indices
    g = S.parse_group_spec(spec)
    straight = S.SizedEnumerator(g, k)
    uninterrupted = list(straight.run())
    assert len(uninterrupted) > 1

    def make(state):
        if state is None:
            return S.SizedEnumerator(g, k)
        return S.SizedEnumerator.from_state(g, state)

    chunked, final_state = _drain_with_pauses(make, 97)
    assert chunked == uninterrupted
    assert final_state["nodes"] == straight.stats.nodes > 97


# why None: a path on the candidate mask, which loads
@pytest.mark.parametrize("spec,target,path,why", [
    ("Z3xZ3xZ3", 4, [1, 2], None),
    ("Z3xZ3xZ3", 4, [0, 1], "zero"),
    ("Z3xZ3xZ3", 4, [1, 4], "the target"),
    ("Z3xZ3xZ3", 4, [1, 3], "killed: (0,0,1) + (0,1,0) = (0,1,1)"),
    ("Z3xZ3xZ3", 4, [1, 9, 20], None),
    ("Z3xZ3xZ3", 4, [1, 9, 21], "killed: (0,0,1) + (1,0,0) + (2,1,0) = (0,1,1)"),
    ("Z3xZ3xZ3", 4, [1, 27], "outside the group"),
    ("Z2xZ8", 9, [5, 11], None),
    ("Z2xZ8", 9, [5, 12], "killed: (0,5) + (1,4) = (1,1), wrapping"),
    ("Z2xZ8", 9, [9], "the target"),
    ("Z2xZ8", 9, [3, 16], "outside the group"),
])
def test_noncyclic_avoiding_from_state_rejects_paths_off_the_candidate_mask(
        spec, target, path, why):
    g = S.parse_group_spec(spec)
    state = dict(S.AvoidingEnumerator(g, target, 4).state(), path=path,
                 cursor=[x + 1 for x in path] + [path[-1] + 1])
    if why is None:
        S.AvoidingEnumerator.from_state(g, state)
        return
    with pytest.raises(S.CheckpointMismatch):
        S.AvoidingEnumerator.from_state(g, state)


@pytest.mark.parametrize("path,why", [
    ([3, 1], "not ascending"),
    ([0, 1], "zero"),
    ([2, 4], "the target"),
    ([1, 3], "killed: 1 + 3 = 4"),
    ([1, 2, 5, 7], "longer than k"),
    ([20], "outside the group"),
    # (path, cursor): after the subtree of 1 the depth-0 cursor 0 would
    # start over at 1 and yield the same leaves again
    (([1], [0, 2]), "depth-0 cursor not past the path element"),
])
def test_avoiding_from_state_rejects_paths_off_the_candidate_mask(path, why):
    g = S.parse_group_spec("Z15")
    state = S.AvoidingEnumerator(g, 4, 3).state()
    path, cursor = path if isinstance(path, tuple) else (
        path, [x + 1 for x in path] + [path[-1] + 1])
    state.update(path=path, cursor=cursor)
    with pytest.raises(S.CheckpointMismatch):
        S.AvoidingEnumerator.from_state(g, state)


@pytest.mark.parametrize("path,cursor,why", [
    ([9, 1], [10, 2, 2], "not ascending"),
    ([0, 3], [1, 4, 4], "zero"),
    ([3, 15], [4, 16, 16], "outside the group"),
    ([1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 8, 8], "longer than k"),
    ([3], [3, 4], "depth-0 cursor not past the path element"),
    ([3], [4, 3], "depth-1 cursor not past the path"),
    ([3], [11, 4], "depth-0 cursor past its last start 10"),
    ([3], [4, 12], "depth-1 cursor past its last start 11"),
    ([3], [5, 4], "depth-0 cursor raised past path[0] + 1: skips 4"),
    ([3, 5], [4, 7, 6], "depth-1 cursor raised past path[1] + 1: skips 6"),
])
def test_sized_from_state_rejects_positions_off_the_tree(path, cursor, why):
    g = S.parse_group_spec("Z15")
    state = S.SizedEnumerator(g, 6).state()
    S.SizedEnumerator.from_state(g, dict(state, path=[3], cursor=[4, 4]))
    state.update(path=path, cursor=cursor)
    with pytest.raises(S.CheckpointMismatch):
        S.SizedEnumerator.from_state(g, state)


# the spanning paths span only at their last element
@pytest.mark.parametrize("spec,k,path", [
    ("Z3xZ3xZ3", 9, [1, 2, 3, 6, 9]),
    ("Z3xZ3xZ3", 9, [1, 2, 3, 6, 9, 18]),
    ("Z3xZ3xZ3", 9, [1, 3, 4, 9, 10, 12]),
    ("Z3xZ3xZ3", 9, [2, 5, 7, 11, 13, 19]),
    ("Z2xZ8", 7, [1, 2, 4, 8]),
    ("Z2xZ8", 7, [1, 2, 4, 8, 9]),
    ("Z2xZ8", 7, [3, 5, 6, 9, 12]),
    ("Z2xZ8", 7, [5, 6, 9, 10, 13]),
])
def test_noncyclic_sized_from_state_refuses_a_spanning_prefix(spec, k, path):
    g = S.parse_group_spec(spec)
    state = dict(S.SizedEnumerator(g, k).state(), path=path,
                 cursor=[x + 1 for x in path] + [path[-1] + 1])
    if S.subset_sums_bits(g, path) != g.full_mask:
        S.SizedEnumerator.from_state(g, state)
        return
    assert S.subset_sums_bits(g, path[:-1]) != g.full_mask
    with pytest.raises(S.CheckpointMismatch):
        S.SizedEnumerator.from_state(g, state)


@pytest.mark.parametrize("make", [
    lambda g: S.SizedEnumerator(g, 6),
    lambda g: S.AvoidingEnumerator(g, 2, 6),
], ids=["sized", "avoiding"])
def test_from_state_refuses_a_full_length_path(make):
    # run() steps past each leaf before yielding it, so no run writes a
    # leaf as its path; loaded, that leaf would be yielded a second time
    g = S.parse_group_spec("Z15")
    eng = make(g)
    leaf = next(eng.run())
    state = eng.state()
    type(eng).from_state(g, state)
    full = dict(state, path=list(leaf), cursor=state["cursor"] + [leaf[-1] + 1])
    with pytest.raises(S.CheckpointMismatch):
        type(eng).from_state(g, full)


def test_from_state_rejects_foreign_checkpoints():
    g15 = S.parse_group_spec("Z15")
    g9 = S.parse_group_spec("Z9")
    state = S.SizedEnumerator(g15, 6).state()
    with pytest.raises(S.CheckpointMismatch):
        S.SizedEnumerator.from_state(g9, state)
    with pytest.raises(S.CheckpointMismatch):
        S.AvoidingEnumerator.from_state(g15, state)  # wrong kind
    bad = dict(state, engine="bogus-version")
    with pytest.raises(S.CheckpointMismatch):
        S.SizedEnumerator.from_state(g15, bad)


# ---------------------------------------------------- the pool's root split


@pytest.mark.parametrize("spec,orbit_dedup,skipped", [
    ("Z3xZ3xZ3", False, 8),
    ("Z21", False, 6),
    ("Z21", True, 23),
])
def test_split_submits_a_unit_for_each_pushed_root_only(spec, orbit_dedup, skipped):
    # skipped: the root nodes, over all targets, that get no unit because
    # run() finds their child dead or cuts it
    g = S.parse_group_spec(spec)
    k = S.critical_number_formula(g) - 1
    no_unit = 0
    for t in S.target_representatives(g, orbit_dedup):
        syms = S.target_symmetries(g, t) if orbit_dedup else ()
        straight = S.AvoidingEnumerator(g, t, k, symmetries=syms)
        want = list(straight.run())
        units = []

        def submit(fn, *args):
            assert fn is S.search.run_work_unit
            unit = Future()
            unit.set_result(fn(*args))
            units.append((args[3], unit.result()[1]))
            return unit

        split = S.AvoidingEnumerator(g, t, k, symmetries=syms)
        assert list(split.run_split(submit)) == want
        assert split.stats.nodes == straight.stats.nodes and split.done
        # a unit for a dead root would walk no node
        assert all(nodes > 0 for _, nodes in units)
        assert not any(s[f] < f for f, _ in units for s in syms)
        roots = split.stats.nodes - sum(nodes for _, nodes in units)
        no_unit += roots - len(units)
    assert no_unit == skipped
