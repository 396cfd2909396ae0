"""Depth-first search engines over subsets of a group, bitset-backed.

Three engines share one skeleton (lexicographic DFS with an explicit
stack, so state can be checkpointed and resumed):

* sized enumeration: all size-k subsets of G \\ {0} whose subset sums miss
  at least one element, pruned on spanning prefixes;
* target-avoiding enumeration: all size-k subsets whose subset sums avoid
  a fixed target t, with per-node candidate masks (an element c is dead
  once t - c is reachable);
* target-avoiding maximum search: branch and bound for the largest
  avoiding set, returning the lexicographically first maximum witness.

The avoiding engines maintain (Sigma, -Sigma) incrementally, one translate
each per node, so the per-node cost is a handful of big-int operations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator

from .groups import GroupSpec, automorphism_generators, make_group

ENGINE_VERSION = "search-1"

_CHECK_MASK = 0xFFF  # budget re-check cadence in nodes


class EnumerationPaused(Exception):
    """Raised by an engine when its budget runs out; carries resumable state."""

    def __init__(self, state: dict):
        super().__init__("search budget exhausted")
        self.state = state


class CheckpointMismatch(ValueError):
    pass


@dataclass
class SearchBudget:
    max_nodes: int | None = None
    max_seconds: float | None = None
    max_exact_order: int = 24
    max_candidates: int = 5_000_000
    extended: bool = False

    def deadline(self) -> float | None:
        return time.monotonic() + self.max_seconds if self.max_seconds else None


@dataclass
class SearchStats:
    nodes: int = 0
    emitted: int = 0
    targets_done: int = 0


def nonzero_mask(g: GroupSpec) -> int:
    return g.full_mask ^ 1


def target_representatives(g: GroupSpec, reduce_orbits: bool) -> list[int]:
    """Targets whose avoidance searches jointly cover all non-spanning sets.

    With orbit reduction, one target per orbit of the automorphisms from
    groups.automorphism_generators: Sigma(phi A) = phi Sigma(A), so A
    avoids t exactly when phi A avoids phi t, and a set missing t is
    carried to one missing t's representative. The representative of an
    orbit is its least index; they are listed ascending with 0 last, which
    on a single-factor spec gives the divisors d < n followed by 0. A
    witness found this way is canonical only up to those automorphisms.
    """
    if not reduce_orbits:
        return list(range(g.order))
    root = list(range(g.order))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for perm in automorphism_generators(g):
        for x, y in enumerate(perm):
            rx, ry = find(x), find(y)
            if rx != ry:
                root[max(rx, ry)] = min(rx, ry)
    return [x for x in range(1, g.order) if root[x] == x] + [0]


# -- sized enumeration (direct mode) ------------------------------------------


class SizedEnumerator:
    """Lexicographic DFS over size-k subsets of G \\ {0}, pruning any prefix
    that already spans. Yields (indices, sigma_bits) for non-spanning leaves."""

    def __init__(self, group: GroupSpec, k: int, budget: SearchBudget | None = None):
        if not 0 < k < group.order:
            raise ValueError(f"subset size {k} out of range for {group.spec_string}")
        self.group = group
        self.k = k
        self.budget = budget or SearchBudget()
        self.path: list[int] = []
        self.cursor: list[int] = [1]
        self.sigs: list[int] = [0]
        self.stats = SearchStats()
        self.done = False

    # checkpoint round-trip ----------------------------------------------

    def state(self) -> dict:
        return {
            "engine": ENGINE_VERSION,
            "kind": "sized",
            "group": self.group.spec_string,
            "k": self.k,
            "path": list(self.path),
            "cursor": list(self.cursor),
            "nodes": self.stats.nodes,
            "emitted": self.stats.emitted,
            "done": self.done,
        }

    @classmethod
    def from_state(cls, group: GroupSpec, state: dict,
                   budget: SearchBudget | None = None) -> "SizedEnumerator":
        if state.get("engine") != ENGINE_VERSION:
            raise CheckpointMismatch(
                f"checkpoint engine {state.get('engine')!r} != {ENGINE_VERSION!r}")
        if state.get("kind") != "sized":
            raise CheckpointMismatch(f"checkpoint kind {state.get('kind')!r} != 'sized'")
        if state.get("group") != group.spec_string:
            raise CheckpointMismatch(
                f"checkpoint group {state.get('group')!r} != {group.spec_string!r}")
        self = cls(group, int(state["k"]), budget)
        self.path = [int(x) for x in state["path"]]
        self.cursor = [int(x) for x in state["cursor"]]
        if len(self.cursor) != len(self.path) + 1:
            raise CheckpointMismatch("corrupt checkpoint: cursor/path length mismatch")
        translate = group.translate_bits
        sigs = [0]
        for x in self.path:
            sigs.append(sigs[-1] | translate(sigs[-1] | 1, x))
        self.sigs = sigs
        self.stats.nodes = int(state.get("nodes", 0))
        self.stats.emitted = int(state.get("emitted", 0))
        self.done = bool(state.get("done", False))
        return self

    def run(self) -> Iterator[tuple[tuple[int, ...], int]]:
        if self.done:
            return
        g = self.group
        order = g.order
        full = g.full_mask
        translate = g.translate_bits
        k = self.k
        path, cursor, sigs = self.path, self.cursor, self.sigs
        stats = self.stats
        budget = self.budget
        deadline = budget.deadline()
        nodes = stats.nodes
        stop_at = None if budget.max_nodes is None else nodes + budget.max_nodes
        while True:
            depth = len(path)
            if depth == k:
                # step past the leaf before yielding it, so a state() taken
                # while suspended here resumes after this leaf
                leaf = tuple(path)
                path.pop(); cursor.pop(); sig = sigs.pop()
                if sig != full:
                    stats.emitted += 1
                    stats.nodes = nodes
                    yield leaf, sig
                continue
            c = cursor[depth]
            if c > order - (k - depth):
                if depth == 0:
                    self.done = True
                    stats.nodes = nodes
                    return
                path.pop(); cursor.pop(); sigs.pop()
                continue
            nodes += 1
            if (stop_at is not None and nodes >= stop_at) or (
                    deadline is not None and nodes & _CHECK_MASK == 0
                    and time.monotonic() > deadline):
                stats.nodes = nodes
                raise EnumerationPaused(self.state())
            cursor[depth] = c + 1
            sig = sigs[depth]
            new_sig = sig | translate(sig | 1, c)
            if new_sig == full:
                continue
            path.append(c)
            cursor.append(c + 1)
            sigs.append(new_sig)


# -- target-avoiding engines ---------------------------------------------------


class AvoidingEnumerator:
    """Lexicographic DFS over size-k subsets whose Sigma avoids one fixed target."""

    def __init__(self, group: GroupSpec, target: int, k: int,
                 budget: SearchBudget | None = None):
        if not 0 <= target < group.order:
            raise ValueError(f"target {target} out of range")
        self.group = group
        self.target = target
        self.k = k
        self.budget = budget or SearchBudget()
        root_allowed = nonzero_mask(group) & ~(1 << target)
        self.path: list[int] = []
        self.cursor: list[int] = [0]
        self.sigs: list[int] = [0]
        self.negs: list[int] = [0]
        self.allowed: list[int] = [root_allowed]
        self.stats = SearchStats()
        self.done = False

    def state(self) -> dict:
        return {
            "engine": ENGINE_VERSION,
            "kind": "avoiding",
            "group": self.group.spec_string,
            "target": self.target,
            "k": self.k,
            "path": list(self.path),
            "cursor": list(self.cursor),
            "nodes": self.stats.nodes,
            "emitted": self.stats.emitted,
            "done": self.done,
        }

    @classmethod
    def from_state(cls, group: GroupSpec, state: dict,
                   budget: SearchBudget | None = None) -> "AvoidingEnumerator":
        if state.get("engine") != ENGINE_VERSION:
            raise CheckpointMismatch(
                f"checkpoint engine {state.get('engine')!r} != {ENGINE_VERSION!r}")
        if state.get("kind") != "avoiding":
            raise CheckpointMismatch(f"checkpoint kind {state.get('kind')!r} != 'avoiding'")
        if state.get("group") != group.spec_string:
            raise CheckpointMismatch(
                f"checkpoint group {state.get('group')!r} != {group.spec_string!r}")
        self = cls(group, int(state["target"]), int(state["k"]), budget)
        self.path = [int(x) for x in state["path"]]
        self.cursor = [int(x) for x in state["cursor"]]
        if len(self.cursor) != len(self.path) + 1:
            raise CheckpointMismatch("corrupt checkpoint: cursor/path length mismatch")
        translate = group.translate_bits
        neg_table = group.neg_table()
        t = self.target
        sigs, negs, allowed = [0], [0], [self.allowed[0]]
        for x in self.path:
            sig = sigs[-1] | translate(sigs[-1] | 1, x)
            ng = negs[-1] | translate(negs[-1] | 1, neg_table[x])
            sigs.append(sig)
            negs.append(ng)
            allowed.append(allowed[-1] & (-1 << (x + 1)) & ~translate(ng, t))
        self.sigs, self.negs, self.allowed = sigs, negs, allowed
        self.stats.nodes = int(state.get("nodes", 0))
        self.stats.emitted = int(state.get("emitted", 0))
        self.done = bool(state.get("done", False))
        return self

    def run(self) -> Iterator[tuple[tuple[int, ...], int]]:
        if self.done:
            return
        g = self.group
        translate = g.translate_bits
        neg_table = g.neg_table()
        t = self.target
        k = self.k
        path, cursor = self.path, self.cursor
        sigs, negs, allowed = self.sigs, self.negs, self.allowed
        stats = self.stats
        budget = self.budget
        deadline = budget.deadline()
        nodes = stats.nodes
        stop_at = None if budget.max_nodes is None else nodes + budget.max_nodes
        while True:
            depth = len(path)
            if depth == k:
                # step past the leaf before yielding it (see SizedEnumerator)
                leaf = tuple(path)
                path.pop(); cursor.pop(); sig = sigs.pop(); negs.pop(); allowed.pop()
                stats.emitted += 1
                stats.nodes = nodes
                yield leaf, sig
                continue
            m = allowed[depth] & (-1 << cursor[depth])
            if m == 0 or m.bit_count() < k - depth:
                if depth == 0:
                    self.done = True
                    stats.nodes = nodes
                    return
                path.pop(); cursor.pop(); sigs.pop(); negs.pop(); allowed.pop()
                continue
            low = m & -m
            c = low.bit_length() - 1
            nodes += 1
            if (stop_at is not None and nodes >= stop_at) or (
                    deadline is not None and nodes & _CHECK_MASK == 0
                    and time.monotonic() > deadline):
                stats.nodes = nodes
                raise EnumerationPaused(self.state())
            cursor[depth] = c + 1
            sig = sigs[depth]
            new_sig = sig | translate(sig | 1, c)
            ng = negs[depth]
            new_neg = ng | translate(ng | 1, neg_table[c])
            path.append(c)
            cursor.append(c + 1)
            sigs.append(new_sig)
            negs.append(new_neg)
            allowed.append(m & (-1 << (c + 1)) & ~translate(new_neg, t))


@dataclass
class MaxSearchResult:
    size: int
    witness: tuple[int, ...] | None
    nodes: int
    complete: bool


def max_avoiding(group: GroupSpec, target: int, floor: int = 0,
                 budget: SearchBudget | None = None,
                 use_prune: bool = True) -> MaxSearchResult:
    """Largest subset of G \\ {0} whose Sigma avoids target; only sets larger
    than floor are reported. First maximum found is the lexicographic least.

    use_prune=False disables the feasibility bound (slow path for regression
    tests); the candidate filtering itself is exact, not a heuristic.
    """
    budget = budget or SearchBudget()
    translate = group.translate_bits
    neg_table = group.neg_table()
    t = target
    root_allowed = nonzero_mask(group) & ~(1 << t)
    path: list[int] = []
    cursor = [0]
    sigs = [0]
    negs = [0]
    allowed = [root_allowed]
    best_size = floor
    best: tuple[int, ...] | None = None
    nodes = 0
    deadline = budget.deadline()
    while True:
        depth = len(path)
        m = allowed[depth] & (-1 << cursor[depth])
        if m == 0 or (use_prune and depth + m.bit_count() <= best_size):
            if depth == 0:
                return MaxSearchResult(best_size, best, nodes, True)
            path.pop(); cursor.pop(); sigs.pop(); negs.pop(); allowed.pop()
            continue
        low = m & -m
        c = low.bit_length() - 1
        nodes += 1
        if (budget.max_nodes is not None and nodes >= budget.max_nodes) or (
                deadline is not None and nodes & _CHECK_MASK == 0
                and time.monotonic() > deadline):
            return MaxSearchResult(best_size, best, nodes, False)
        cursor[depth] = c + 1
        sig = sigs[depth]
        new_sig = sig | translate(sig | 1, c)
        ng = negs[depth]
        new_neg = ng | translate(ng | 1, neg_table[c])
        path.append(c)
        cursor.append(c + 1)
        sigs.append(new_sig)
        negs.append(new_neg)
        allowed.append(m & (-1 << (c + 1)) & ~translate(new_neg, t))
        if len(path) > best_size:
            best_size = len(path)
            best = tuple(path)


def brute_force_max_nonspanning(group: GroupSpec) -> tuple[int, tuple[int, ...]]:
    """Reference oracle: walk every subset of G \\ {0} with an incremental DFS
    and return (max size, lexicographically least witness of that size)."""
    order = group.order
    full = group.full_mask
    translate = group.translate_bits
    best_size, best = 0, ()
    path: list[int] = []
    sigs = [0]

    def rec(start: int) -> None:
        nonlocal best_size, best
        sig = sigs[-1]
        if sig != full and len(path) > best_size:
            best_size, best = len(path), tuple(path)
        for c in range(start, order):
            new_sig = sig | translate(sig | 1, c)
            path.append(c)
            sigs.append(new_sig)
            rec(c + 1)
            path.pop()
            sigs.pop()

    rec(1)
    return best_size, best


# -- parallel work units for extended enumeration ------------------------------


def subtree_state(group: GroupSpec, target: int, k: int, first: int) -> dict:
    """Engine state restricted to the subtree rooted at a forced first element."""
    return {
        "engine": ENGINE_VERSION,
        "kind": "avoiding",
        "group": group.spec_string,
        "target": target,
        "k": k,
        "path": [first],
        "cursor": [group.order, first + 1],
        "nodes": 0,
        "emitted": 0,
        "done": False,
    }


def run_work_unit(orders: tuple[int, ...], target: int, k: int,
                  first: int) -> tuple[list[int], int]:
    """Enumerate the (target, first) subtree to completion; returns
    (bitmasks of avoiding size-k sets in lex order, node count).
    Module-level and picklable so process pools can run it."""
    group = _worker_group(orders)
    root = nonzero_mask(group) & ~(1 << target)
    if not (root >> first) & 1:
        return [], 0
    eng = AvoidingEnumerator.from_state(group, subtree_state(group, target, k, first))
    out = []
    for indices, _sig in eng.run():
        mask = 0
        for i in indices:
            mask |= 1 << i
        out.append(mask)
    return out, eng.stats.nodes


_worker_groups: dict[tuple[int, ...], GroupSpec] = {}


def _worker_group(orders: tuple[int, ...]) -> GroupSpec:
    g = _worker_groups.get(orders)
    if g is None:
        g = make_group(orders)
        _worker_groups[orders] = g
    return g


def candidate_count(group: GroupSpec, k: int) -> int:
    return comb(group.order - 1, k)
