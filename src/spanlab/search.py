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

The avoiding engines keep one kill mask per depth, K = t - (Sigma u {0}):
the elements that would put t into Sigma. It starts at {t}; choosing c
adds K - c, one translate per node, and the child's candidates are the
parent's above c minus K. Sigma itself is never formed on the way down;
the enumerator computes it at each leaf it yields.

Given symmetries (automorphisms s with s(t) = t), the enumerator cuts the
node adding c to the prefix P when some s puts the least element of
s(P) xor P (at most c, as |s(P)| = |P|) in s(P), as then s(A) <lex A for
every completion A of P. Under the unit scalings fixing t, the first member
of a unit orbit that the unpruned DFS yields is its lex-least t-avoiding
member M; every s(M) avoids t too, so M <=lex s(M) and M is never cut:
orbit-deduplicated records keep their bytes and order. All s(P) share one
int, a lane of |G| + 1 bits per s with a guard bit on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator

from .groups import GroupSpec, automorphism_generators, make_group
from .sums import subset_sums_bits

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


def _check_state(state: dict, kind: str, group: GroupSpec) -> None:
    for key, want in (("engine", ENGINE_VERSION), ("kind", kind),
                      ("group", group.spec_string)):
        if state.get(key) != want:
            raise CheckpointMismatch(f"checkpoint {key} {state.get(key)!r} != {want!r}")


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
        _check_state(state, "sized", group)
        self = cls(group, int(state["k"]), budget)
        self.path = [int(x) for x in state["path"]]
        self.cursor = [int(x) for x in state["cursor"]]
        path, cursor, below = self.path, self.cursor, [0, *self.path]
        # 0 < path ascending; path[d] (path[-1] at the end) < cursor[d] <= last start
        if (len(cursor) != len(path) + 1 or len(path) > self.k
                or any(a >= b for a, b in zip(below, path))
                or any(not x < c <= group.order - self.k + d + 1
                       for d, (x, c) in enumerate(zip(path + below[-1:], cursor)))):
            raise CheckpointMismatch(f"corrupt checkpoint: path {path}, cursor "
                                     f"{cursor} is no size-{self.k} search position")
        translate = group.translate_bits
        sigs = [0]
        for x in path:
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
    """Lexicographic DFS over size-k subsets whose Sigma avoids one fixed
    target, cut by symmetries fixing it if given (see the module docstring)."""

    def __init__(self, group: GroupSpec, target: int, k: int,
                 budget: SearchBudget | None = None,
                 symmetries: tuple[tuple[int, ...], ...] = ()):
        if not 0 <= target < group.order:
            raise ValueError(f"target {target} out of range")
        if any(s[target] != target for s in symmetries):
            raise ValueError(f"a symmetry moves the target {target}")
        self.group = group
        self.target = target
        self.k = k
        self.budget = budget or SearchBudget()
        self.path: list[int] = []
        self.cursor: list[int] = [0]
        self.kills: list[int] = [1 << target]
        self.allowed: list[int] = [nonzero_mask(group) & ~(1 << target)]
        self.symmetries = symmetries
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
                   budget: SearchBudget | None = None,
                   symmetries: tuple[tuple[int, ...], ...] = ()) -> "AvoidingEnumerator":
        _check_state(state, "avoiding", group)
        self = cls(group, int(state["target"]), int(state["k"]), budget, symmetries)
        self.path = [int(x) for x in state["path"]]
        self.cursor = [int(x) for x in state["cursor"]]
        if len(self.cursor) != len(self.path) + 1 or len(self.path) > self.k:
            raise CheckpointMismatch("corrupt checkpoint: cursor/path length mismatch")
        translate = group.translate_bits
        neg_table = group.neg_table()
        kills, allowed = self.kills, self.allowed
        for x in self.path:
            # off the candidate mask (not ascending, 0, t, or killed) the
            # run would yield sets whose sums hit the target
            if not (0 < x < group.order and allowed[-1] >> x & 1):
                raise CheckpointMismatch(
                    f"corrupt checkpoint: path {self.path} is not an avoiding "
                    f"prefix for target {self.target}")
            kill = kills[-1] | translate(kills[-1], neg_table[x])
            kills.append(kill)
            allowed.append(allowed[-1] & (-1 << (x + 1)) & ~kill)
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
        k = self.k
        path, cursor, kills, allowed = self.path, self.cursor, self.kills, self.allowed
        stats = self.stats
        budget = self.budget
        deadline = budget.deadline()
        nodes = stats.nodes
        stop_at = None if budget.max_nodes is None else nodes + budget.max_nodes
        syms = self.symmetries
        if syms:
            # lane j of imgs[d] holds s_j(path[:d]), of pres[d] path[:d] and
            # the guard bit, so lanes never borrow from each other
            w = g.order + 1
            rep = sum(1 << (j * w) for j in range(len(syms)))
            image = [sum(1 << (j * w + s[c]) for j, s in enumerate(syms))
                     for c in range(g.order)]
            imgs, pres = [0] * (k + 1), [rep << g.order] * (k + 1)
            for d, x in enumerate(path):
                imgs[d + 1] = imgs[d] | image[x]
                pres[d + 1] = pres[d] | rep << x
        while True:
            depth = len(path)
            if depth == k:
                # step past the leaf before yielding it (see SizedEnumerator)
                leaf = tuple(path)
                path.pop(); cursor.pop(); kills.pop(); allowed.pop()
                stats.emitted += 1
                stats.nodes = nodes
                yield leaf, subset_sums_bits(g, leaf)
                continue
            m = allowed[depth] & (-1 << cursor[depth])
            if m == 0 or m.bit_count() < k - depth:
                if depth == 0:
                    self.done = True
                    stats.nodes = nodes
                    return
                path.pop(); cursor.pop(); kills.pop(); allowed.pop()
                continue
            c = (m & -m).bit_length() - 1
            nodes += 1
            if (stop_at is not None and nodes >= stop_at) or (
                    deadline is not None and nodes & _CHECK_MASK == 0
                    and time.monotonic() > deadline):
                stats.nodes = nodes
                raise EnumerationPaused(self.state())
            cursor[depth] = c + 1
            if syms:
                img = imgs[depth] | image[c]
                pre = pres[depth] | rep << c
                # per lane: the lowest bit of s(P) ^ P, else the guard
                x = img ^ pre
                if x & ~(x - rep) & img:
                    continue
                imgs[depth + 1], pres[depth + 1] = img, pre
            kill = kills[depth]
            kill |= translate(kill, neg_table[c])
            path.append(c)
            cursor.append(c + 1)
            kills.append(kill)
            allowed.append(m & (-1 << (c + 1)) & ~kill)


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
    path: list[int] = []
    cursor = [0]
    kills = [1 << target]
    allowed = [nonzero_mask(group) & ~(1 << target)]
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
            path.pop(); cursor.pop(); kills.pop(); allowed.pop()
            continue
        c = (m & -m).bit_length() - 1
        nodes += 1
        if (budget.max_nodes is not None and nodes >= budget.max_nodes) or (
                deadline is not None and nodes & _CHECK_MASK == 0
                and time.monotonic() > deadline):
            return MaxSearchResult(best_size, best, nodes, False)
        cursor[depth] = c + 1
        kill = kills[depth]
        kill |= translate(kill, neg_table[c])
        path.append(c)
        cursor.append(c + 1)
        kills.append(kill)
        allowed.append(m & (-1 << (c + 1)) & ~kill)
        if depth + 1 > best_size:
            best_size = depth + 1
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


def run_work_unit(orders: tuple[int, ...], target: int, k: int, first: int,
                  symmetries: tuple[tuple[int, ...], ...] = ()) -> tuple[list[int], int]:
    """Enumerate the (target, first) subtree to completion; returns
    (bitmasks of avoiding size-k sets in lex order, node count).
    Module-level and picklable so process pools can run it."""
    group = _worker_group(orders)
    root = nonzero_mask(group) & ~(1 << target)
    if not (root >> first) & 1:
        return [], 0
    eng = AvoidingEnumerator.from_state(
        group, subtree_state(group, target, k, first), symmetries=symmetries)
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
