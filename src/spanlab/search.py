"""Depth-first search engines over subsets of a group, bitset-backed.

Two engines walk the size-k subsets of G \\ {0} in lexicographic order,
each by an explicit-stack DFS whose position (the path and a cursor per
depth) is its checkpoint; they share that position, state() and the
validated from_state(), and each keeps its own loop. Both hold their
per-depth masks doubled in the group's padded layout
(GroupSpec.padded_layout), where translating a mask by -c is one right
shift by c's position, masked to the box: one shift per node. Path and
cursor hold element indices.

* SizedEnumerator yields the sets whose subset sums miss some element.
  It keeps Sigma per depth; choosing c adds (Sigma u {0}) + c, the shift
  by -c's position plus c itself, and a prefix that then spans is cut.
  Only a pushed child ors the added sums, doubled, into Sigma;
* AvoidingEnumerator yields the sets whose Sigma avoids a fixed target t.
  It keeps one kill mask per depth, K = t - (Sigma u {0}): the elements
  that would put t into Sigma. It starts at {t}; choosing c adds K - c,
  and the child's candidates are the parent's above c minus K, so a
  candidate that would hit t is never tried. Sigma itself is never
  formed. The shift minus the parent's candidates gives the child's, and
  a child with too few to reach size k is counted and not pushed; only a
  pushed child ors its shift, doubled, into K. run_split walks the root
  as run() does and hands each pushed root node's subtree to a pool as
  one run_work_unit.

The sized walk stays a loop of its own: run on the kill-mask loop it
measured 30-45% slower per node. max_avoiding is the avoiding loop started
at k = floor + 1 that, at each leaf, keeps the witness and raises k by
one instead of stepping back: branch and bound for the largest avoiding
set, whose first maximum found is the lexicographically least.

Given symmetries (automorphisms s with s(t) = t), the avoiding loop cuts
the node adding c to the prefix P when some s puts the least element of
s(P) xor P (at most c, as |s(P)| = |P|) in s(P), as then s(A) <lex A for
every completion A of P: the lex-leader cut of Crawford, Ginsberg, Luks &
Roy (KR 1996). A set M with M <=lex s(M) for every s is never cut.
target_symmetries(g, t) is the set both users pass:

* max_avoiding, on every spec: every s(M) of the lex-least maximum
  t-avoiding set M is a maximum too, so M is reached and each target's
  size and witness stay those of the unpruned walk;
* the orbit-deduplicated extremal enumeration (single-factor specs, the
  unit scalings fixing t): the first member of a unit orbit that the
  unpruned DFS yields is its lex-least t-avoiding member M, so records
  keep their bytes and order.

All s(P) share one int, a lane of |G| + 1 bits per s with a guard bit on
top.
"""

from __future__ import annotations

import math
import os
import time
from typing import Iterator, NamedTuple

from .groups import GroupSpec, automorphism_generators, cached_group

ENGINE_VERSION = "search-1"

_CLOCK_BITS = 1 << 18  # mask bits walked between two reads of the clock


class EnumerationPaused(Exception):
    """Raised by an engine when its budget runs out; carries resumable state."""

    def __init__(self, state: dict):
        super().__init__("search budget exhausted")
        self.state = state


class CheckpointMismatch(ValueError):
    pass


def check_fields(state: dict, where: str, **want) -> None:
    """Raise CheckpointMismatch at the first field of `want` whose value in
    the checkpoint `state` differs, naming the value found."""
    for key, value in want.items():
        if state.get(key) != value:
            raise CheckpointMismatch(
                f"{where} {key} {state.get(key)!r}, this run needs {value!r}")


def check_no_extra_fields(state: dict, where: str, fields) -> None:
    """Raise CheckpointMismatch naming the first field of `state` outside `fields`."""
    extra = sorted(set(state) - set(fields))
    if extra:
        raise CheckpointMismatch(
            f"{where} field {extra[0]!r}, which this run does not write")


class SearchBudget(NamedTuple):
    """The allowance of one search call: nodes walked and seconds spent,
    each infinite unless set. An engine pauses once it has walked
    max_nodes nodes, or once it reads the clock max_seconds after its
    run() started; before its first node if either is spent already
    (<= 0). It reads the clock every _CLOCK_BITS // (the width of the
    group's padded box) nodes, and at least every node: every 4,096 nodes
    on Z64, every node on Z1000000, whatever the budget."""

    max_nodes: float = math.inf
    max_seconds: float = math.inf

    def remaining(self, nodes: int, since: float) -> SearchBudget:
        """This budget less `nodes` nodes and the seconds since the
        time.monotonic() stamp `since`: one allowance shared by a run's
        successive engines."""
        return SearchBudget(self.max_nodes - nodes,
                            self.max_seconds - (time.monotonic() - since))


class SearchStats:
    __slots__ = ("nodes", "emitted")

    def __init__(self):
        self.nodes = 0
        self.emitted = 0


def target_representatives(g: GroupSpec, reduce_orbits: bool) -> list[int]:
    """Targets whose avoidance searches jointly cover all non-spanning sets.

    With orbit reduction, one target per orbit of the automorphisms from
    groups.automorphism_generators: Sigma(phi A) = phi Sigma(A), so A
    avoids t exactly when phi A avoids phi t, and a set missing t is
    carried to one missing t's representative. The representative of an
    orbit is its least index; they are listed ascending with 0 last, which
    on a single-factor spec are the divisors d < n then 0, read off n. A
    witness found this way is canonical only up to those automorphisms.
    """
    if not reduce_orbits:
        return list(range(g.order))
    if g.is_cyclic_spec:  # the orbits of the units: one per divisor of n
        return [d for d in range(1, g.order) if g.order % d == 0] + [0]
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


def target_symmetries(g: GroupSpec, t: int) -> tuple[tuple[int, ...], ...]:
    """Automorphisms fixing t, as element permutations, that cut t's avoiding
    DFS (see the module docstring): on a single-factor spec every unit
    scaling u != 1 with u*t = t, otherwise the members of
    groups.automorphism_generators that fix t."""
    if not g.is_cyclic_spec:
        return tuple(s for s in automorphism_generators(g) if s[t] == t)
    n = g.order
    return tuple(tuple(u * x % n for x in range(n))
                 for u in g.units() if u != 1 and u * t % n == t)


# -- the engines ----------------------------------------------------------------


class _Engine:
    """A lexicographic DFS over size-k subsets of G \\ {0} and its checkpoint.

    The position is path (the elements chosen) and cursor (cursor[d], the
    least element depth d tries next; path[d] + 1 while that is chosen).
    A kind names its state fields and root cursor, keeps its own per-depth
    stacks, and pushes one element with _descend, which returns False for
    a child that no walk reaches: a spanning prefix (sized), or one off the
    candidate mask (avoiding). Both run() loops take their stop point
    from _start and _check: a run pauses before the first node it may not
    walk, so stats.nodes counts every node walked once across a pause. A
    run steps past each leaf before yielding it, so no position holds a
    full-length path; from_state refuses one, which would repeat its leaf.
    """

    kind = ""
    fields: tuple[str, ...] = ("k",)
    root = 0

    def __init__(self, group: GroupSpec, k: int, budget: SearchBudget = SearchBudget()):
        if not 0 < k < group.order:
            raise ValueError(f"subset size {k} out of range for {group.spec_string}")
        self.group = group
        self.k = k
        self.budget = budget
        self.path: list[int] = []
        self.cursor: list[int] = [self.root]
        self.stats = SearchStats()
        self.done = False

    def state(self) -> dict:
        return {
            "engine": ENGINE_VERSION,
            "kind": self.kind,
            "group": self.group.spec_string,
            **{f: getattr(self, f) for f in self.fields},
            "path": list(self.path),
            "cursor": list(self.cursor),
            "nodes": self.stats.nodes,
            "done": self.done,
        }

    @classmethod
    def from_state(cls, group: GroupSpec, state: dict,
                   budget: SearchBudget = SearchBudget(), *args):
        """Rebuild an engine at a state() position; the trailing arguments
        go to the constructor after budget (AvoidingEnumerator: symmetries).
        Raises CheckpointMismatch unless engine, kind and group match and
        the position passes the checks below; a cut of run() that _descend
        does not make is not replayed (a Z35 target-0 position under the
        lex-cut root 2 loads and walks no leaf), and nodes and done are
        taken as they stand."""
        check_fields(state, "checkpoint", engine=ENGINE_VERSION, kind=cls.kind,
                     group=group.spec_string)
        self = cls(group, *(int(state[f]) for f in cls.fields), budget, *args)
        path = [int(x) for x in state["path"]]
        cursor = [int(x) for x in state["cursor"]]
        below = [self.root - 1, *path]
        last = group.order - self.k + 1  # past the last start at depth 0
        # root <= path ascending; cursor[d] = path[d] + 1 below the top, and
        # path[d] (path[-1] at the top) < cursor[d] <= last + d; _descend
        # accepting every element
        if (len(cursor) != len(path) + 1 or len(path) >= self.k
                or any(a >= b for a, b in zip(below, path))
                or cursor[:-1] != [x + 1 for x in path]
                or any(not x < c <= last + d
                       for d, (x, c) in enumerate(zip(path + below[-1:], cursor)))
                or not all(self._descend(x) for x in path)):
            raise CheckpointMismatch(
                f"corrupt checkpoint: path {path}, cursor {cursor} is no "
                f"{self.kind} size-{self.k} search position")
        self.cursor = cursor
        self.stats.nodes = int(state["nodes"])
        self.done = bool(state["done"])
        return self

    def _start(self) -> int:
        """Fix this run's stop point: max_nodes past the nodes counted so far
        and max_seconds from now. Pauses at once if that allowance is
        already spent, else returns the count at which to _check next."""
        b = self.budget
        self._stop = self.stats.nodes + b.max_nodes
        self._deadline = time.monotonic() + b.max_seconds
        self._every = max(1, _CLOCK_BITS // self.group.padded_layout().box.bit_length())
        return self._check(self.stats.nodes)

    def _check(self, nodes: int) -> int:
        """Pause with `nodes` walked if the allowance is spent, else return
        the count at which to check again: the stop point, or sooner the
        next clock read, one interval (see SearchBudget) on. The run loops
        call this when their count reaches that value, before walking the
        next node."""
        if nodes >= self._stop or time.monotonic() >= self._deadline:
            self.stats.nodes = nodes
            raise EnumerationPaused(self.state())
        return min(nodes + self._every, self._stop)


class SizedEnumerator(_Engine):
    """Lexicographic DFS over size-k subsets of G \\ {0}, pruning any prefix
    that already spans. Yields the non-spanning leaves as index tuples.

    sigs[d] is Sigma(path[:d]) doubled in the group's padded layout, so
    (Sigma u {0}) + c is the doubled Sigma shifted right by -c's position,
    masked to the box, plus c itself. path and cursor hold element indices.
    """

    kind = "sized"
    root = 1

    def __init__(self, group: GroupSpec, k: int, budget: SearchBudget = SearchBudget()):
        super().__init__(group, k, budget)
        self.sigs: list[int] = [0]

    def _descend(self, x: int) -> bool:
        lay = self.group.padded_layout()
        sig = self.sigs[-1]
        added = ((sig >> lay.pad[self.group.neg(x)]) | 1 << lay.pad[x]) & lay.box
        self.path.append(x)
        self.sigs.append(sig | _doubled(added, lay.doublings))
        return (sig | added) & lay.box != lay.box

    def run(self) -> Iterator[tuple[int, ...]]:
        if self.done:
            return
        g = self.group
        order = g.order
        pad, _, box, doublings = g.padded_layout()
        down = [pad[x] for x in g.neg_table()]  # the shift that adds x
        k = self.k
        path, cursor, sigs = self.path, self.cursor, self.sigs
        stats = self.stats
        nodes = stats.nodes
        check_at = self._start()
        while True:
            depth = len(path)
            if depth == k:
                # step past the leaf before yielding it, so a state() taken
                # while suspended here resumes after this leaf
                leaf = tuple(path)
                path.pop(); cursor.pop(); sigs.pop()
                stats.nodes = nodes
                yield leaf
                continue
            c = cursor[depth]
            if c > order - (k - depth):
                if depth == 0:
                    self.done = True
                    stats.nodes = nodes
                    return
                path.pop(); cursor.pop(); sigs.pop()
                continue
            if nodes == check_at:
                check_at = self._check(nodes)
            nodes += 1
            cursor[depth] = c + 1
            sig = sigs[depth]
            added = ((sig >> down[c]) | 1 << pad[c]) & box  # (Sigma u {0}) + c
            if (sig | added) & box == box:
                continue
            for s in doublings:
                added |= added << s
            path.append(c)
            cursor.append(c + 1)
            sigs.append(sig | added)


class AvoidingEnumerator(_Engine):
    """Lexicographic DFS over size-k subsets whose Sigma avoids one fixed
    target, cut by symmetries fixing it if given (see the module docstring).
    Yields the leaves as index tuples.

    Its per-depth stacks are in the group's padded layout: kills[d] is
    depth d's kill mask doubled, allowed[d] its candidates, of which run()
    tries those from cursor[d] on. path and cursor hold element indices.
    """

    kind = "avoiding"
    fields = ("target", "k")

    def __init__(self, group: GroupSpec, target: int, k: int,
                 budget: SearchBudget = SearchBudget(),
                 symmetries: tuple[tuple[int, ...], ...] = ()):
        if not 0 <= target < group.order:
            raise ValueError(f"target {target} out of range")
        if any(s[target] != target for s in symmetries):
            raise ValueError(f"a symmetry moves the target {target}")
        super().__init__(group, k, budget)
        self.target = target
        self.symmetries = symmetries
        lay = group.padded_layout()
        self.kills: list[int] = [_doubled(1 << lay.pad[target], lay.doublings)]
        self.allowed: list[int] = [lay.box & ~(1 << lay.pad[0] | 1 << lay.pad[target])]
        self._grow = False  # set by max_avoiding only

    def _descend(self, x: int) -> bool:
        # off the candidate mask (not ascending, 0, t, or killed) the run would
        # yield sets whose sums hit the target
        lay = self.group.padded_layout()
        p = lay.pad[x]
        if not self.allowed[-1] >> p & 1:
            return False
        shifted = self.kills[-1] >> p
        self.path.append(x)
        self.kills.append(self.kills[-1] | _doubled(shifted & lay.box, lay.doublings))
        self.allowed.append(self.allowed[-1] & (-1 << (p + 1)) & ~shifted)
        return True

    def _remaining(self, depth: int) -> int:
        """Depth `depth`'s candidates from its cursor on (a cursor past the
        last element, as at depth k, leaves none)."""
        pad = self.group.padded_layout().pad
        return self.allowed[depth] & (-1 << pad[min(self.cursor[depth], self.group.order)])

    def run_split(self, submit) -> Iterator[tuple[int, ...]]:
        """run()'s walk from the root cursor, each root node's subtree walked
        by submit(run_work_unit, orders, target, k, f, symmetries), as with
        a concurrent.futures executor's submit. Every unit is submitted
        before the first leaf is read, for a root node f that run() would
        push: none for a dead child or one the lex-leader cut drops.

        Yields the leaves as index tuples in run()'s order and counts the
        nodes run() counts. While it yields a leaf it holds run()'s position
        after that leaf, so a state() taken there resumes past it; after a
        unit's leaves the position is the root, its cursor past that unit's
        node. It pauses only there: by _start, and by _check after each root
        node and its subtree. Pending units are cancelled when the walk stops.
        """
        if self.done:
            return
        g, k, syms = self.group, self.k, self.symmetries
        unpad = g.padded_layout().unpad
        kill, need = self.kills[0], k - 1
        rest = self._remaining(0)
        self._start()
        units = []
        while rest.bit_count() > need:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            f = unpad[p]
            # run()'s two cuts; at depth 0 the lane test is s(f) < f
            live = ((rest & ~(kill >> p)).bit_count() >= need
                    and not any(s[f] < f for s in syms))
            units.append((f, submit(run_work_unit, g.cyclic_orders, self.target,
                                    k, f, syms) if live else None))
        try:
            for f, unit in units:
                leaves, walked = unit.result() if unit else ([], 0)
                for leaf in leaves:
                    self.path, self.cursor = list(leaf[:-1]), [x + 1 for x in leaf]
                    yield leaf
                self.path, self.cursor = [], [f + 1]
                self.stats.nodes += 1 + walked
                self._check(self.stats.nodes)
        finally:
            for _, unit in units:
                if unit:
                    unit.cancel()
        self.done = True

    def run(self) -> Iterator[tuple[int, ...]]:
        if self.done:
            return
        g = self.group
        _, unpad, box, doublings = g.padded_layout()
        k = self.k
        path, cursor, kills, allowed = self.path, self.cursor, self.kills, self.allowed
        for d in range(len(cursor)):
            allowed[d] = self._remaining(d)
        stats = self.stats
        nodes = stats.nodes
        check_at = self._start()
        grow = self._grow
        syms = self.symmetries
        if syms:
            # lane j of imgs[d] holds s_j(path[:d]), of pres[d] path[:d] and
            # the guard bit, so lanes never borrow from each other
            w = g.order + 1
            rep = sum(1 << (j * w) for j in range(len(syms)))
            image = [sum(1 << (j * w + s[c]) for j, s in enumerate(syms))
                     for c in range(g.order)]
            # |G| + 1 deep: max_avoiding raises k at each leaf
            imgs, pres = [0] * (g.order + 1), [rep << g.order] * (g.order + 1)
            for d, x in enumerate(path):
                imgs[d + 1] = imgs[d] | image[x]
                pres[d + 1] = pres[d] | rep << x
        # rest and kill are allowed[depth] and kills[depth], rest less the
        # candidates tried since it was last stored
        depth = len(path)
        rest, kill = allowed[depth], kills[depth]
        while True:
            if depth == k:
                leaf = tuple(path)
                if grow:
                    # max_avoiding: a witness of size k; now look for k + 1
                    k = self.k = k + 1
                else:
                    # step past the leaf before yielding it (see SizedEnumerator)
                    path.pop(); cursor.pop(); kills.pop(); allowed.pop()
                    depth -= 1
                    rest, kill = allowed[depth], kills[depth]
                stats.nodes = nodes
                yield leaf
                continue
            need = k - depth - 1  # the candidates a child needs
            if rest.bit_count() <= need:
                if depth == 0:
                    self.done = True
                    stats.nodes = nodes
                    return
                path.pop(); cursor.pop(); kills.pop(); allowed.pop()
                depth -= 1
                rest, kill = allowed[depth], kills[depth]
                continue
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            c = unpad[p]
            if nodes == check_at:
                check_at = self._check(nodes)
            nodes += 1
            cursor[depth] = c + 1
            # the kill mask translated by -c, past the box where it wrapped
            shifted = kill >> p
            child = rest & ~shifted
            if child.bit_count() < need:
                continue  # a dead child: walked, and popped at once
            if syms:
                img = imgs[depth] | image[c]
                pre = pres[depth] | rep << c
                # per lane: the lowest bit of s(P) ^ P, else the guard
                x = img ^ pre
                if x & ~(x - rep) & img:
                    continue
                imgs[depth + 1], pres[depth + 1] = img, pre
            shifted &= box
            for s in doublings:
                shifted |= shifted << s
            kill |= shifted
            allowed[depth] = rest
            path.append(c)
            cursor.append(c + 1)
            kills.append(kill)
            allowed.append(child)
            depth += 1
            rest = child


def _doubled(bits: int, doublings: tuple[int, ...]) -> int:
    """A padded-layout mask with every coordinate doubled."""
    for s in doublings:
        bits |= bits << s
    return bits


class MaxSearchResult(NamedTuple):
    size: int
    witness: tuple[int, ...] | None
    nodes: int
    complete: bool


def max_avoiding(group: GroupSpec, target: int, floor: int = 0,
                 budget: SearchBudget = SearchBudget(),
                 symmetries: tuple[tuple[int, ...], ...] = ()) -> MaxSearchResult:
    """Largest subset of G \\ {0} whose Sigma avoids target; only sets larger
    than floor are reported. First maximum found is the lexicographic least.

    Branch and bound on the avoiding walk: from k = floor + 1, each leaf is
    a new witness and raises k by one, which cuts every node that cannot
    beat it. Symmetries fixing the target (as from target_symmetries) cut
    the walk further and keep size and witness: each s(M) of the lex-least
    maximum M avoids the target too, so M <=lex s(M) and no prefix of M is
    cut.
    """
    if floor >= group.order - 1:  # no subset of G \ {0} is larger
        return MaxSearchResult(floor, None, 0, True)
    eng = AvoidingEnumerator(group, target, floor + 1, budget, symmetries)
    eng._grow = True
    witness = None
    try:
        for witness in eng.run():
            pass
    except EnumerationPaused:
        pass
    return MaxSearchResult(eng.k - 1, witness, eng.stats.nodes, eng.done)


# -- process pools and parallel work units for missed-target enumeration -------


def usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count ignores affinity)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool of max_workers, imported here so
    that a run that starts no pool never loads the pool machinery."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_work_unit(orders: tuple[int, ...], target: int, k: int, first: int,
                  symmetries: tuple[tuple[int, ...], ...] = ()
                  ) -> tuple[list[tuple[int, ...]], int]:
    """Enumerate the (target, first) subtree to completion; returns
    (the avoiding size-k sets as index tuples in lex order, node count).
    Module-level and picklable so process pools can run it."""
    group = cached_group(orders)
    last = group.order - k  # the last first element of a size-k set
    if not 0 < first <= last or first == target:
        return [], 0
    if k == 1:  # the root node {first} is the leaf
        return [(first,)], 0
    eng = AvoidingEnumerator(group, target, k, SearchBudget(), symmetries)
    eng._descend(first)
    eng.cursor = [last + 1, first + 1]  # the root past the last start
    return list(eng.run()), eng.stats.nodes

