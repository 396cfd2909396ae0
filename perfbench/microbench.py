"""Kernel microbench: translate_bits and subset_sums_bits ns/op at the four
ROADMAP shapes, canonical_bits_under_units us/call on Z55.

Inputs come from the seed: for translate_bits, subsets of density 1/2 and
nonzero shifts; for subset_sums_bits, zero-free sets of size cr(G) - 1
(the extremal size the engines work at); for canonical_bits_under_units,
13-subsets of Z55 (the extremal size there). Each figure is the median,
over REPEATS passes, of the time per call through the kernel minus the
time per call through a no-op on the same inputs, so the calling loop is
not counted.
"""

from __future__ import annotations

import random
import statistics
import time

SHAPES = {
    "Z51": (51,),
    "Z7xZ7": (7, 7),
    "Z3xZ3xZ3": (3, 3, 3),
    "Z2xZ2xZ2xZ2xZ2": (2, 2, 2, 2, 2),
}
REPEATS = 15
TRANSLATE_OPS = 3_000
SUBSET_SUM_OPS = 300
CANONICAL_OPS = 60


def _noop(*args) -> None:
    return None


def _time_per_call(fn, inputs) -> float:
    t0 = time.perf_counter()
    for args in inputs:
        fn(*args)
    return (time.perf_counter() - t0) / len(inputs)


def kernel_metrics(seed: int) -> dict[str, float]:
    from spanlab.critical import critical_number_formula
    from spanlab.groups import make_group
    from spanlab.sums import subset_sums_bits

    rng = random.Random(seed)
    cases = []  # (metric, fn, inputs, unit scale)
    for name, orders in SHAPES.items():
        g = make_group(orders)
        n = g.order
        shifts = [(rng.getrandbits(n), rng.randrange(1, n))
                  for _ in range(TRANSLATE_OPS)]
        cases.append((f"groups.translate_bits.ns_per_op.{name}",
                      g.translate_bits, shifts, 1e9))
        k = critical_number_formula(g) - 1
        sets = [(g, rng.sample(range(1, n), k)) for _ in range(SUBSET_SUM_OPS)]
        cases.append((f"sums.subset_sums_bits.ns_per_op.{name}",
                      subset_sums_bits, sets, 1e9))
    g = make_group((55,))
    g.units()
    masks = [(sum(1 << i for i in rng.sample(range(1, 55), 13)),)
             for _ in range(CANONICAL_OPS)]
    cases.append(("groups.canonical_bits_under_units.us_per_call",
                  g.canonical_bits_under_units, masks, 1e6))
    # Round-robin passes, so every figure samples the whole measuring window
    # and a slow spell of the host does not land on one kernel alone. Each
    # kernel pass is paired with a no-op pass right after it, and the pair's
    # difference is the kernel's own time.
    per_call: dict[str, list[float]] = {metric: [] for metric, *_ in cases}
    for _ in range(REPEATS):
        for metric, fn, inputs, scale in cases:
            kernel = _time_per_call(fn, inputs)
            loop = _time_per_call(_noop, inputs)
            per_call[metric].append((kernel - loop) * scale)
    return {metric: statistics.median(v) for metric, v in per_call.items()}
