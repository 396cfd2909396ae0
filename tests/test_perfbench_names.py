"""The benchmark finds the spanlab functions it wraps by name on every run.

perfbench/spans.py lists them; a rename in spanlab that it misses would
fail every benchmark invocation, so resolve each one here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import spanlab.cli  # noqa: F401  (spans.py looks modules up in sys.modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = spans.SPANNED + spans.GENERATORS + spans.COUNTED + spans.FIRST_WORK
    assert len(names) > 20
    for module, qualname in names:
        *_, target = spans._resolve(module, qualname)
        assert callable(target), (module, qualname)
