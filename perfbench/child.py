"""One spanlab CLI invocation, instrumented from outside.

    python3 perfbench/child.py <dir> <plain|probe|trace> <spanlab args...>

Calls the `spanlab` console entry point (spanlab.cli:main) with the given
arguments. Every mode writes <dir>/first-<pid> at the first unit of work
(see spans.FIRST_WORK); `probe` exits right there. `plain` and `trace`
write <dir>/result.json at the end: exit code, CPU and peak RSS of this
process and of its reaped workers, bytes written, and with `trace` the
spans and counters. Pool workers of a traced run leave their spans in
<dir>/worker-<pid>.jsonl.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import spans


def _bytes_written() -> int:
    with open("/proc/self/io") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key == "wchar":
                return int(value)
    raise RuntimeError("/proc/self/io has no wchar line")


def main() -> int:
    out_dir = Path(sys.argv[1])
    mode = sys.argv[2]
    argv = sys.argv[3:]
    import spanlab.cli

    spans.install_first_work_marker(out_dir, probe=mode == "probe")
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer(out_dir)
        tracer.install()
    code = spanlab.cli.main(argv)
    sys.stdout.flush()
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "code": code,
        "cpu_s": me.ru_utime + me.ru_stime,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "maxrss_kb": me.ru_maxrss,
        "children_maxrss_kb": kids.ru_maxrss,
        "bytes_written": _bytes_written(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    (out_dir / "result.json").write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
