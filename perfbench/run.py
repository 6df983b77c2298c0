#!/usr/bin/env python3
"""SLUGGER benchmark: one workload, one closed loop, one JSON line.

    python3 perfbench/run.py --workload merge_sparse --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
(no install needed). One caller in one process runs cycles of
summarize / query / sweg / query (``workloads.py``) while a whole cycle
still fits in ``--seconds``, then query chunks until the time is up,
checking every output:

- every SLUGGER summary decodes (``decode_pd``) to exactly the input;
- every repeat's summary hash equals the first one's;
- the Spark engine's one-round summary equals the local engine's;
- every ``neighbors(v)`` equals the input adjacency of v, and every BFS
  equals a BFS over the input;
- every SWEG summary decodes to exactly the input.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, reports the per-layer metrics of the traced
ones (``layers.py``) plus ``trace.overhead_s`` (traced minus untraced
``slugger()`` time), and writes the spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``. Everything a run writes
stays under the checkout (``.perfbench_tmp``, ``.perfbench_out``).
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment() -> None:
    """Import the program from the checkout and keep every file the run
    writes (Python and JVM temp files, Spark scratch) inside it. Spark's
    Python workers inherit PYTHONPATH, so they can import ``repro`` too."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = None
    # every JVM Spark launches: temp files under TMP, no /tmp/hsperfdata_*
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={TMP}"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    return bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     TMP, OUT)


if __name__ == "__main__":
    sys.exit(main())
