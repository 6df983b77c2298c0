"""Group dispatch shared by SLUGGER and SWEG (DESIGN.md §3.2).

Both summarizers split every round into candidate sets and run a greedy
merge inside each set that holds at least two members; the driver keeps
single-member sets to itself. A set's inputs travel as int64 worker rows
``(gid, kind, x, y, v)`` whose ``kind`` codes belong to the summarizer
(:mod:`repro.core.groupmerge` ``ROOT..RADJ``, :mod:`repro.baselines.sweg`
``SUP..CNT``; all non-negative). :func:`run_bucket` orders a batch by
(gid, kind, row) once and calls the per-group function on each group's
rows as plain-list slices; the function returns ``(kind, x, y, v)``
output rows, merges as kind ``MERGE``.

The local engine runs the whole batch in-process. The Spark engine runs
the same batch function under ``groupBy("bucket").applyInPandas`` with
``bucket = gid % defaultParallelism``; the ``row`` column carries the
driver's row order through the shuffle, so both engines hand every
group the same lists and, groups being independent, give the same
result.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

ENGINES = ("local", "spark")
MERGE = -1  # output kind of a merge row; input kinds are >= 0
IN_SCHEMA = "bucket long, row long, gid long, kind long, x long, y long, v long"
OUT_SCHEMA = "kind long, x long, y long, v long"


def check_engine(engine: str, spark: SparkSession | None) -> None:
    """Reject an unknown engine, or the Spark engine without a session."""
    if engine not in ENGINES:
        raise ValueError(f"engine={engine!r} is not one of {ENGINES}")
    if engine == "spark" and spark is None:
        raise ValueError("engine='spark' needs a SparkSession")


def run_bucket(rows: pd.DataFrame, fn) -> pd.DataFrame:
    """Run ``fn(gid, kind, x, y, v)`` on every group of a batch of worker
    rows (``IN_SCHEMA`` columns, ``bucket`` optional; any row order).
    Returns the output rows of all groups (``OUT_SCHEMA``), in gid order."""
    order = np.lexsort((rows["row"].to_numpy(), rows["kind"].to_numpy(), rows["gid"].to_numpy()))
    gid, kind, x, y, v = (rows[c].to_numpy()[order] for c in ("gid", "kind", "x", "y", "v"))
    cuts = np.flatnonzero(np.diff(gid, prepend=-1, append=-1)).tolist()  # group starts + end
    gid, kind, x, y, v = (a.tolist() for a in (gid, kind, x, y, v))
    out: list[tuple[int, int, int, int]] = []
    for s, e in zip(cuts[:-1], cuts[1:]):
        out.extend(fn(gid[s], kind[s:e], x[s:e], y[s:e], v[s:e]))
    return pd.DataFrame(out, columns=["kind", "x", "y", "v"], dtype=np.int64)


def run(rows: list[tuple[int, int, int, int, int]], fn,
        engine: str, spark: SparkSession | None) -> np.ndarray:
    """Run ``fn`` on every group of ``rows`` (``(gid, kind, x, y, v)`` in
    the driver's order) on the chosen engine (see :func:`check_engine`).
    Returns the output rows as an ``(n, 4)`` int64 array."""
    tall = pd.DataFrame(np.array(rows, dtype=np.int64).reshape(-1, 5),
                        columns=["gid", "kind", "x", "y", "v"])
    tall.insert(0, "row", np.arange(len(tall), dtype=np.int64))
    if engine == "spark":
        tall.insert(0, "bucket", tall["gid"] % spark.sparkContext.defaultParallelism)
        out = (
            spark.createDataFrame(tall, schema=IN_SCHEMA)
            .groupBy("bucket")
            .applyInPandas(lambda pdf: run_bucket(pdf, fn), schema=OUT_SCHEMA)
            .toPandas()
        )
    else:
        out = run_bucket(tall, fn)
    return out.to_numpy(dtype=np.int64).reshape(-1, 4)
