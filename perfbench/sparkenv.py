"""Local Spark for the benchmark: start, count jobs, stop.

Spark runs as ``local[N]`` with N <= the number of CPUs. Its scratch
space stays under the directory ``start`` is given (``run.py`` also
points the JVMs' temp directory there).
The Python workers Spark forks import ``repro`` from ``<checkout>/src``:
the JVM, and with it every worker, inherits ``PYTHONPATH`` from this
process, which ``run.py`` sets before the JVM starts.
"""
from __future__ import annotations

import os
import subprocess
from contextlib import contextmanager

from pyspark import SparkContext
from pyspark.sql import SparkSession

# One worker slot: a second one made sweg() slower on these inputs
# (3.7 s against 4.4 s at 600 nodes) and adds a process to every timing.
MAX_CORES = 1


def start(tmp_dir: str) -> SparkSession:
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    spark_tmp = os.path.join(tmp_dir, "spark")
    os.makedirs(spark_tmp, exist_ok=True)
    # an inherited PYSPARK_SUBMIT_ARGS (the test conftest sets one) would
    # override the master and driver memory chosen here
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", spark_tmp)
        .config("spark.sql.warehouse.dir", os.path.join(spark_tmp, "warehouse"))
        .config("spark.default.parallelism", str(cores))
        .config("spark.sql.shuffle.partitions", str(cores))
        # fixed plans: adaptive re-planning adds per-query latency and
        # makes job and stage counts depend on run-time statistics
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


@contextmanager
def job_group(spark: SparkSession, name: str):
    """Run the body under a Spark job group (counted by ``job_counts``)."""
    spark.sparkContext.setJobGroup(name, name)
    try:
        yield
    finally:
        spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)


def job_counts(spark: SparkSession, name: str) -> dict[str, int]:
    """Jobs, stages, tasks and failed tasks of one job group."""
    tracker = spark.sparkContext.statusTracker()
    jobs = stages = tasks = failed = 0
    for jid in tracker.getJobIdsForGroup(name):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        jobs += 1
        for sid in info.stageIds:
            st = tracker.getStageInfo(sid)
            if st is None:
                continue
            stages += 1
            tasks += st.numTasks
            failed += st.numFailedTasks
    return {"jobs": jobs, "stages": stages, "tasks": tasks, "failed_tasks": failed}


def stop(spark: SparkSession) -> None:
    """Stop Spark and wait until the JVM (and its Python workers) exit."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
