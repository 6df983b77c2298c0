"""One benchmark run: set-up, the closed loop, checks, and the report.

Imported by ``run.py`` after it has put ``<checkout>/src`` on the path.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np

import layers
import sparkenv
from repro.baselines import sweg as sweg_mod
from repro.core import localenc
from repro.core import slugger as slugger_mod
from repro.graphs import generators as gen
from repro.model import algorithms, cost, decode, flat, neighbors
from tracer import Tracer, dump_spans
from workloads import Workload

ALG_SEED = 0  # algorithm seed of slugger()/sweg(); the workload seed only shapes the input
SETUP_REPEATS = 3
GATE_T = 1  # rounds of the Spark-vs-local engine comparison
QUERY_CHUNKS = 2  # query chunks after each slugger() and each sweg() call

perf = time.perf_counter


def summary_hash(summary) -> str:
    """SHA-256 of a HierSummary's canonical (sorted int64) tables."""
    h = hashlib.sha256(str(summary.n_sub).encode())
    for df, cols in (
        (summary.nodes, ["nid", "size"]),
        (summary.hedges, ["parent", "child"]),
        (summary.pedges, ["x", "y", "sign"]),
    ):
        h.update(df[cols].astype("int64").sort_values(cols).to_numpy().tobytes())
    return h.hexdigest()


def reference_bfs(adj: list[list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                dq.append(u)
    return dist


class Bench:
    """State of one run: input, references, samples and check counts."""

    def __init__(self, wl: Workload, seed: int, tmp_dir: Path):
        self.wl, self.seed = wl, seed
        self.tmp_dir = tmp_dir
        self.attempted = self.failed = 0
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("summarize_s", "sweg_s", "query_us", "bfs_s", "decode_s")
        }
        self.index = None
        self.ref_hash: str | None = None
        self.summary = None
        self.spark = None
        self.tracer: Tracer | None = None
        self.info: dict[str, float] = {}
        # traced runs: per-layer metrics of each traced cycle, all spans,
        # unresolved names, and slugger() times of plain and traced cycles
        self.layer_cycles: list[dict[str, float]] = []
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.t_plain: list[float] = []
        self.t_traced: list[float] = []

    # ---------------------------------------------------------------- checks

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: CHECK FAILED: {what}", file=sys.stderr)

    def raised(self, what: str) -> None:
        """Count an operation that raised as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc()

    def same_edges(self, df) -> bool:
        got = df.sort_values(["src", "dst"])
        return (len(got) == len(self.want_src)
                and np.array_equal(got["src"].to_numpy(np.int64), self.want_src)
                and np.array_equal(got["dst"].to_numpy(np.int64), self.want_dst))

    # ----------------------------------------------------------------- set-up

    def setup(self) -> float:
        """Input generation (repeated; the median counts), then the one-off
        Spark start and warm-up. Returns setup_s."""
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            self.edges = self.wl.make(self.seed)
            reps.append(perf() - t0)
        self.info["datasets.generate_s"] = median(reps)
        self.n = gen.n_nodes(self.edges)
        self.build_references()
        t0 = perf()
        self.spark = sparkenv.start(str(self.tmp_dir))
        self.warm_up()
        return median(reps) + (perf() - t0)

    def build_references(self) -> None:
        e = self.edges.sort_values(["src", "dst"])
        self.want_src = e["src"].to_numpy(np.int64)
        self.want_dst = e["dst"].to_numpy(np.int64)
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for s, d in zip(self.want_src.tolist(), self.want_dst.tolist()):
            adj[s].append(d)
            adj[d].append(s)
        self.adj = [sorted(a) for a in adj]
        stride = max(1, self.n // self.wl.bfs_sources)
        self.sources = list(range(self.seed % stride, self.n, stride))[: self.wl.bfs_sources]
        self.bfs_ref = [reference_bfs(self.adj, s) for s in self.sources]

    def warm_up(self) -> None:
        """The first Spark jobs of a process load and compile classes for
        seconds; run each Spark path once on a tiny graph so the timed loop
        starts warm."""
        tiny = gen.caveman_cliques(40, clique_size=5, p_rewire=0.1, seed=0)
        n = gen.n_nodes(tiny)
        sweg_mod.sweg(self.spark, tiny, n, T=1, seed=ALG_SEED)
        slugger_mod.slugger(tiny, n, T=1, seed=ALG_SEED, engine="spark", spark=self.spark)

    def engine_gate(self, trace: bool) -> None:
        """Spark engine vs local engine on the workload input (GATE_T rounds)."""
        local = slugger_mod.slugger(self.edges, self.n, T=GATE_T, seed=ALG_SEED)
        with sparkenv.job_group(self.spark, "engine_gate"):
            t0 = perf()
            remote = slugger_mod.slugger(self.edges, self.n, T=GATE_T, seed=ALG_SEED,
                                         engine="spark", spark=self.spark)
            self.info["spark.summarize_s"] = perf() - t0
        for k, v in sparkenv.job_counts(self.spark, "engine_gate").items():
            self.info[f"spark.{k}"] = v
        self.check(summary_hash(remote.summary) == summary_hash(local.summary),
                   "Spark engine summary differs from the local engine's")
        self.check(self.same_edges(decode.decode_pd(remote.summary)),
                   "Spark engine summary does not decode to the input")
        if trace:
            t0 = perf()
            got = decode.decode(self.spark, remote.summary).toPandas()
            self.info["decode.spark_s"] = perf() - t0
            self.check(self.same_edges(got), "Spark decode() differs from the input")

    # ------------------------------------------------------------ operations

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def summarize(self) -> float:
        t0 = perf()
        res = slugger_mod.slugger(self.edges, self.n, T=self.wl.T, seed=ALG_SEED)
        dt = perf() - t0
        self.summary = res.summary
        h = summary_hash(res.summary)
        if self.ref_hash is None:
            self.ref_hash = h
        self.check(h == self.ref_hash, "slugger() summary hash differs from the first repeat")
        return dt

    def sweg(self) -> float:
        t0 = perf()
        res = sweg_mod.sweg(self.spark, self.edges, self.n, T=self.wl.T, seed=ALG_SEED)
        dt = perf() - t0
        self.check(self.same_edges(flat.decode_flat_pd(res.flat)),
                   "SWEG summary does not decode to the input")
        return dt

    def decode_check(self) -> float:
        t0 = perf()
        got = decode.decode_pd(self.summary)
        dt = perf() - t0
        self.check(self.same_edges(got), "SLUGGER summary does not decode to the input")
        return dt

    def query_chunk(self, record: bool) -> None:
        """One neighbors(v) pass over every node, one BFS round from the
        sources and one full decode, on the current summary's index."""
        lat = np.empty(self.n)
        bad = 0
        for v in range(self.n):
            t0 = perf()
            got = self.index.neighbors(v)
            lat[v] = perf() - t0
            if got != self.adj[v]:
                bad += 1
        self.attempted += self.n
        self.failed += bad
        if bad:
            print(f"perfbench: CHECK FAILED: {bad} neighbors(v) results differ "
                  "from the input adjacency", file=sys.stderr)
        t_bfs = np.empty(len(self.sources))
        for k, (s, want) in enumerate(zip(self.sources, self.bfs_ref)):
            t0 = perf()
            got = algorithms.bfs(self.index, s)
            t_bfs[k] = perf() - t0
            self.check(got == want, "BFS over the summary differs from BFS over the input")
        t_dec = self.decode_check()
        if record:
            self.samples["query_us"].append(lat * 1e6)
            self.samples["bfs_s"].append(t_bfs)
            self.samples["decode_s"].append(t_dec)

    def query(self, record: bool) -> None:
        for _ in range(QUERY_CHUNKS):
            self.query_chunk(record)

    def cycle(self, record: bool) -> float:
        """One slugger() / query / sweg() / query cycle; returns the
        slugger() time. Query chunks follow each long call, so that the
        read-path samples spread over the whole run."""
        with self.span("summarize"):
            t_sum = self.summarize()
        with self.span("query"):
            self.index = neighbors.NeighborIndex(self.summary)
            self.query(record)
        with self.span("sweg"):
            t_sweg = self.sweg()
        with self.span("query"):
            self.query(record)
        if record:
            self.samples["summarize_s"].append(t_sum)
            self.samples["sweg_s"].append(t_sweg)
        return t_sum

    def measure(self, seconds: float, trace: bool) -> int:
        """Closed loop: start another cycle only while it is expected to
        end by the deadline, then fill the rest of an untraced run with
        query chunks. Untraced runs record end-to-end samples; traced
        runs alternate untraced and traced cycles and keep the per-layer
        metrics of the traced ones."""
        memo_size = getattr(localenc, "memo_size", lambda: 0)
        deadline = perf() + seconds
        last = 0.0
        i = 0
        while i < (2 if trace else 1) or perf() + last <= deadline:
            t0 = perf()
            traced = trace and i % 2 == 1
            if traced:
                self.tracer = Tracer()
                layers.install(self.tracer)
                memo0 = memo_size()
            t_sum = None
            try:
                t_sum = self.cycle(record=not trace)
            except Exception:
                self.raised("cycle")
            finally:
                if traced:
                    self.tracer.unwrap()
            if traced:
                self.layer_cycles.append(
                    layers.cycle_metrics(self.tracer.spans, memo_size() - memo0))
                for rec in self.tracer.spans:
                    rec["cycle"] = i
                self.spans.extend(self.tracer.spans)
                self.absent = self.tracer.absent
                self.tracer = None
            if t_sum is not None:
                (self.t_traced if traced else self.t_plain).append(t_sum)
            last = perf() - t0
            i += 1
        last = 0.0
        while not trace and self.index is not None and perf() + last <= deadline:
            t0 = perf()
            try:
                self.query_chunk(record=True)
            except Exception:
                self.raised("query")
                break
            last = perf() - t0
        return i

    # ---------------------------------------------------------------- report

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        """slugger() and sweg() calls report their median. The read path's
        short calls report their best time over the run (bfs_s: the sum of
        each source's best BFS). The host runs at two speeds 1.4-1.55x
        apart and may hold either for a whole run: the median of short calls
        reads whichever speed held most of the run, the best of many calls
        spread over the run depends much less on it (ten merge_sparse runs:
        quartile spread of neighbors() p50 0.39 as medians, 0.07 as best
        times; reference.json, findings)."""
        lat = np.min(self.samples["query_us"], axis=0)  # per node, over all passes
        return {
            "setup_s": (setup_s, "s"),
            "summarize_s": (median(self.samples["summarize_s"]), "s"),
            "sweg_s": (median(self.samples["sweg_s"]), "s"),
            "relative_size": (cost.metrics(self.summary, len(self.edges)).relative_size, "ratio"),
            "ok_ratio": (1.0 - self.failed / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "query_p50_us": (float(np.percentile(lat, 50)), "us"),
            "query_p99_us": (float(np.percentile(lat, 99)), "us"),
            "bfs_s": (float(np.min(self.samples["bfs_s"], axis=0).sum()), "s"),
            "decode_s": (min(self.samples["decode_s"]), "s"),
        }

    def per_layer(self) -> dict[str, float]:
        metrics = layers.median_metrics(self.layer_cycles)
        for key in ("datasets.generate_s", "spark.summarize_s", "decode.spark_s",
                    "spark.jobs", "spark.stages", "spark.tasks", "spark.failed_tasks"):
            metrics[key] = float(self.info.get(key, 0.0))
        metrics["trace.overhead_s"] = (
            median(self.t_traced) - median(self.t_plain)
            if self.t_plain and self.t_traced else 0.0)
        return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        tmp_dir: Path, out_dir: Path) -> int:
    b = Bench(wl, seed, tmp_dir)
    try:
        setup_s = b.setup()
        try:
            b.engine_gate(trace)
        except Exception:
            b.raised("engine gate")
        cycles = b.measure(seconds, trace)
    finally:
        if b.spark is not None:
            sparkenv.stop(b.spark)

    print(f"perfbench: workload={wl.name} seed={seed} |V|={b.n} |E|={len(b.edges)} "
          f"T={wl.T} cycles={cycles} summary_sha256={b.ref_hash}")
    if trace:
        if not b.layer_cycles:
            sys.exit("perfbench: no traced cycle completed")
        out_dir.mkdir(exist_ok=True)
        dump_spans(b.spans, out_dir / f"spans-{wl.name}-{seed}.jsonl")
        if b.absent:
            print(f"perfbench: absent (not traced): {', '.join(b.absent)}")
        metrics = {k: (v, layers.unit_of(k)) for k, v in sorted(b.per_layer().items())}
    else:
        print(f"perfbench: samples summarize={len(b.samples['summarize_s'])} "
              f"sweg={len(b.samples['sweg_s'])} bfs={len(b.samples['bfs_s'])} "
              f"decode={len(b.samples['decode_s'])}; query percentiles over "
              f"{b.n} per-node best times of {len(b.samples['query_us'])} passes; "
              f"summarize_s {[round(t, 3) for t in b.samples['summarize_s']]} "
              f"sweg_s {[round(t, 3) for t in b.samples['sweg_s']]}")
        metrics = b.end_to_end(setup_s)
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
