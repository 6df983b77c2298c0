"""Which program callables the traced run wraps, and how the spans of
one traced cycle become the per-layer metrics of ``BENCHMARK.json``.

A traced cycle opens top-level spans of the benchmark's own:
``summarize`` (one ``slugger()`` call), ``query`` (index build, neighbour
passes, BFS, full decodes), ``sweg`` (one ``sweg()`` call) and a second
``query``. Spans of
shared callees (``assign_groups`` runs under both SLUGGER and SWEG) are
attributed to the top-level span they descend from.
"""
from __future__ import annotations

from statistics import median

from tracer import SpanView, Tracer


def _summary_cost(summary) -> int:
    return int(len(summary.pedges) + len(summary.hedges))


def _on_groups(info, args, kwargs, groups) -> None:
    sizes = groups.groupby("gid").size()
    info["roots"] = int(len(groups))
    info["groups"] = int(len(sizes))
    info["single"] = int((sizes == 1).sum())


def _on_consolidate(info, args, kwargs, lifted) -> None:
    info["edges_in"] = len(args[0])
    info["edges_out"] = len(lifted)


def _on_prune(info, args, kwargs, out) -> None:
    info["cost_in"] = _summary_cost(args[0])
    info["cost_out"] = _summary_cost(out)


def _on_count(info, args, kwargs, n) -> None:
    info["n"] = int(n)


def _on_len(info, args, kwargs, out) -> None:
    info["n"] = len(out)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable (module path, qualified name)."""
    w = tracer.wrap
    w("repro.core.candidates", "assign_groups", on_result=_on_groups)
    w("repro.core.groupmerge", "run_group")
    for meth in ("__init__", "run", "output"):
        w("repro.core.groupmerge", f"GroupWorker.{meth}")
    w("repro.core.groupmerge", "GroupWorker.saving", fold=True)
    w("repro.core.groupmerge", "GroupWorker.merge", fold=True)
    w("repro.core.localenc", "solve_case1", fold=True)
    w("repro.core.localenc", "solve_case2", fold=True)
    w("repro.core.slugger", "consolidate", on_result=_on_consolidate)
    w("repro.core.slugger", "prune", on_result=_on_prune)
    for step in ("step1", "step2", "step3"):
        w("repro.core.pruning", step, on_result=_on_count)
    w("repro.baselines.sweg", "encode_flat")
    w("repro.model.decode", "decode_pd", on_result=_on_len)
    w("repro.model.neighbors", "NeighborIndex.__init__")
    w("repro.model.neighbors", "NeighborIndex.neighbors", fold=True)
    w("repro.model.algorithms", "bfs", on_result=_on_len)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cycle_metrics(spans: list[dict], memo_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced cycle (see BENCHMARK.json)."""
    v = SpanView(spans)
    S = "summarize"
    m: dict[str, float] = {}

    summ = v.named(S)
    m["slugger.busy_s"] = sum(v.dur(s) for s in summ)
    m["slugger.self_s"] = sum(v.self_time(s) for s in summ)
    m["slugger.rounds"] = len(v.named("assign_groups", S))

    roots = v.info_sum("assign_groups", "roots", S)
    groups = v.info_sum("assign_groups", "groups", S)
    m["candidates.busy_s"] = v.total("assign_groups", S)
    m["candidates.roots"] = roots
    m["candidates.groups"] = groups
    m["candidates.single_root_ratio"] = _ratio(v.info_sum("assign_groups", "single", S), groups)

    rg = v.named("run_group", S)
    init = v.total("GroupWorker.__init__", S)
    run = v.total("GroupWorker.run", S)
    out = v.total("GroupWorker.output", S)
    m["groupmerge.calls"] = len(rg)
    m["groupmerge.busy_s"] = sum(v.dur(s) for s in rg)
    m["groupmerge.marshal_in_s"] = init + sum(v.self_time(s) for s in rg)
    m["groupmerge.marshal_out_s"] = out
    m["groupmerge.alg2_s"] = run
    n_sav, t_sav = v.fold("GroupWorker.saving", S)
    n_mrg, t_mrg = v.fold("GroupWorker.merge", S)
    m["groupmerge.saving_calls"] = n_sav
    m["groupmerge.saving_s"] = t_sav
    m["groupmerge.merges"] = n_mrg
    m["groupmerge.merge_s"] = t_mrg
    m["groupmerge.merges_per_saving"] = _ratio(n_mrg, n_sav)

    n1, t1 = v.fold("solve_case1", S)
    n2, t2 = v.fold("solve_case2", S)
    m["localenc.case1_calls"] = n1
    m["localenc.case2_calls"] = n2
    m["localenc.solve_s"] = t1 + t2
    m["localenc.memo_misses"] = memo_misses
    m["localenc.memo_hit_ratio"] = 1.0 - _ratio(memo_misses, n1 + n2) if n1 + n2 else 0.0

    m["consolidate.busy_s"] = v.total("consolidate", S)
    m["consolidate.edges_in"] = v.info_sum("consolidate", "edges_in", S)
    m["consolidate.edges_out"] = v.info_sum("consolidate", "edges_out", S)

    m["pruning.busy_s"] = v.total("prune", S)
    for i in (1, 2, 3):
        m[f"pruning.step{i}_s"] = v.total(f"step{i}", S)
    m["pruning.step1_removed"] = v.info_sum("step1", "n", S)
    m["pruning.step2_removed"] = v.info_sum("step2", "n", S)
    m["pruning.step3_rewrites"] = v.info_sum("step3", "n", S)
    m["pruning.cost_in"] = v.info_sum("prune", "cost_in", S)
    m["pruning.cost_out"] = v.info_sum("prune", "cost_out", S)

    m["decode.busy_s"] = v.total("decode_pd")
    m["decode.edges"] = v.info_sum("decode_pd", "n")

    m["neighbors.index_build_s"] = v.total("NeighborIndex.__init__")
    nq, tq = v.fold("NeighborIndex.neighbors")
    m["neighbors.queries"] = nq
    m["neighbors.busy_s"] = tq

    m["algorithms.bfs_s"] = v.total("bfs")
    m["algorithms.bfs_visits"] = v.info_sum("bfs", "n")

    m["sweg.busy_s"] = v.total("sweg")
    m["sweg.candidates_s"] = v.total("assign_groups", "sweg")
    m["sweg.encode_flat_s"] = v.total("encode_flat", "sweg")
    return m


_UNITS = {"_s": "s", "_ratio": "ratio", "_per_saving": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name (counts otherwise)."""
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def median_metrics(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced cycles."""
    return {k: float(median(c[k] for c in per_cycle)) for k in per_cycle[0]}
