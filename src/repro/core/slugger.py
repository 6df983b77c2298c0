"""SLUGGER driver (Algorithm 1): T rounds of candidate generation +
group-parallel merging + global consolidation, then pruning.

The per-iteration dataflow (DESIGN.md §3.2):

1. shingle-based candidate sets over current roots (numpy fast path; the
   Spark twin in :mod:`repro.core.hashing` is equivalence-tested);
2. a candidate set holding one root cannot merge: its intra-group
   p/n-edges go straight to the next round on the driver. Every
   multi-root set gets int64 worker rows (its member trees, intra-group
   p/n-edges, read-only external edges and root-level G-adjacency);
3. :func:`repro.core.dispatch.run` runs Algorithm 2
   (:func:`repro.core.groupmerge.run_group`) on every multi-root set, on
   the local or the Spark engine;
4. cross-group edges are lifted by :func:`repro.core.consolidate.consolidate`;
5. driver state (supernode forest + edge tables) is re-materialized —
   the checkpoint between iterations.

``hb`` > 0 enables the Table-V height-bound variant.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..graphs.ops import check_edges
from ..model.summary import HierSummary
from . import candidates, dispatch
from . import groupmerge as gm
from .consolidate import consolidate
from .pruning import prune


@dataclass
class SluggerResult:
    """Final summary and the wall time of the run."""

    summary: HierSummary
    elapsed_s: float


class _DriverState:
    """Driver-side forest + edge tables between iterations."""

    def __init__(self, edges: pd.DataFrame, n_sub: int):
        self.n_sub = n_sub
        self.size: dict[int, int] = {u: 1 for u in range(n_sub)}
        self.children: dict[int, list[int]] = {}
        self.parent: dict[int, int] = {}
        # root_up chains a merged root to the root that absorbed it
        self.root_up: dict[int, int] = {}
        self.pedges: list[tuple[int, int, int]] = [
            (s, d, 1) for s, d in zip(edges["src"].tolist(), edges["dst"].tolist())
        ]
        self.leaf_root = np.arange(n_sub, dtype=np.int64)

    def current_root(self, nid: int) -> int:
        r = nid
        while r in self.root_up:
            up = self.root_up[r]
            if up in self.root_up:
                self.root_up[r] = self.root_up[up]
            r = self.root_up[r]
        return r

    def apply_merges(self, merges: list[tuple[int, int, int]]) -> None:
        for a, b, u in merges:
            self.children[u] = [a, b]
            self.parent[a] = u
            self.parent[b] = u
            self.size[u] = self.size[a] + self.size[b]
            self.root_up[a] = u
            self.root_up[b] = u
        # refresh the leaf -> root array once per round
        remap: dict[int, int] = {}
        for i in range(self.n_sub):
            r = int(self.leaf_root[i])
            if r not in remap:
                remap[r] = self.current_root(r)
            self.leaf_root[i] = remap[r]


def _worker_rows(state: _DriverState, edges: pd.DataFrame, gid_of: dict[int, int],
                 multi: list[bool]):
    """Split one round: worker rows (gid, kind, x, y, v) of the multi-root
    groups, the intra-group p/n-edges of single-root groups (passed on
    unchanged) and the cross-group edges (for consolidation)."""
    rows: list[tuple[int, int, int, int, int]] = []
    node_root: dict[int, int] = {}
    for r, g in gid_of.items():
        work = multi[g]
        if work:
            rows.append((g, gm.ROOT, r, 0, 0))
        stack = [r]
        while stack:
            v = stack.pop()
            node_root[v] = r
            kids = state.children.get(v, ())
            stack.extend(kids)
            if work:
                rows.append((g, gm.NODE, v, state.size[v], r))
                rows.extend((g, gm.HEDGE, v, c, 0) for c in kids)
    passed: list[tuple[int, int, int]] = []
    cross: list[tuple[int, int, int]] = []
    for e in state.pedges:
        x, y, s = e
        gx, gy = gid_of[node_root[x]], gid_of[node_root[y]]
        if gx == gy:
            if multi[gx]:
                rows.append((gx, gm.PEDGE, x, y, s))
            else:
                passed.append(e)
            continue
        cross.append(e)
        if multi[gx]:
            rows.append((gx, gm.EXT, x, y, s))
        if multi[gy]:
            rows.append((gy, gm.EXT, y, x, s))
    # root-level G-adjacency (distance filter); both directions
    lr = state.leaf_root
    ra = lr[edges["src"].to_numpy()]
    rb = lr[edges["dst"].to_numpy()]
    mask = ra != rb
    for x, y in set(zip(ra[mask].tolist(), rb[mask].tolist())):
        for a, b in ((x, y), (y, x)):
            if multi[gid_of[a]]:
                rows.append((gid_of[a], gm.RADJ, a, b, 0))
    return rows, passed, cross


def _run_round(
    state: _DriverState,
    edges: pd.DataFrame,
    t: int,
    big_t: int,
    seed: int,
    hb: int,
    engine: str,
    spark: SparkSession | None,
) -> None:
    groups = candidates.assign_groups(edges, state.leaf_root, seed, t)
    gids = groups["gid"].to_numpy()
    gid_of = dict(zip(groups["root"].tolist(), gids.tolist()))
    multi = (np.bincount(gids) > 1).tolist()
    rows, passed, cross = _worker_rows(state, edges, gid_of, multi)
    out = dispatch.run(
        rows,
        lambda gid, kind, x, y, v: gm.run_group(gid, kind, x, y, v, t, big_t, seed, hb),
        engine, spark,
    )
    kind, xyv = out[:, 0], out[:, 1:]
    merges = list(map(tuple, xyv[kind == dispatch.MERGE].tolist()))
    intra = list(map(tuple, xyv[kind == gm.PEDGE].tolist()))
    state.apply_merges(merges)
    lifted = consolidate(cross, state.children) if cross else []
    state.pedges = passed + intra + lifted


def slugger(
    edges: pd.DataFrame,
    n_sub: int,
    *,
    T: int = 20,
    seed: int = 0,
    hb: int = 0,
    engine: str = "local",
    spark: SparkSession | None = None,
    prune_cycles: int = 2,
    do_prune: bool = True,
) -> SluggerResult:
    """Run SLUGGER on a canonical pandas edge list: simple undirected
    edges stored once with ``0 <= src < dst < n_sub`` (anything else
    raises ``ValueError``), ``0 <= T < 128`` and ``n_sub < 2**24``.

    ``hb``: height bound (0 = unlimited, Table V). ``engine``: "spark"
    (group workers under applyInPandas; needs ``spark``) or "local" (same
    batch function, in-process).
    """
    t0 = time.perf_counter()
    if not 0 <= T < 1 << gm.T_BITS:
        raise ValueError(f"T={T} is outside [0, {1 << gm.T_BITS}): "
                         f"supernode ids hold the round in {gm.T_BITS} bits")
    if not 0 <= n_sub < 1 << gm.GID_BITS:
        raise ValueError(f"n_sub={n_sub} is outside [0, 2**{gm.GID_BITS}): "
                         f"supernode ids hold the candidate-set id in {gm.GID_BITS} bits")
    check_edges(edges, n_sub)
    dispatch.check_engine(engine, spark)
    state = _DriverState(edges, n_sub)
    for t in range(1, T + 1):
        _run_round(state, edges, t, T, seed, hb, engine, spark)
    summary = HierSummary.from_parts(n_sub, state.size, state.parent, state.pedges)
    if do_prune:
        summary = prune(summary, edges, cycles=prune_cycles)
    return SluggerResult(summary=summary, elapsed_s=time.perf_counter() - t0)
