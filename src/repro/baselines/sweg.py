"""SWEG baseline (Shin et al., WWW'19) — lossless configuration (ε = 0).

T rounds of {min-hash candidate sets → greedy within-group merging with
threshold θ(t) = 1/(1+t)} over the *flat* model, followed by the optimal
flat encoding. Within a group, Saving(A, B) is computed from exact
per-supernode-pair subedge counts (the original uses a SuperJaccard
approximation for speed; the exact-count variant is the same algorithm
with a sharper score — documented in DESIGN.md). Groups are processed in
parallel via ``groupBy("gid").applyInPandas``, one call per group;
counts are recomputed from the edge set between rounds (distributed
SWeG's per-round staleness model).
"""
from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core import candidates
from ..model.flat import FlatSummary
from .flat_encode import encode_flat

TALL_SCHEMA = "gid long, kind string, x long, y long, v long"


def _flat_cost(cnt: dict[int, int], sizes: dict[int, int], a: int, sa: int) -> int:
    """Σ_X min(E_AX, T_AX − E_AX + 1) over neighbors X of supernode a."""
    total = 0
    for x, e in cnt.items():
        if e <= 0:
            continue
        t = sa * (sa - 1) // 2 if x == a else sa * sizes[x]
        total += min(e, t - e + 1)
    return total


class _SwegGroup:
    """One candidate set's greedy merge loop over flat-model counts."""

    def __init__(self, gid: int, theta: float, seed: int,
                 sups: list[int], sizes: dict[int, int],
                 cnt: dict[int, dict[int, int]]):
        self.theta = theta
        self.rng = random.Random(seed)
        self.sups = set(sups)
        self.sizes = sizes
        self.cnt = cnt
        self.merges: list[tuple[int, int]] = []  # (survivor a, absorbed b)

    def _saving(self, a: int, b: int) -> float:
        ca = _flat_cost(self.cnt[a], self.sizes, a, self.sizes[a])
        cb = _flat_cost(self.cnt[b], self.sizes, b, self.sizes[b])
        if ca + cb == 0:
            return -1e18
        merged = self._merged_counts(a, b)
        su = self.sizes[a] + self.sizes[b]
        sizes = self.sizes
        cu = 0
        for x, e in merged.items():
            if e <= 0:
                continue
            t = su * (su - 1) // 2 if x == a else su * sizes[x]
            cu += min(e, t - e + 1)
        return 1.0 - cu / (ca + cb)

    def _merged_counts(self, a: int, b: int) -> dict[int, int]:
        """Counts of A∪B: symmetric stores hold the (a,b) cross count twice,
        so the self-count is assembled explicitly (E_UU = E_AA + E_BB + E_AB)."""
        merged: dict[int, int] = defaultdict(int)
        for x, e in self.cnt[a].items():
            if x not in (a, b):
                merged[x] += e
        for x, e in self.cnt[b].items():
            if x not in (a, b):
                merged[x] += e
        self_cnt = (
            self.cnt[a].get(a, 0) + self.cnt[b].get(b, 0) + self.cnt[a].get(b, 0)
        )
        if self_cnt:
            merged[a] = self_cnt
        return merged

    def _merge(self, a: int, b: int) -> None:
        merged = self._merged_counts(a, b)
        self.cnt[a] = dict(merged)
        del self.cnt[b]
        # re-key member neighbors (cross-group neighbors are stale till
        # the driver recomputes counts next round)
        for x in list(self.cnt[a].keys()):
            if x != a and x in self.cnt:
                m = self.cnt[x]
                m[a] = m.pop(a, 0) + m.pop(b, 0)
        self.sizes[a] += self.sizes[b]
        self.sups.discard(b)
        self.merges.append((a, b))

    def _superjaccard(self, a: int, b: int) -> float:
        """Weighted Jaccard of the two supernodes' neighbor count vectors
        (keys a/b folded together) — SWeG's cheap partner-selection score."""
        ca, cb = self.cnt[a], self.cnt[b]

        def norm(c):
            out: dict[int, int] = {}
            for x, e in c.items():
                out[a if x in (a, b) else x] = out.get(a if x in (a, b) else x, 0) + e
            return out

        na, nb = norm(ca), norm(cb)
        inter = sum(min(na.get(x, 0), nb.get(x, 0)) for x in na if x in nb)
        union = sum(na.values()) + sum(nb.values()) - inter
        return inter / union if union else 0.0

    def run(self) -> None:
        q = sorted(self.sups)
        self.rng.shuffle(q)
        while len(q) > 1:
            a = q.pop()
            nbrs_a = set(self.cnt[a])
            # SWeG picks the partner by SuperJaccard, then admits the merge
            # only if the (exact) Saving clears θ(t) — it does NOT argmax
            # Saving itself (that is the expensive step it avoids).
            best, best_j = None, -1.0
            for z in q:
                if z not in nbrs_a and not (nbrs_a & set(self.cnt[z])):
                    continue  # distance > 2
                j = self._superjaccard(a, z)
                if j > best_j:
                    best, best_j = z, j
            if best is not None and self._saving(a, best) >= self.theta:
                self._merge(a, best)
                q.remove(best)
                q.insert(self.rng.randrange(len(q) + 1), a)


def _run_group(tall: pd.DataFrame, t: int, big_t: int, seed: int) -> pd.DataFrame:
    if len(tall) == 0:
        return pd.DataFrame(columns=["gid", "kind", "x", "y", "v"])
    gid = int(tall["gid"].iloc[0])
    theta = 1.0 / (1 + t) if t < big_t else 0.0
    sups = tall[tall["kind"] == "sup"]["x"].astype(int).tolist()
    sizes = dict(
        zip(tall[tall["kind"] == "size"]["x"].astype(int),
            tall[tall["kind"] == "size"]["y"].astype(int))
    )
    cnt: dict[int, dict[int, int]] = {s: {} for s in sups}
    for r in tall[tall["kind"] == "cnt"].itertuples():
        cnt[int(r.x)][int(r.y)] = int(r.v)
    g = _SwegGroup(
        gid, theta, (seed * 999_983 + t * 613 + gid) & 0x7FFFFFFF, sups, sizes, cnt
    )
    g.run()
    rows = [(gid, "merge", a, b, 0) for a, b in g.merges]
    return pd.DataFrame(rows, columns=["gid", "kind", "x", "y", "v"]).astype(
        {"gid": np.int64, "x": np.int64, "y": np.int64, "v": np.int64}
    )


@dataclass
class SwegResult:
    flat: FlatSummary
    elapsed_s: float


def sweg(
    spark: SparkSession,
    edges: pd.DataFrame,
    n_sub: int,
    *,
    T: int = 20,
    seed: int = 0,
    engine: str = "local",
) -> SwegResult:
    """Run SWEG and return the optimally flat-encoded summary."""
    t0 = time.perf_counter()
    group = np.arange(n_sub, dtype=np.int64)
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    for t in range(1, T + 1):
        cand = candidates.assign_groups(edges, group, seed, t)
        gid_of = dict(zip(cand["root"].astype(int), cand["gid"].astype(int)))
        # per-pair subedge counts at the current supernode level
        ga, gb = group[src], group[dst]
        lo, hi = np.minimum(ga, gb), np.maximum(ga, gb)
        pair_cnt = pd.DataFrame({"a": lo, "b": hi}).groupby(["a", "b"]).size()
        sizes = pd.Series(group).value_counts()
        rows: list[tuple[int, str, int, int, int]] = []
        for s, gid in gid_of.items():
            rows.append((gid, "sup", s, 0, 0))
            rows.append((gid, "size", s, int(sizes[s]), 0))
        seen_sizes: dict[int, set[int]] = defaultdict(set)
        for (a, b), e in pair_cnt.items():
            a, b, e = int(a), int(b), int(e)
            for mem, other in ((a, b), (b, a)) if a != b else ((a, a),):
                gid = gid_of[mem]
                rows.append((gid, "cnt", mem, other, e))
                if other != mem and gid_of.get(other) != gid and other not in seen_sizes[gid]:
                    rows.append((gid, "size", other, int(sizes[other]), 0))
                    seen_sizes[gid].add(other)
        tall = pd.DataFrame(rows, columns=["gid", "kind", "x", "y", "v"])
        tall[["gid", "x", "y", "v"]] = tall[["gid", "x", "y", "v"]].astype(np.int64)
        if engine == "spark":
            tall_df = spark.createDataFrame(tall, schema=TALL_SCHEMA)
            out = (
                tall_df.groupBy("gid")
                .applyInPandas(
                    lambda pdf: _run_group(pdf, t, T, seed), schema=TALL_SCHEMA
                )
                .toPandas()
            )
        else:
            parts = [
                _run_group(gdf, t, T, seed) for _, gdf in tall.groupby("gid", sort=True)
            ]
            out = (
                pd.concat(parts, ignore_index=True)
                if parts
                else pd.DataFrame(columns=["gid", "kind", "x", "y", "v"])
            )
        remap: dict[int, int] = {}
        for r in out[out["kind"] == "merge"].itertuples():
            remap[int(r.y)] = int(r.x)

        def find(v: int) -> int:
            while v in remap:
                v = remap[v]
            return v

        uniq = {int(v) for v in np.unique(group)}
        final = {v: find(v) for v in uniq}
        group = np.array([final[int(g)] for g in group], dtype=np.int64)
    flat = encode_flat(spark, edges, group)
    return SwegResult(flat=flat, elapsed_s=time.perf_counter() - t0)
