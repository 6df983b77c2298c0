"""End-to-end SLUGGER tests: losslessness on every graph family, engine
equivalence, threshold/iteration behaviour, height bounds, pinned summary
hashes and the input contract."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core import candidates
from repro.core import localenc
from repro.core.slugger import slugger
from repro.graphs import datasets
from repro.graphs import generators as gen
from repro.graphs.generators import n_nodes
from repro.model.cost import cost, metrics
from repro.model.decode import assert_lossless_pd

GRAPHS = [
    ("star", lambda: (gen.star(15), 15)),
    ("clique", lambda: (gen.clique(9), 9)),
    ("path", lambda: (gen.path(12), 12)),
    ("multipartite", lambda: (gen.complete_multipartite(4, 4), 16)),
    ("er", lambda: (gen.er(50, 4.0, seed=1), 50)),
    ("chung_lu", lambda: (gen.chung_lu(80, 5.0, seed=2), 80)),
    ("nested", lambda: (gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=3), 70)),
    ("caveman", lambda: (gen.caveman_cliques(48, clique_size=8, p_rewire=0.1, seed=4), 48)),
    ("hub", lambda: (gen.hub_spokes(80, n_hubs=5, seed=5), 80)),
]


class TestLossless:
    @pytest.mark.parametrize("name,make", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_lossless_pruned(self, name, make):
        edges, n = make()
        res = slugger(edges, n, T=4, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)
        res.summary.validate()

    @pytest.mark.parametrize("name,make", GRAPHS[:5], ids=[n for n, _ in GRAPHS[:5]])
    def test_lossless_unpruned(self, name, make):
        edges, n = make()
        res = slugger(edges, n, T=4, seed=0, engine="local", do_prune=False)
        assert_lossless_pd(res.summary, edges)
        res.summary.validate()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lossless_across_seeds(self, seed):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.06, ratio=7, seed=seed)
        res = slugger(edges, 60, T=5, seed=seed, engine="local")
        assert_lossless_pd(res.summary, edges)

    @pytest.mark.parametrize("name", datasets.DATASET_ORDER)
    def test_lossless_on_registry_test_scale(self, name):
        edges = datasets.load(name, scale="test", seed=0)
        n = n_nodes(edges)
        res = slugger(edges, n, T=3, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)


def summary_hash(summary) -> str:
    """SHA-256 of a summary's canonical (sorted int64) tables."""
    h = hashlib.sha256(str(summary.n_sub).encode())
    for df, cols in (
        (summary.nodes, ["nid", "size"]),
        (summary.hedges, ["parent", "child"]),
        (summary.pedges, ["x", "y", "sign"]),
    ):
        h.update(df[cols].astype("int64").sort_values(cols).to_numpy().tobytes())
    return h.hexdigest()


def chung_lu_graph():
    """Sparse power-law graph: most candidate sets hold a single root."""
    edges = gen.chung_lu(200, 6.0, seed=0)
    return edges, n_nodes(edges)


def complexes_graph():
    """Dense protein-complex graph: nearly every candidate set merges."""
    edges = gen.complexes(n_blocks=4, sub_size=5, p_cross=0.5, seed=0)
    return edges, n_nodes(edges)


class TestGolden:
    """Seed-0 summaries pinned byte for byte: a change to group dispatch
    or marshalling must not change what SLUGGER computes."""

    @pytest.mark.parametrize("make,want", [
        (chung_lu_graph, "03457d0906909266d51a83b97d7968cfbcca86c6cf951df460a7e054c84464ca"),
        (complexes_graph, "9b4f454c041e08442618c06ab01af70c47fa9ee8c9920c56d6831c894f2eb224"),
    ], ids=["chung_lu", "complexes"])
    def test_seed0_summary_hash(self, make, want):
        edges, n = make()
        res = slugger(edges, n, T=4, seed=0, engine="local")
        assert summary_hash(res.summary) == want
        assert_lossless_pd(res.summary, edges)


class TestSolverMemo:
    """Deterministic perf guard (counts, no timing): nearly every Case-2
    re-encoding is an outcome-memo hit, and IDDFS runs for few of them."""

    def test_case2_outcomes_memoized(self):
        edges, n = complexes_graph()
        before = localenc.stats()
        slugger(edges, n, T=3, seed=0, engine="local")
        d = {k: v - before[k] for k, v in localenc.stats().items()}
        lookups = d["outcome_hits"] + d["outcome_misses"]
        assert lookups >= 1000
        assert d["searches"] <= lookups / 10
        assert d["outcome_misses"] <= lookups / 10


class TestEngines:
    def test_spark_equals_local(self, spark):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.05, ratio=8, seed=2)
        rl = slugger(edges, 60, T=4, seed=0, engine="local")
        rs = slugger(edges, 60, T=4, seed=0, engine="spark", spark=spark)
        pd.testing.assert_frame_equal(
            rl.summary.pedges.sort_values(["x", "y", "sign"]).reset_index(drop=True),
            rs.summary.pedges.sort_values(["x", "y", "sign"]).reset_index(drop=True),
        )
        pd.testing.assert_frame_equal(
            rl.summary.hedges.sort_values(["parent", "child"]).reset_index(drop=True),
            rs.summary.hedges.sort_values(["parent", "child"]).reset_index(drop=True),
        )

    def test_spark_equals_local_single_root_heavy(self, spark):
        edges, n = chung_lu_graph()
        rl = slugger(edges, n, T=3, seed=0, engine="local")
        rs = slugger(edges, n, T=3, seed=0, engine="spark", spark=spark)
        assert summary_hash(rs.summary) == summary_hash(rl.summary)

    def test_spark_round_with_only_single_root_sets(self, spark, monkeypatch):
        # isolated nodes: every candidate set holds one root, so the
        # Spark engine gets an empty batch of worker rows every round
        sizes = []
        assign = candidates.assign_groups

        def recording(*args, **kwargs):
            groups = assign(*args, **kwargs)
            sizes.append(int(groups.groupby("gid").size().max()))
            return groups

        monkeypatch.setattr(candidates, "assign_groups", recording)
        edges = gen.path(3).iloc[0:0]
        rs = slugger(edges, 6, T=2, seed=0, engine="spark", spark=spark)
        assert sizes == [1, 1]
        rl = slugger(edges, 6, T=2, seed=0, engine="local")
        assert summary_hash(rs.summary) == summary_hash(rl.summary)
        assert_lossless_pd(rs.summary, edges)

    def test_spark_lossless(self, spark):
        edges = gen.caveman_cliques(40, clique_size=8, p_rewire=0.1, seed=1)
        rs = slugger(edges, 40, T=3, seed=0, engine="spark", spark=spark)
        assert_lossless_pd(rs.summary, edges)


class TestBehaviour:
    def test_deterministic_in_seed(self):
        edges = gen.er(40, 4.0, seed=0)
        r1 = slugger(edges, 40, T=3, seed=7, engine="local")
        r2 = slugger(edges, 40, T=3, seed=7, engine="local")
        pd.testing.assert_frame_equal(r1.summary.pedges, r2.summary.pedges)

    def test_cost_never_exceeds_identity(self):
        # every admitted merge has Saving >= theta(t) >= 0 at worst
        for name, make in GRAPHS:
            edges, n = make()
            res = slugger(edges, n, T=4, seed=0, engine="local")
            assert cost(res.summary) <= len(edges) + 1, name

    def test_more_iterations_not_worse(self):
        edges = gen.nested_partition(80, levels=2, branching=3, p_top=0.05, ratio=8, seed=1)
        r1 = slugger(edges, 80, T=1, seed=0, engine="local")
        r8 = slugger(edges, 80, T=8, seed=0, engine="local")
        c1 = metrics(r1.summary, len(edges)).relative_size
        c8 = metrics(r8.summary, len(edges)).relative_size
        assert c8 <= c1 + 0.02  # small wiggle: randomized greedy

    def test_clique_collapses(self):
        edges = gen.clique(10)
        res = slugger(edges, 10, T=3, seed=0, engine="local")
        m = metrics(res.summary, len(edges))
        assert m.relative_size < 0.5
        assert m.n_p_plus <= 3

    def test_path_stays_identity(self):
        edges = gen.path(12)
        res = slugger(edges, 12, T=3, seed=0, engine="local")
        assert metrics(res.summary, len(edges)).relative_size == 1.0

    def test_multipartite_hierarchy_win(self):
        edges = gen.complete_multipartite(5, 4)
        res = slugger(edges, 20, T=5, seed=0, engine="local")
        m = metrics(res.summary, len(edges))
        assert m.relative_size < 0.35
        assert m.max_height >= 2  # genuinely hierarchical output

    def test_pruning_only_helps(self):
        edges = gen.nested_partition(70, levels=2, branching=3, p_top=0.05, ratio=8, seed=2)
        raw = slugger(edges, 70, T=5, seed=0, engine="local", do_prune=False)
        prn = slugger(edges, 70, T=5, seed=0, engine="local", do_prune=True)
        assert cost(prn.summary) <= cost(raw.summary)


class TestHeightBound:
    @pytest.mark.parametrize("hb", [1, 2, 5])
    def test_height_respected_and_lossless(self, hb):
        edges = gen.nested_partition(60, levels=2, branching=3, p_top=0.06, ratio=8, seed=1)
        res = slugger(edges, 60, T=4, seed=0, hb=hb, engine="local", do_prune=False)
        assert metrics(res.summary, len(edges)).max_height <= hb
        assert_lossless_pd(res.summary, edges)

    def test_tighter_bound_not_more_concise(self):
        edges = gen.nested_partition(80, levels=2, branching=3, p_top=0.05, ratio=9, seed=3)
        r2 = slugger(edges, 80, T=5, seed=0, hb=2, engine="local")
        rinf = slugger(edges, 80, T=5, seed=0, hb=0, engine="local")
        c2 = metrics(r2.summary, len(edges)).relative_size
        cinf = metrics(rinf.summary, len(edges)).relative_size
        assert cinf <= c2 + 0.03


class TestEdgeCases:
    def test_empty_graph(self):
        edges = gen.path(3).iloc[0:0]
        res = slugger(edges, 5, T=2, seed=0, engine="local")
        assert len(res.summary.pedges) == 0
        assert_lossless_pd(res.summary, edges)

    def test_single_edge(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        res = slugger(edges, 2, T=2, seed=0, engine="local")
        assert_lossless_pd(res.summary, edges)
        assert cost(res.summary) == 1

    def test_isolated_nodes_survive(self):
        edges = pd.DataFrame({"src": [0], "dst": [1]})
        res = slugger(edges, 6, T=2, seed=0, engine="local")
        assert res.summary.n_sub == 6
        res.summary.validate()


class TestInputContract:
    """Inputs the summary cannot represent, or the supernode ids cannot
    hold, are rejected at the entry point, naming the offending pair."""

    @pytest.mark.parametrize("src,dst,n,msg", [
        ([0, 1, 2], [1, 2, 2], 3, r"self-loop \(2, 2\)"),
        ([0, 1, 0], [1, 2, 1], 3, r"duplicate pair \(0, 1\)"),
        ([0, 2], [1, 1], 3, r"non-canonical pair \(need src < dst\) \(2, 1\)"),
        ([0, 1], [1, 5], 3, r"id outside \[0, 3\) \(1, 5\)"),
        ([-1, 0], [1, 1], 3, r"id outside \[0, 3\) \(-1, 1\)"),
    ], ids=["loop", "duplicate", "reversed", "too_large", "negative"])
    def test_bad_edges_rejected(self, src, dst, n, msg):
        edges = pd.DataFrame({"src": src, "dst": dst})
        with pytest.raises(ValueError, match=msg):
            slugger(edges, n, T=2, seed=0, engine="local")

    def test_t_limit(self):
        edges = gen.path(4)
        with pytest.raises(ValueError, match=r"T=128 is outside \[0, 128\)"):
            slugger(edges, 4, T=128, seed=0, engine="local")
        slugger(edges, 4, T=127, seed=0, engine="local", do_prune=False)

    @pytest.mark.parametrize("engine", ["Spark", "sparkk"])
    def test_unknown_engine_rejected(self, engine, monkeypatch):
        monkeypatch.setattr(candidates, "assign_groups", None)  # no round may start
        with pytest.raises(ValueError, match=f"engine='{engine}' is not one of"):
            slugger(gen.path(4), 4, T=2, seed=0, engine=engine)

    def test_spark_engine_needs_session(self, monkeypatch):
        monkeypatch.setattr(candidates, "assign_groups", None)
        with pytest.raises(ValueError, match="engine='spark' needs a SparkSession"):
            slugger(gen.path(4), 4, T=2, seed=0, engine="spark")

    def test_n_sub_limit(self):
        with pytest.raises(ValueError, match=r"n_sub=16777216 is outside"):
            slugger(gen.path(4), 1 << 24, T=1, seed=0, engine="local")
