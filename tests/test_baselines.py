"""Baseline summarizer tests: losslessness + evaluated behaviour shape,
pinned SWEG output and the input contract."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines.mosso import mosso
from repro.baselines.randomized import randomized
from repro.baselines.sags import sags
from repro.baselines.sweg import sweg
from repro.core import candidates
from repro.graphs import generators as gen
from repro.model.flat import decode_flat_pd


def _lossless(fs, edges):
    got = decode_flat_pd(fs).sort_values(["src", "dst"]).reset_index(drop=True)
    want = edges.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


GRAPHS = [
    ("clique", lambda: (gen.clique(8), 8)),
    ("caveman", lambda: (gen.caveman_cliques(36, clique_size=6, p_rewire=0.1, seed=1), 36)),
    ("nested", lambda: (gen.nested_partition(50, levels=2, branching=3, p_top=0.06, ratio=7, seed=2), 50)),
    ("er", lambda: (gen.er(40, 4.0, seed=3), 40)),
]


class TestSweg:
    @pytest.mark.parametrize("name,make", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_lossless(self, spark, name, make):
        edges, n = make()
        res = sweg(spark, edges, n, T=3, seed=0, engine="local")
        _lossless(res.flat, edges)

    def test_deterministic(self, spark):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=0), 30
        r1 = sweg(spark, edges, n, T=2, seed=5, engine="local")
        r2 = sweg(spark, edges, n, T=2, seed=5, engine="local")
        assert (r1.flat.group == r2.flat.group).all()

    def test_spark_engine_equals_local(self, spark):
        edges, n = gen.caveman_cliques(30, clique_size=6, seed=1), 30
        rl = sweg(spark, edges, n, T=2, seed=0, engine="local")
        rs = sweg(spark, edges, n, T=2, seed=0, engine="spark")
        assert (rl.flat.group == rs.flat.group).all()

    def test_spark_round_with_only_single_sup_sets(self, spark, monkeypatch):
        # isolated nodes: every candidate set holds one supernode, so the
        # Spark engine gets an empty batch of worker rows every round
        sizes = []
        assign = candidates.assign_groups

        def recording(*args, **kwargs):
            groups = assign(*args, **kwargs)
            sizes.append(int(groups.groupby("gid").size().max()))
            return groups

        monkeypatch.setattr(candidates, "assign_groups", recording)
        edges = gen.path(3).iloc[0:0]
        rs = sweg(spark, edges, 6, T=2, seed=0, engine="spark")
        assert sizes == [1, 1]
        rl = sweg(spark, edges, 6, T=2, seed=0, engine="local")
        assert (rl.flat.group == rs.flat.group).all()
        _lossless(rs.flat, edges)

    @pytest.mark.parametrize("edges,want", [
        (gen.chung_lu(200, 6.0, seed=0),
         "54fd1a8b653780fc0acf8dd49b9046a7294fc75194511cade876e3124e5bc691"),
        (gen.complexes(n_blocks=4, sub_size=5, p_cross=0.5, seed=0),
         "9347b26f0c913fb299ffb43f45c332eb53d045cc6b9b13271069fef540c37f62"),
    ], ids=["chung_lu", "complexes"])
    def test_seed0_group_hash(self, spark, edges, want):
        # seed-0 supernode assignment pinned byte for byte: a change to
        # group dispatch must not change what SWEG computes
        res = sweg(spark, edges, gen.n_nodes(edges), T=4, seed=0, engine="local")
        assert hashlib.sha256(res.flat.group.astype(np.int64).tobytes()).hexdigest() == want

    def test_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setattr(candidates, "assign_groups", None)  # no round may start
        with pytest.raises(ValueError, match="engine='sparkk' is not one of"):
            sweg(None, gen.path(4), 4, T=2, seed=0, engine="sparkk")

    def test_compresses_cliques(self, spark):
        edges, n = gen.caveman_cliques(36, clique_size=6, p_rewire=0.0, seed=0), 36
        res = sweg(spark, edges, n, T=4, seed=0, engine="local")
        assert res.flat.cost_eq11(len(edges)) < 0.7

    def test_own_objective_never_exceeds_identity(self, spark):
        # SWeG's objective excludes the membership cost |H*| (Eq. 11 adds
        # it when the SLUGGER paper re-measures baselines), so the invariant
        # it maintains is |P| + |C+| + |C−| <= |E|.
        edges, n = gen.path(12), 12
        res = sweg(spark, edges, n, T=3, seed=0, engine="local")
        fs = res.flat
        assert len(fs.p) + len(fs.cp) + len(fs.cn) <= len(edges)
        _lossless(fs, edges)


class TestSags:
    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, spark, name, make):
        edges, n = make()
        res = sags(spark, edges, n, seed=0)
        _lossless(res.flat, edges)

    def test_deterministic(self, spark):
        edges, n = gen.clique(10), 10
        r1 = sags(spark, edges, n, seed=4)
        r2 = sags(spark, edges, n, seed=4)
        assert (r1.flat.group == r2.flat.group).all()

    def test_merges_identical_neighborhood_nodes(self, spark):
        # a clique gives every node the same signature; p=1 forces merging
        edges, n = gen.clique(10), 10
        res = sags(spark, edges, n, p=1.0, seed=0)
        assert len(set(res.flat.group)) < 10


class TestRandomized:
    @pytest.mark.parametrize("name,make", GRAPHS[:3], ids=[n for n, _ in GRAPHS[:3]])
    def test_lossless(self, spark, name, make):
        edges, n = make()
        res = randomized(spark, edges, n, seed=0)
        assert res.flat is not None
        _lossless(res.flat, edges)

    def test_compresses_cliques_well(self, spark):
        edges, n = gen.caveman_cliques(36, clique_size=6, p_rewire=0.0, seed=0), 36
        res = randomized(spark, edges, n, seed=0)
        assert res.flat.cost_eq11(len(edges)) < 0.7

    def test_oot_returns_none(self, spark):
        edges, n = gen.caveman_cliques(60, clique_size=6, seed=0), 60
        res = randomized(spark, edges, n, seed=0, time_limit_s=0.0)
        assert res.flat is None


class TestMosso:
    @pytest.mark.parametrize("name,make", GRAPHS[:2], ids=[n for n, _ in GRAPHS[:2]])
    def test_lossless(self, spark, name, make):
        edges, n = make()
        res = mosso(spark, edges, n, seed=0)
        assert res.flat is not None
        _lossless(res.flat, edges)

    def test_oot_returns_none(self, spark):
        edges, n = gen.er(60, 5.0, seed=0), 60
        res = mosso(spark, edges, n, seed=0, time_limit_s=0.0)
        assert res.flat is None

    def test_groups_clique_nodes(self, spark):
        edges, n = gen.clique(10), 10
        res = mosso(spark, edges, n, seed=1)
        assert len(set(res.flat.group)) < 10


class TestOrdering:
    """The paper's headline shape: SLUGGER most concise, SAGS least."""

    def test_slugger_beats_sweg_beats_sags_on_hierarchical(self, spark):
        from repro.core.slugger import slugger
        from repro.model.cost import metrics

        edges = gen.nested_partition(90, levels=2, branching=3, p_top=0.05, ratio=9, seed=0)
        n = 90
        sl = slugger(edges, n, T=6, seed=0, engine="local")
        rel_sl = metrics(sl.summary, len(edges)).relative_size
        sw = sweg(spark, edges, n, T=6, seed=0, engine="local")
        rel_sw = sw.flat.cost_eq11(len(edges))
        sa = sags(spark, edges, n, seed=0)
        rel_sa = sa.flat.cost_eq11(len(edges))
        assert rel_sl <= rel_sw + 0.02
        assert rel_sw <= rel_sa + 0.02


class TestInputContract:
    """Every baseline rejects an edge list it cannot summarize losslessly
    at its entry point, naming the offending pair (``slugger()``'s cases
    are in test_slugger.py). No Spark session is needed: the check comes
    first."""

    ENTRY = {
        "sweg": lambda e, n: sweg(None, e, n, T=2, seed=0),
        "sags": lambda e, n: sags(None, e, n),
        "randomized": lambda e, n: randomized(None, e, n),
        "mosso": lambda e, n: mosso(None, e, n),
    }

    @pytest.mark.parametrize("entry", list(ENTRY))
    @pytest.mark.parametrize("src,dst,msg", [
        ([0, 1, 2], [1, 2, 2], r"self-loop \(2, 2\)"),
        ([0, 1, 0], [1, 2, 1], r"duplicate pair \(0, 1\)"),
        ([0, 2], [1, 1], r"non-canonical pair \(need src < dst\) \(2, 1\)"),
        ([0, 1], [1, 5], r"id outside \[0, 3\) \(1, 5\)"),
    ], ids=["loop", "duplicate", "reversed", "out_of_range"])
    def test_bad_edges_rejected(self, entry, src, dst, msg):
        edges = pd.DataFrame({"src": src, "dst": dst})
        with pytest.raises(ValueError, match=msg):
            self.ENTRY[entry](edges, 3)

    @pytest.mark.parametrize("entry,kwargs,msg", [
        ("sags", {"h": 10, "b": 20}, r"b=20 is out of range: need 1 <= b <= h \(h=10\)"),
        ("sags", {"b": 0}, r"b=0 is out of range"),
        ("sags", {"h": 0, "b": 1}, r"h=0 is out of range: need h >= 1"),
        ("sags", {"p": 1.5}, r"p=1.5 is out of range: need 0 <= p <= 1"),
        ("sags", {"p": -0.1}, r"p=-0.1 is out of range"),
        ("mosso", {"e": 1.1}, r"e=1.1 is out of range: need 0 <= e <= 1"),
        ("mosso", {"c": 0}, r"c=0 is out of range: need c >= 1"),
        ("mosso", {"time_limit_s": -0.5}, r"time_limit_s=-0.5 is out of range: need time_limit_s >= 0"),
        ("randomized", {"max_candidates": 0}, r"max_candidates=0 is out of range"),
        ("randomized", {"time_limit_s": -1.0}, r"time_limit_s=-1.0 is out of range"),
        ("sweg", {"T": -1}, r"T=-1 is out of range: need T >= 0"),
    ], ids=["sags-b_above_h", "sags-b0", "sags-h0", "sags-p_above_1", "sags-p_below_0",
            "mosso-e", "mosso-c", "mosso-time_limit", "randomized-max_candidates",
            "randomized-time_limit", "sweg-T"])
    def test_bad_parameters_rejected(self, entry, kwargs, msg):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        run = {"sweg": sweg, "sags": sags, "randomized": randomized, "mosso": mosso}[entry]
        with pytest.raises(ValueError, match=msg):
            run(None, edges, 3, **kwargs)
