"""Unit tests of the per-group merge worker (Algorithm 2 internals)."""
import pytest

from repro.core import groupmerge as gm
from repro.core import localenc as L
from repro.core.dispatch import MERGE


def make_worker(roots, hedges=(), pedges=(), ext=(), radj=(), sizes=None,
                theta=0.0, seed=0, hb=0):
    """Build a GroupWorker from terse tuples."""
    all_nodes = set(roots)
    for p, c in hedges:
        all_nodes.add(p)
        all_nodes.add(c)
    # root of each node: walk up
    parent = {c: p for p, c in hedges}

    def rootof(v):
        while v in parent:
            v = parent[v]
        return v

    children = {}
    for p, c in hedges:
        children.setdefault(p, []).append(c)

    def sz(v):
        kids = children.get(v)
        if not kids:
            return 1
        return sum(sz(c) for c in kids)

    nodes = [(v, sizes[v] if sizes else sz(v), rootof(v)) for v in sorted(all_nodes)]
    return gm.GroupWorker(
        gid=0, t=1, theta=theta, seed=seed, hb=hb, roots=list(roots), nodes=nodes,
        hedges=list(hedges), pedges=list(pedges), ext=list(ext), radj=list(radj),
    )


U0 = gm.new_id(1, 0, 0)


class TestBookkeeping:
    def test_initial_costs(self):
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (1, 2, 1)])
        assert w.inc[0] == 1 and w.inc[1] == 2 and w.inc[2] == 1
        assert w.pcnt(0, 1) == 1 and w.pcnt(0, 2) == 0

    def test_treeof_after_merge(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)])
        w.merge(0, 1, U0)
        assert w.treeof(0) == U0 and w.treeof(1) == U0 and w.treeof(U0) == U0

    def test_merge_updates_size_height_hcount(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)])
        w.merge(0, 1, U0)
        assert w.size[U0] == 2 and w.height[U0] == 1 and w.hcount[U0] == 2

    def test_pmap_rekeyed_after_merge(self):
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)])
        w.merge(0, 1, U0)
        # case2 lifts (0,2),(1,2) -> (U0,2); counts follow
        assert w.pcnt(U0, 2) == 1
        assert w.edges == {(2, U0): 1}

    def test_ext_lift_is_virtual(self):
        w = make_worker([0, 1], ext=[(0, 99, 1), (1, 99, 1)])
        before = w.inc[0] + w.inc[1]
        w.merge(0, 1, U0)
        assert w.ext_adj[U0] == {99: 1}
        assert w.inc[U0] == before - 1


class TestSaving:
    def test_twin_singletons_sharing_member_neighbor(self):
        # 0 and 1 both connected to 2: case2 lift saves 1, h-edges cost 2
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)],
                        radj=[(0, 2), (1, 2)])
        s = w.saving(0, 1)
        # den=2, num=0+0+2+2-0+0-1-0=3 -> saving=-0.5
        assert s == pytest.approx(-0.5)

    def test_connected_pair_in_triangle(self):
        # triangle 0-1-2: den=3 (edges 01,02,12 once each); merging 0,1
        # costs 2 h-edges, Case 2 lifts (0,2)+(1,2) -> (U,2): num=4
        w = make_worker([0, 1, 2],
                        pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)],
                        radj=[(0, 1), (0, 2), (1, 2)])
        assert w.saving(0, 1) == pytest.approx(1 - 4 / 3)

    def test_connected_pair_in_k4_breaks_even(self):
        # K4: two Case-2 lifts exactly pay for the two new h-edges
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        ra = [(a, b) for a in range(4) for b in range(4) if a != b]
        w = make_worker([0, 1, 2, 3], pedges=pe, radj=ra)
        assert w.saving(0, 1) == pytest.approx(0.0)

    def test_height_bound_blocks(self):
        w = make_worker([0, 1], pedges=[(0, 1, 1)], hb=0)
        w2 = make_worker([0, 1], pedges=[(0, 1, 1)], hb=1)
        assert w.saving(0, 1) > gm.NO_MERGE
        # merging two singletons gives height 1 <= hb=1: allowed
        assert w2.saving(0, 1) > gm.NO_MERGE
        w3 = make_worker([10, 11], hedges=[(10, 0), (10, 1), (11, 2), (11, 3)],
                         pedges=[(10, 11, 1)], hb=1)
        assert w3.saving(10, 11) == gm.NO_MERGE

    def test_isolated_pair_never_merges(self):
        w = make_worker([0, 1])
        assert w.saving(0, 1) == gm.NO_MERGE


class TestMergeEncoding:
    def test_dense_pair_collapses(self):
        # two internal supernodes, dense inside and across
        w = make_worker(
            [10, 11],
            hedges=[(10, 0), (10, 1), (11, 2), (11, 3)],
            pedges=[(10, 10, 1), (11, 11, 1), (10, 11, 1)],
        )
        w.merge(10, 11, U0)
        assert w.edges == {(U0, U0): 1}

    def test_case2_consolidates_member_neighbor(self):
        w = make_worker([0, 1, 2], pedges=[(0, 2, 1), (1, 2, 1)])
        w.merge(0, 1, U0)
        assert w.edges == {(2, U0): 1}
        assert w.inc[2] == 1 and w.inc[U0] == 1

    # C = 20 has children 10 (itself internal: 2, 3) and 4; A = 0 and B = 1
    # are leaves. Edges A-10, A-4, B-4 are Case-2 rows (A,C0), (A,C1),
    # (B,C1); B-2 reaches a grandchild of C and stays out of scope.
    C_TREE = [(20, 10), (20, 4), (10, 2), (10, 3)]
    C_EDGES = [(0, 10, 1), (0, 4, 1), (1, 4, 1), (1, 2, 1)]

    def test_case2_to_children_of_internal_root(self):
        w = make_worker([0, 1, 20], hedges=self.C_TREE, pedges=self.C_EDGES)
        # 3 rows -> p(U,C) + n(B,C0): den = 4, num = 2 + 4 - 1 = 5
        assert w.saving(0, 1) == -0.25
        w.merge(0, 1, U0)
        assert w.edges == {(1, 2): 1, (20, U0): 1, (1, 10): -1}

    def test_case2_row_order_does_not_matter(self):
        w = make_worker([0, 1, 20], hedges=self.C_TREE, pedges=self.C_EDGES)
        want = w.saving(0, 1)
        w.merge(0, 1, U0)
        before = L.stats()
        w2 = make_worker([0, 1, 20], hedges=self.C_TREE, pedges=self.C_EDGES[::-1])
        assert w2.saving(0, 1) == want
        w2.merge(0, 1, U0)
        assert w2.edges == w.edges
        after = L.stats()
        assert after["outcome_misses"] == before["outcome_misses"]
        assert after["outcome_hits"] == before["outcome_hits"] + 2

    def test_run_respects_theta(self):
        # theta=0.6 > any achievable saving here -> no merges
        w = make_worker([0, 1, 2], pedges=[(0, 1, 1), (0, 2, 1), (1, 2, 1)],
                        radj=[(0, 1), (0, 2), (1, 2)], theta=0.6)
        w.run()
        assert w.merges == []

    def test_run_merges_at_zero_theta(self):
        # K4 break-even merges are admitted when theta reaches 0 (t = T)
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        ra = [(a, b) for a in range(4) for b in range(4) if a != b]
        w = make_worker([0, 1, 2, 3], pedges=pe, radj=ra, theta=0.0)
        w.run()
        assert len(w.merges) >= 1

    def test_output_schema(self):
        # K4 merges at theta=0: output is (merges, p/n-edges) as int triples
        pe = [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
        ra = [(a, b) for a in range(4) for b in range(4) if a != b]
        w = make_worker([0, 1, 2, 3], pedges=pe, radj=ra, theta=0.0)
        w.run()
        merges, pedges = w.output()
        assert merges == w.merges and len(merges) >= 1
        assert all(len(m) == 3 and m[2] >= gm.ID_BASE for m in merges)
        assert sorted(pedges) == sorted((x, y, s) for (x, y), s in w.edges.items())


def group_rows(gid, pairs):
    """Worker rows of one group of singleton roots joined by ``pairs``."""
    vs = sorted({v for pair in pairs for v in pair})
    rows = [(gid, gm.ROOT, v, 0, 0) for v in vs]
    rows += [(gid, gm.NODE, v, 1, v) for v in vs]
    for a, b in pairs:
        rows.append((gid, gm.PEDGE, a, b, 1))
        rows += [(gid, gm.RADJ, a, b, 0), (gid, gm.RADJ, b, a, 0)]
    return rows


def clique_rows(gid, n, base=0):
    return group_rows(gid, [(a, b) for a in range(base, base + n)
                            for b in range(a + 1, base + n)])


def as_lists(rows):
    """(gid, kind, x, y, v) rows -> run_group's parallel lists, by kind."""
    _, kind, x, y, v = (list(c) for c in zip(*sorted(rows, key=lambda r: r[1])))
    return kind, x, y, v


class TestRunGroup:
    def test_empty_group(self):
        assert gm.run_group(0, [], [], [], [], 1, 5, 0, 0) == []

    def test_deterministic_in_seed(self):
        lists = as_lists(clique_rows(0, 6))
        o1 = gm.run_group(0, *lists, 1, 1, 42, 0)
        o2 = gm.run_group(0, *lists, 1, 1, 42, 0)
        assert o1 == o2
        assert any(r[0] == MERGE for r in o1), "a 6-clique merges at theta=0"

    def test_new_ids_unique_across_groups(self):
        ids = {gm.new_id(t, g, s) for t in (1, 2) for g in (0, 1, 7) for s in (0, 1)}
        assert len(ids) == 12
        assert min(ids) >= gm.ID_BASE
