"""The merging step (Algorithm 2) executed per candidate set.

Each candidate set (group) of root nodes is processed by ``GroupWorker``:
a sequential randomized greedy loop that pops a random root A, finds the
member B maximizing ``Saving(A, B)`` (Eq. 8), and merges them when the
saving clears the iteration threshold θ(t) (Eq. 9). Mergers re-encode
p/n-edges locally via the memoized Case-1/Case-2 solvers
(:mod:`repro.core.localenc`) and track the cross-group consolidation the
global phase (:mod:`repro.core.consolidate`) will apply, so local Saving
scores match the global outcome. ``saving()`` and ``merge()`` share one
path: the Case-2 rows of every connected root C come from one pass over
the adjacency of the yellow panel, sorted into the memo key of
``localenc.case2_outcome``; ``saving()`` adds up the memoized deltas and
``merge()`` applies the memoized replacement.

Worker input is one group's int64 rows ``(gid, kind, x, y, v)``, handed
over by :mod:`repro.core.dispatch` as Python lists sorted by kind
(``ROOT..RADJ``); the driver sends only groups holding two or more roots
(DESIGN.md §3.2). :func:`run_group` returns the worker's merges as
``(dispatch.MERGE, A, B, U)`` rows and its p/n-edges as ``(PEDGE, x, y,
sign)`` rows. Groups are independent (per-gid RNG seed and supernode
ids), so the local and Spark engines give the same summary.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import defaultdict

from . import localenc as L
from .dispatch import MERGE

# worker row kinds, in the order a worker consumes them
ROOT, NODE, HEDGE, PEDGE, EXT, RADJ = range(6)

ID_BASE = 1 << 40  # internal supernode ids live above all subnode ids
NO_MERGE = -10**18  # Saving sentinel for infeasible pairs


T_BITS, GID_BITS, SEQ_BITS = 7, 24, 10  # field widths of new_id


def new_id(t: int, gid: int, seq: int) -> int:
    """Globally unique internal supernode id, collision-free across groups
    and iterations. ``slugger()`` checks t < 2**T_BITS and gid < n_sub <
    2**GID_BITS up front; seq < 2**SEQ_BITS holds because a group has at
    most ``candidates.MAX_SIZE`` roots."""
    return ID_BASE + (((t << GID_BITS) | gid) << SEQ_BITS) + seq


def _canon(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x <= y else (y, x)


class GroupWorker:
    """Mutable in-memory state of one candidate set during Algorithm 2."""

    def __init__(self, gid: int, t: int, theta: float, seed: int, hb: int,
                 roots, nodes, hedges, pedges, ext, radj):
        """``roots``: root ids; ``nodes``: (node, size, root) for every tree
        node; ``hedges``: (parent, child); ``pedges``: intra-group
        (x, y, sign); ``ext``: (member node, external node, sign);
        ``radj``: (member root, adjacent root) G-adjacency."""
        self.gid, self.t, self.theta, self.hb = gid, t, theta, hb
        self.rng = random.Random(seed)
        self.roots: set[int] = set(roots)
        # --- tree structure ---
        self.children: dict[int, list[int]] = defaultdict(list)
        self.parent: dict[int, int] = {}
        for p, c in hedges:
            self.children[p].append(c)
            self.parent[c] = p
        self.size: dict[int, int] = {}
        self.static_root: dict[int, int] = {}
        for v, sz, r in nodes:
            self.size[v] = sz
            self.static_root[v] = r
        # DSU over root labels: label -> newer label after a merge
        self.label_up: dict[int, int] = {}
        # per-root aggregates
        self.height: dict[int, int] = {}
        self.hcount: dict[int, int] = {}
        # pruning-aware hierarchy cost: every edge-less non-leaf supernode
        # will be reclaimed by pruning Step 1 (one h-edge each), so Saving
        # charges the *effective* h-cost eff_h = hcount - zero_internal
        # (DESIGN.md §3.1 — deviation from the literal Eq. 8, which made the
        # greedy systematically under-merge relative to the paper's results)
        self.ndeg: dict[int, int] = defaultdict(int)
        self.zero_internal: dict[int, int] = defaultdict(int)
        for r in self.roots:
            self.height[r] = self._calc_height(r)
            self.hcount[r] = self._calc_hcount(r)
            stack = [r]
            while stack:
                v = stack.pop()
                kids = self.children.get(v, [])
                if kids:
                    self.zero_internal[r] += 1  # no edges seen yet
                    stack.extend(kids)
        # --- p/n-edges (intra-group) ---
        self.edges: dict[tuple[int, int], int] = {}
        self.adj: dict[int, dict[int, int]] = defaultdict(dict)
        self.pmap: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.inc: dict[int, int] = defaultdict(int)
        for x, y, s in pedges:
            self._add_edge(x, y, s)
        # --- edges to external supernodes ---
        self.ext_adj: dict[int, dict[int, int]] = defaultdict(dict)
        for x, y, s in ext:
            self.ext_adj[x][y] = s
            self.inc[self.treeof(x)] += 1
            self._bump_ndeg(x, 1)
        # --- root-level G-adjacency for the distance<=2 candidate filter ---
        self.nbr: dict[int, set[int]] = defaultdict(set)  # member neighbors
        self.extnbr: dict[int, set[int]] = defaultdict(set)  # external neighbors
        for a, b in radj:
            if b in self.roots:
                self.nbr[a].add(b)
                self.nbr[b].add(a)
            else:
                self.extnbr[a].add(b)
        self.merges: list[tuple[int, int, int]] = []  # (A, B, U)

    # ------------------------------------------------------------------ util

    def treeof(self, node: int) -> int:
        """Current root of the tree containing ``node`` (path-halving DSU)."""
        r = self.static_root.get(node, node)
        while r in self.label_up:
            up = self.label_up[r]
            if up in self.label_up:  # path halving
                self.label_up[r] = self.label_up[up]
            r = self.label_up[r]
        return r

    def _calc_height(self, r: int) -> int:
        """Iterative tree height (pre-pruning trees can be very deep)."""
        best, stack = 0, [(r, 0)]
        while stack:
            v, d = stack.pop()
            kids = self.children.get(v)
            if not kids:
                best = max(best, d)
            else:
                stack.extend((c, d + 1) for c in kids)
        return best

    def _calc_hcount(self, r: int) -> int:
        """Number of h-edges in the tree rooted at r (iterative)."""
        total, stack = 0, [r]
        while stack:
            v = stack.pop()
            kids = self.children.get(v, [])
            total += len(kids)
            stack.extend(kids)
        return total

    # --------------------------------------------------------- edge plumbing

    def _bump_ndeg(self, x: int, d: int) -> None:
        """Track per-node incident-edge counts; transitions of non-leaf
        nodes between edge-less and not adjust the effective h-cost."""
        before = self.ndeg[x]
        self.ndeg[x] = before + d
        if x in self.children and self.children[x]:
            if before == 0 and d > 0:
                self.zero_internal[self.treeof(x)] -= 1
            elif before + d == 0 and d < 0:
                self.zero_internal[self.treeof(x)] += 1

    def eff_h(self, r: int) -> int:
        """Post-Step-1 hierarchy cost of tree r (each edge-less non-leaf
        will be pruned, reclaiming one h-edge)."""
        return self.hcount[r] - self.zero_internal.get(r, 0)

    def _add_edge(self, x: int, y: int, s: int) -> None:
        key = _canon(x, y)
        assert key not in self.edges, f"duplicate edge {key}"
        self.edges[key] = s
        self.adj[x][y] = s
        if x != y:
            self.adj[y][x] = s
        rx, ry = self.treeof(x), self.treeof(y)
        a, b = _canon(rx, ry)
        self.pmap[a][b] += 1
        if a != b:
            self.pmap[b][a] += 1
        self.inc[rx] += 1
        if ry != rx:
            self.inc[ry] += 1
        self._bump_ndeg(x, 1)
        if y != x:
            self._bump_ndeg(y, 1)

    def _remove_edge(self, x: int, y: int) -> None:
        key = _canon(x, y)
        del self.edges[key]
        del self.adj[x][y]
        if x != y:
            del self.adj[y][x]
        rx, ry = self.treeof(x), self.treeof(y)
        a, b = _canon(rx, ry)
        self.pmap[a][b] -= 1
        if a != b:
            self.pmap[b][a] -= 1
        self.inc[rx] -= 1
        if ry != rx:
            self.inc[ry] -= 1
        self._bump_ndeg(x, -1)
        if y != x:
            self._bump_ndeg(y, -1)

    def pcnt(self, a: int, b: int) -> int:
        return self.pmap[a].get(b, 0)

    # ---------------------------------------------------------- panel lookup

    def _panel(self, root: int, base: int, c0: int, c1: int):
        """(labels, reals, n_atoms, singleton flags) for one side S̄_root."""
        kids = self.children.get(root, [])
        if not kids:
            return [base], [root], 1, (self.size[root] == 1,)
        assert len(kids) == 2, f"non-binary supernode {root} during merging"
        return (
            [base, c0, c1],
            [root, kids[0], kids[1]],
            2,
            (self.size[kids[0]] == 1, self.size[kids[1]] == 1),
        )

    def _case1(self, a_root: int, b_root: int):
        """Yellow panel S̄_A ∪ S̄_B before the merge: (labels, reals, na, nb,
        singleton flags, Case-1 rows (label_x, label_y, sign))."""
        la, ra, na, fa = self._panel(a_root, L.A, L.A0, L.A1)
        lb, rb, nb, fb = self._panel(b_root, L.B, L.B0, L.B1)
        labels = la + lb
        reals = ra + rb
        rows = []
        for i in range(len(reals)):
            for j in range(i, len(reals)):
                s = self.edges.get(_canon(reals[i], reals[j]))
                if s is not None:
                    rows.append((labels[i], labels[j], s))
        return labels, reals, na, nb, fa + fb, tuple(rows)

    def _case2(self, labels: list[int], reals: list[int]):
        """Case-2 inputs of every root C with a p/n-edge between the yellow
        panel and S̄_C, in one pass over the panel's adjacency: (C, n_C,
        rows) with rows (label_x, label_y, sign) sorted by (label_x,
        label_y). An edge to a node deeper than C's children is not in
        scope."""
        panel = set(reals)
        rows_of: dict[int, list[tuple[int, int, int]]] = {}
        for lx, x in zip(labels, reals):
            for y, s in self.adj.get(x, {}).items():
                if y in panel:
                    continue
                c = self.treeof(y)
                if y == c:
                    ly = L.C
                elif self.parent.get(y) == c:
                    ly = L.C0 if self.children[c][0] == y else L.C1
                else:
                    continue
                rows_of.setdefault(c, []).append((lx, ly, s))
        return [(c, 2 if self.children.get(c) else 1, tuple(sorted(r)))
                for c, r in rows_of.items()]

    def _shared_ext(self, a: int, b: int) -> list[tuple[int, int]]:
        """Root-level external (Y, sign) present at both A and B — exactly
        what the global consolidation phase will lift to (U, Y)."""
        ea, eb = self.ext_adj.get(a, {}), self.ext_adj.get(b, {})
        if len(eb) < len(ea):
            ea, eb = eb, ea
        return [(y, s) for y, s in ea.items() if eb.get(y) == s]

    # --------------------------------------------------------------- scoring

    def saving(self, a: int, b: int) -> float:
        """Eq. (8) with pruning-aware hierarchy cost: 1 − Cost_{A∪B}(Ĝ) /
        (Cost_A + Cost_B − Cost^P_{A,B}), where Cost^H charges only
        h-edges that survive pruning Step 1 (edge-less non-leaves are free)."""
        if self.hb and max(self.height[a], self.height[b]) + 1 > self.hb:
            return NO_MERGE
        den = self.eff_h(a) + self.eff_h(b) + self.inc[a] + self.inc[b] - self.pcnt(a, b)
        if den <= 0:
            return NO_MERGE
        labels, reals, na, nb, flags, rows = self._case1(a, b)
        _, d, deltas = L.case1_outcome(na, nb, flags, rows)
        du, da, db = deltas[L.U], deltas[L.A], deltas[L.B]
        for _, nc, rows2 in self._case2(labels, reals):
            _, d2, deltas = L.case2_outcome(na, nb, nc, rows2)
            d += d2
            du += deltas[L.U]
            da += deltas[L.A]
            db += deltas[L.B]
        dext = len(self._shared_ext(a, b))
        # h-cost adjustment: nodes left edge-less by the rewrite get pruned
        adj = 0
        for root_node, delta in ((a, da), (b, db)):
            if self.children.get(root_node):
                after = self.ndeg[root_node] + delta - dext
                if self.ndeg[root_node] > 0 and after == 0:
                    adj += 1
                elif self.ndeg[root_node] == 0 and after > 0:
                    adj -= 1
        if du + dext == 0:
            adj += 2  # U itself would be pruned (the merge is a no-op)
        num = (
            self.eff_h(a) + self.eff_h(b) + 2 - adj
            + self.inc[a] + self.inc[b] - self.pcnt(a, b)
            + d - dext
        )
        return 1.0 - num / den

    # --------------------------------------------------------------- merging

    def merge(self, a: int, b: int, u: int) -> None:
        """Merge roots a, b into new root u and re-encode locally."""
        # Case-1/Case-2 geometry is computed against the *pre-merge* trees.
        labels, reals, na, nb, flags, rows = self._case1(a, b)
        plan = [(c, rows2, L.case2_outcome(na, nb, nc, rows2)[0])
                for c, nc, rows2 in self._case2(labels, reals)]
        sol1 = L.case1_outcome(na, nb, flags, rows)[0]
        shared = self._shared_ext(a, b)

        # --- structural merge ---
        self.children[u] = [a, b]
        self.parent[a] = u
        self.parent[b] = u
        self.size[u] = self.size[a] + self.size[b]
        self.static_root[u] = u
        self.height[u] = max(self.height[a], self.height[b]) + 1
        self.hcount[u] = self.hcount[a] + self.hcount[b] + 2
        # U starts edge-less (non-leaf); later edge mutations flip it back
        self.zero_internal[u] = (
            self.zero_internal.pop(a, 0) + self.zero_internal.pop(b, 0) + 1
        )
        # re-key per-root aggregates BEFORE relabeling the DSU
        self.inc[u] = self.inc[a] + self.inc[b] - self.pcnt(a, b)
        pu: dict[int, int] = defaultdict(int)
        for other, cnt in list(self.pmap[a].items()) + list(self.pmap[b].items()):
            if other not in (a, b):
                pu[other] += cnt
        # within-U count: within-A + within-B + cross(A,B), cross counted once
        pu[u] = (
            self.pmap[a].get(a, 0) + self.pmap[b].get(b, 0) + self.pmap[a].get(b, 0)
        )
        if pu[u] == 0:
            del pu[u]
        self.pmap[u] = pu
        for other in list(pu.keys()):
            if other == u:
                continue
            om = self.pmap[other]
            om[u] = om.pop(a, 0) + om.pop(b, 0)
            if om[u] == 0:
                del om[u]
        self.label_up[a] = u
        self.label_up[b] = u
        self.roots.discard(a)
        self.roots.discard(b)
        self.roots.add(u)
        # G-level adjacency for the distance filter
        self.nbr[u] = {self.treeof(x) for x in (self.nbr.pop(a, set()) | self.nbr.pop(b, set()))} - {u}
        self.extnbr[u] = self.extnbr.pop(a, set()) | self.extnbr.pop(b, set())
        for z in self.nbr[u]:
            self.nbr[z].discard(a)
            self.nbr[z].discard(b)
            self.nbr[z].add(u)

        # --- apply Case 1, then Case 2 per connected root ---
        label2real = dict(zip(labels, reals))
        label2real[L.U] = u
        self._rewrite(label2real, rows, sol1)
        for c, rows2, sol2 in plan:
            label2real.update(zip((L.C, L.C0, L.C1), [c, *self.children.get(c, ())]))
            self._rewrite(label2real, rows2, sol2)
        # --- mirror the global consolidation locally (virtual lift) ---
        for y, s in shared:
            del self.ext_adj[a][y]
            del self.ext_adj[b][y]
            self.ext_adj[u][y] = s
            self.inc[u] -= 1
            self._bump_ndeg(a, -1)
            self._bump_ndeg(b, -1)
            self._bump_ndeg(u, 1)
        self.merges.append((a, b, u))

    def _rewrite(self, label2real: dict[int, int], rows, sol) -> None:
        """Replace the edges ``rows`` by ``sol`` (both labelled); None keeps
        the old edges."""
        if sol is None:
            return
        for lx, ly, _ in rows:
            self._remove_edge(label2real[lx], label2real[ly])
        for lx, ly, s in sol:
            self._add_edge(label2real[lx], label2real[ly], s)

    # ------------------------------------------------------------- main loop

    def candidates(self, a: int, q: list[int]) -> list[int]:
        """Members of Q within distance 2 of A in G (Lemma 1 filter)."""
        na_, ea_ = self.nbr[a], self.extnbr[a]
        out = []
        for z in q:
            if z in na_ or (na_ & self.nbr[z]) or (ea_ & self.extnbr[z]):
                out.append(z)
        return out

    def run(self) -> None:
        """Algorithm 2 over this group."""
        q = sorted(self.roots)
        self.rng.shuffle(q)
        seq = 0
        while len(q) > 1:
            a = q.pop()
            best, best_s = None, NO_MERGE
            for z in self.candidates(a, q):
                s = self.saving(a, z)
                if s > best_s:
                    best, best_s = z, s
            if best is not None and best_s >= self.theta:
                u = new_id(self.t, self.gid, seq)
                seq += 1
                self.merge(a, best, u)
                q.remove(best)
                # new root goes back into Q at a random position (Alg 2 l.8)
                q.insert(self.rng.randrange(len(q) + 1), u)

    # ----------------------------------------------------------------- I/O

    def output(self) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """(merges (A, B, U) in merge order, p/n-edges (x, y, sign))."""
        return self.merges, [(x, y, s) for (x, y), s in self.edges.items()]


def run_group(gid: int, kind: list[int], x: list[int], y: list[int], v: list[int],
              t: int, big_t: int, seed: int, hb: int):
    """Algorithm 2 over one group's rows (parallel lists sorted by kind);
    returns the worker's ``output()`` as ``MERGE`` and ``PEDGE`` rows."""
    cut = [bisect_left(kind, k) for k in range(RADJ + 2)]

    def rows(k: int, *cols: list[int]):
        return zip(*(c[cut[k]:cut[k + 1]] for c in cols))

    w = GroupWorker(
        gid=gid,
        t=t,
        theta=1.0 / (1 + t) if t < big_t else 0.0,
        seed=(seed * 1_000_003 + t * 7919 + gid) & 0x7FFFFFFF,
        hb=hb,
        roots=x[cut[ROOT]:cut[ROOT + 1]],
        nodes=rows(NODE, x, y, v),
        hedges=rows(HEDGE, x, y),
        pedges=rows(PEDGE, x, y, v),
        ext=rows(EXT, x, y, v),
        radj=rows(RADJ, x, y),
    )
    w.run()
    merges, pedges = w.output()
    return [(MERGE, *m) for m in merges] + [(PEDGE, *p) for p in pedges]
