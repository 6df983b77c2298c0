"""Global cross-group consolidation of p/n-edges (the distributed Case 2).

After each merging round, edges that cross candidate-set boundaries were
read-only inside the group workers. This phase lifts
``(A, Y, s) + (B, Y, s) → (A∪B, Y, s)`` whenever *all* children of an
internal supernode carry the same-sign edge to the same other supernode
— an exactly coverage-preserving rewrite (the children partition the
parent), applied to a fixpoint so lifts can cascade up both sides of an
edge. Workers estimate the one-level version of this when scoring
Saving(A, B), so merge decisions anticipate this phase (DESIGN.md §3.2).
"""
from __future__ import annotations

from collections import defaultdict


def consolidate(
    edges: list[tuple[int, int, int]],
    children: dict[int, list[int]],
) -> list[tuple[int, int, int]]:
    """Lift cross-group edges up the hierarchy to a fixpoint.

    ``edges``: (x, y, sign) p/n-edges (x != y, trees of x and y differ).
    ``children``: full child lists of every internal supernode.
    Returns the consolidated edge list (canonical x <= y).
    """
    parent: dict[int, int] = {}
    for p, kids in children.items():
        for c in kids:
            parent[c] = p
    eset: set[tuple[int, int, int]] = set()
    for x, y, s in edges:
        a, b = (x, y) if x <= y else (y, x)
        eset.add((a, b, s))

    changed = True
    while changed:
        changed = False
        cand: dict[tuple[int, int, int], set[int]] = defaultdict(set)
        for x, y, s in eset:
            for e, o in ((x, y), (y, x)):
                p = parent.get(e)
                if p is not None:
                    cand[(p, o, s)].add(e)
        for (p, o, s), present in sorted(cand.items()):
            kids = children[p]
            if not all(k in present for k in kids):
                continue
            # children's edges consumed by an earlier lift this pass, or a
            # pre-existing parent edge (lifting would double cover): skip
            keys = [(k, o, s) if k <= o else (o, k, s) for k in kids]
            lifted = (p, o, s) if p <= o else (o, p, s)
            if lifted in eset or not all(k in eset for k in keys):
                continue
            eset.difference_update(keys)
            eset.add(lifted)
            changed = True
    return sorted(eset)
