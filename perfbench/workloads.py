"""The benchmark's workloads: input graph from the seed, T, and the
number of BFS sources of the read path.

Every cycle of the closed loop (``bench.py``) runs the same steps, so
every workload reports every end-to-end metric:

1. ``summarize``: one ``slugger()`` call (local engine, algorithm seed 0);
2. ``query``: build a ``NeighborIndex`` on the SLUGGER summary, then
   query chunks, each one pass of ``neighbors(v)`` over every node, one
   BFS round from ``bfs_sources`` sources (every k-th node, offset by the
   seed, so the sources cover the id range and every component evenly)
   and one full ``decode_pd``;
3. ``sweg``: one ``sweg()`` call on the same input and T, then more
   query chunks.

The inputs differ so that a layer a later change may optimise does most
of the work on one workload and little on the other:

- ``merge_sparse``: a power-law social graph. About 80% of candidate
  sets hold a single root, so per-group marshalling
  (``GroupWorker.__init__``, ``output()``, ``run_group`` framing) is the
  largest share of ``slugger()`` (about 60%).
- ``merge_dense``: protein-complex graphs. About 5% of candidate sets
  hold a single root, and Algorithm 2 (``saving`` and the local-encoding
  search) is about 75% of ``slugger()``, marshalling about 16%.

SLUGGER's randomized grouping and merge order make its cost on one small
graph vary by about +-30% from seed to seed. Each input is therefore
large enough, or made of enough independent components, that the seed
changes the structure but hardly the amount of work: over eight seeds,
timed in turn in one process, the quartiles of ``slugger()`` time lie
within 6% (merge_sparse) and 8% (merge_dense) of the median. The inputs
are kept small enough for four to six cycles in a 35-second run. They
come from the program's own generators; the program sees only the edge
list.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from repro.graphs import generators as gen


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], pd.DataFrame]  # seed -> canonical edge list
    T: int
    bfs_sources: int


def social(seed: int) -> pd.DataFrame:
    """Chung-Lu power-law graph with the registry's ``social_cl`` shape
    (average degree 10, exponent 2.3) at 600 nodes and 3,000 edges."""
    return gen.chung_lu(600, 10.0, exponent=2.3, seed=seed)


def complexes_fixed_size(seed: int, n_blocks: int, sub_size: int) -> pd.DataFrame:
    """A ``ppi_like``-shaped graph (blocks of two sub-units, block pairs
    interacting with probability 0.5) whose edge count is the nominal one.

    The number of interacting block pairs is binomial, which would let
    |E| vary between seeds. Seeds therefore vary *which* pairs interact but
    not *how many*: the first sub-seed whose graph has the nominal number
    of edges is used.
    """
    block = 2 * sub_size
    pairs = n_blocks * (n_blocks - 1) // 2
    nominal = n_blocks * block * (block - 1) // 2 + round(pairs * 0.5) * 3 * sub_size**2
    for attempt in range(10_000):
        edges = gen.complexes(
            n_blocks=n_blocks, sub_size=sub_size, p_cross=0.5, seed=seed * 10_000 + attempt
        )
        if len(edges) == nominal:
            return edges
    raise RuntimeError(f"no complexes graph with {nominal} edges for seed {seed}")


def protein_complexes(seed: int) -> pd.DataFrame:
    """Disjoint union of 16 complexes graphs of 4 blocks (sub-units of 6),
    768 nodes and 9,408 edges in all."""
    parts, offset = [], 0
    for j in range(16):
        e = complexes_fixed_size(seed * 100 + j, n_blocks=4, sub_size=6)
        parts.append(e + offset)
        offset += gen.n_nodes(e)
    return pd.concat(parts, ignore_index=True).astype(np.int64)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("merge_sparse", social, T=2, bfs_sources=16),
        Workload("merge_dense", protein_complexes, T=3, bfs_sources=96),
    )
}
