"""Tests of the group dispatch shared by SLUGGER and SWEG: one batch of
worker rows, any row order, run with either summarizer's group function."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import sweg
from repro.core import dispatch
from repro.core import groupmerge as gm
from tests.test_groupmerge import as_lists, clique_rows, group_rows


def slugger_batch():
    """Two cliques and a path, as SLUGGER worker rows of gids 3, 7, 9;
    the group function and the output kinds it emits."""
    path = group_rows(9, [(v, v + 1) for v in range(20, 28)])
    rows = clique_rows(3, 5) + clique_rows(7, 4, base=10) + path
    fn = lambda gid, kind, x, y, v: gm.run_group(gid, kind, x, y, v, 1, 1, 42, 0)  # noqa: E731
    return rows, fn, {dispatch.MERGE, gm.PEDGE}


def sweg_batch():
    """The same graph plus one cross edge, as SWEG worker rows."""
    pairs = ([(a, b) for a in range(5) for b in range(a + 1, 5)]
             + [(a, b) for a in range(10, 14) for b in range(a + 1, 14)]
             + [(v, v + 1) for v in range(20, 28)] + [(4, 10)])
    src, dst = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    gid_of = {v: 3 for v in range(5)} | {v: 7 for v in range(10, 14)} | {v: 9 for v in range(20, 29)}
    rows = sweg._worker_rows(np.arange(29, dtype=np.int64), src, dst, gid_of, [True] * 10)
    fn = lambda gid, kind, x, y, v: sweg.run_group(gid, kind, x, y, v, 1, 1, 42)  # noqa: E731
    return rows, fn, {dispatch.MERGE}


@pytest.mark.parametrize("batch", [slugger_batch, sweg_batch], ids=["slugger", "sweg"])
class TestRunBucket:
    @staticmethod
    def frame(rows):
        df = pd.DataFrame(rows, columns=["gid", "kind", "x", "y", "v"], dtype=np.int64)
        df.insert(0, "row", np.arange(len(df), dtype=np.int64))
        df.insert(0, "bucket", 0)
        return df

    def test_empty_batch(self, batch):
        _, fn, _ = batch()
        out = dispatch.run_bucket(self.frame([]), fn)
        assert len(out) == 0 and list(out.columns) == ["kind", "x", "y", "v"]

    def test_batch_equals_groups_in_any_row_order(self, batch):
        # three groups' rows shuffled together: run_bucket restores the
        # driver's row order and runs each group exactly as a direct call
        # does (SLUGGER's path never merges, so its p/n-edges come back in
        # row order)
        rows, fn, kinds = batch()
        df = self.frame(rows).sample(frac=1.0, random_state=0)
        out = dispatch.run_bucket(df, fn)
        want = []
        for gid in (3, 7, 9):
            want += fn(gid, *as_lists(r for r in rows if r[0] == gid))
        assert list(out.itertuples(index=False, name=None)) == want
        assert set(out["kind"]) == kinds
