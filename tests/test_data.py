"""Dataset: row subsets."""

import numpy as np
import pytest

from fpselect import DataError, Dataset, Family


def _dataset(family, n=316, p=9, seed=5):
    rng = np.random.default_rng(seed)
    cols = {f"x{j}": rng.standard_normal(n) for j in range(p)}
    cols["y"] = (rng.random(n) < 0.4).astype(float) if family is Family.BINOMIAL else rng.standard_normal(n)
    return Dataset.from_columns(cols, outcome="y", family=family)


class TestTakeRows:
    """`take_rows` builds its subset without checking again what its rows
    passed; the subset equals the one the checking constructor builds."""

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=lambda f: f.value)
    @pytest.mark.parametrize("scheme", ["subsample", "bootstrap", "single row"])
    def test_subset_equals_the_checked_one(self, family, scheme):
        ds = _dataset(family)
        rng = np.random.default_rng(11)
        idx = {"subsample": rng.choice(ds.n, 200, replace=False),
               "bootstrap": rng.integers(0, ds.n, ds.n),  # with repeats
               "single row": [7]}[scheme]
        subset = ds.take_rows(idx)
        checked = Dataset(ds.column_names, tuple(col[np.asarray(idx)] for col in ds.columns),
                          ds.outcome_index, ds.family)
        assert subset.column_names == checked.column_names
        assert (subset.outcome_index, subset.family, subset.n) == (
            checked.outcome_index, checked.family, len(idx))
        for got, want in zip(subset.columns, checked.columns, strict=True):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            assert not got.flags.writeable and not want.flags.writeable
        for col in ds.columns:  # the parent stays read-only and unchanged
            assert not col.flags.writeable

    def test_an_empty_or_a_multidimensional_index_raises(self):
        ds = _dataset(Family.GAUSSIAN, n=5)
        with pytest.raises(DataError, match="no rows"):
            ds.take_rows([])
        with pytest.raises(DataError, match="1-D"):
            ds.take_rows([[0, 1]])
        with pytest.raises(IndexError):
            ds.take_rows([5])
