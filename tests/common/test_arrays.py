"""Sort-based column primitives: distinct values, packed keys, grouping.

Each helper is checked against the plain reference it replaces —
``np.unique``, ``np.lexsort`` and a tuple-based grouping — including
int64-extreme values, where shifting a column by its minimum would wrap.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.arrays import group_rows, pack_columns, sort_rows, unique_sorted

I64 = np.iinfo(np.int64)

#: Mostly small values (so rows repeat), with int64 extremes mixed in.
values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([int(I64.min), int(I64.min) + 1, int(I64.max) - 1, int(I64.max)]),
    st.integers(int(I64.min), int(I64.max)),
)


@st.composite
def column_sets(draw):
    """1-5 parallel int64 columns of 0-30 rows; some columns constant."""
    n = draw(st.integers(0, 30))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            col = [draw(values)] * n
        else:
            col = draw(st.lists(values, min_size=n, max_size=n))
        cols.append(np.array(col, dtype=np.int64))
    return cols


class TestUniqueSorted:
    @pytest.mark.parametrize(
        "data",
        [
            [],
            [7],
            [4, 4, 4, 4],
            [int(I64.max), int(I64.min), 0, int(I64.max), int(I64.min)],
        ],
        ids=["empty", "one", "constant", "extremes"],
    )
    def test_matches_np_unique(self, data):
        a = np.array(data, dtype=np.int64)
        got = unique_sorted(a)
        assert got.dtype == a.dtype
        assert got.tolist() == np.unique(a).tolist()

    def test_random_matches_np_unique(self):
        rng = np.random.default_rng(3)
        for n in (2, 100, 5000):
            a = rng.integers(-50, 50, n)
            assert np.array_equal(unique_sorted(a), np.unique(a))
            tid = a.astype(np.int32)
            assert np.array_equal(unique_sorted(tid), np.unique(tid))


class TestPackedKeys:
    @settings(max_examples=100, deadline=None)
    @given(cols=column_sets())
    def test_groups_match_tuple_grouping(self, cols):
        n = len(cols[0])
        order, starts = group_rows(cols)
        rows = list(zip(*(c.tolist() for c in cols)))
        got = [
            (rows[order[lo]], sorted(order[lo:hi].tolist()))
            for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), n])
        ]
        expected: dict[tuple, list[int]] = {}
        for i, row in enumerate(rows):
            expected.setdefault(row, []).append(i)
        assert got == sorted(expected.items())

    @settings(max_examples=100, deadline=None)
    @given(
        key=st.lists(values, max_size=30),
        data=st.data(),
    )
    def test_key_position_order_matches_lexsort(self, key, data):
        """The kernel's ``(key, position)`` sort: positions are distinct."""
        pos = data.draw(
            st.lists(values, min_size=len(key), max_size=len(key), unique=True)
        )
        k = np.array(key, dtype=np.int64)
        p = np.array(pos, dtype=np.int64)
        assert sort_rows([k, p]).tolist() == np.lexsort((p, k)).tolist()

    def test_one_row_and_constant_inputs_yield_no_key(self):
        one = [np.array([5]), np.array([int(I64.min)])]
        assert pack_columns(one) == []
        assert pack_columns([np.zeros(0, dtype=np.int64)]) == []
        const = [np.full(4, 9), np.full(4, int(I64.max))]
        assert pack_columns(const) == []
        order, starts = group_rows(const)
        assert order.tolist() == [0, 1, 2, 3] and starts.tolist() == [0]
        order, starts = group_rows(one)
        assert order.tolist() == [0] and starts.tolist() == [0]

    def test_keys_are_as_few_as_the_ranges_allow(self):
        narrow = [np.arange(8) % k for k in (2, 3, 5, 7)]
        assert len(pack_columns(narrow)) == 1
        wide = np.array([int(I64.min), 0, int(I64.max)])
        # A column spanning the whole int64 range keeps a key of its own.
        keys = pack_columns([np.arange(3), wide, np.arange(3)])
        assert len(keys) == 3
        assert keys[1].tolist() == wide.tolist()
