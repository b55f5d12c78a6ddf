"""Sort-based integer-column primitives shared by the trace layer and kernels.

Two jobs recur across the profiler's array code: counting or listing the
distinct values of one int64 column, and ordering or grouping rows of
several parallel int64 columns.  Both are answered here with one sort:

* :func:`unique_sorted` is ``np.unique`` as a sort plus an adjacent
  compare.  On recent numpy a plain ``np.unique`` of an int64 column takes a
  hash path that is several times slower at every size the profiler sees.
* :func:`pack_columns` folds parallel columns into as few int64 keys as
  their value ranges allow (mixed radix, most significant column first), so
  :func:`sort_rows` and :func:`group_rows` sort one key where a lexsort
  would sort every column.
"""

from __future__ import annotations

import numpy as np

#: A column at least this wide keeps its raw values in a key of its own:
#: shifting it by its minimum could wrap around int64.
_WIDE = 1 << 62
#: Radix product one int64 key can hold (its largest value is one less).
_KEY_SPAN = 1 << 63


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, equal to ``np.unique(values)``."""
    s = np.sort(values)
    if len(s) < 2:
        return s
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def pack_columns(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Pack parallel integer columns into int64 sort keys.

    Rows compare over the returned keys (most significant first) exactly as
    they compare lexicographically over ``cols``.  Each column contributes
    its offset from its minimum times the product of the ranges of the
    columns after it in the same key; a new key starts whenever the next
    range would overflow int64, and a column whose range reaches 2**62
    keeps its raw values in a key of its own.  Constant columns are
    dropped, so an empty, one-row or all-constant input yields no key.
    """
    if len(cols[0]) == 0:
        return []
    keys: list[np.ndarray] = []
    acc: np.ndarray | None = None
    span = 1
    for col in cols:
        c = np.asarray(col, dtype=np.int64)
        lo = int(c.min())
        width = int(c.max()) - lo
        if width == 0:
            continue
        if width >= _WIDE:
            if acc is not None:
                keys.append(acc)
                acc, span = None, 1
            keys.append(c)
            continue
        radix = width + 1
        if acc is not None and span * radix > _KEY_SPAN:
            keys.append(acc)
            acc, span = None, 1
        shifted = c - lo
        acc = shifted if acc is None else acc * radix + shifted
        span *= radix
    if acc is not None:
        keys.append(acc)
    return keys


def _order(keys: list[np.ndarray], n: int) -> np.ndarray:
    if not keys:
        return np.arange(n, dtype=np.intp)
    if len(keys) == 1:
        return np.argsort(keys[0])
    return np.lexsort(keys[::-1])


def sort_rows(cols: list[np.ndarray]) -> np.ndarray:
    """Row order sorting ``cols`` lexicographically, most significant first.

    Equal to ``np.lexsort(cols[::-1])`` whenever no two rows are identical
    (identical rows may come in either order).
    """
    return _order(pack_columns(cols), len(cols[0]))


def group_rows(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group the identical rows of parallel (same-length) columns.

    Returns ``(order, starts)``: the rows in lexicographic order of ``cols``
    and the position in ``order`` where each group of identical rows
    begins, so group ``g`` is ``order[starts[g]:starts[g + 1]]`` and
    ``c[order[starts]]`` holds each group's value of column ``c``.
    """
    n = len(cols[0])
    keys = pack_columns(cols)
    order = _order(keys, n)
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for k in keys:
        sk = k[order]
        change[1:] |= sk[1:] != sk[:-1]
    return order, np.flatnonzero(change)
