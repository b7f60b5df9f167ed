"""One memo for read-only grid arrays, bounded in bytes.

The tone and bin bases of :mod:`signals` and the LO voltage of
:mod:`engine` are pure functions of small hashable keys, and each is an
array as long as its grid.  They share this one memo.  It keeps at most
``BUDGET_BYTES`` of arrays, drops the least recently used array to make
room for a new one, and never keeps an array larger than the budget: that
one is built on every call and returned, not kept.

A default run keeps 19.7 MB: two arrays on the 1,179,648-sample
noise-figure grid (the LO voltage and the RF tone basis, 9.4 MB each) and
13 small ones on its short grids.

Threads may share the memo.  One lock guards its lookups, evictions and
insertions; arrays are built outside it.  When two threads build the same
array at once, the first one stored is kept and both get it.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Callable, NamedTuple

import numpy as np

# Most array bytes the memo holds at once: 32 MiB, 1.7 times what a default
# run keeps.  A float64 array of more than 4,194,304 samples (a complex one
# of more than 2,097,152) is larger and never kept.
BUDGET_BYTES = 32 * 2 ** 20

# (builder, *arguments) -> read-only array, least recently used first.
_arrays: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_counts = {"misses": 0, "nbytes": 0}
_lock = threading.Lock()


class MemoInfo(NamedTuple):
    misses: int
    arrays: int
    nbytes: int


def memoised(build: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``build``, its arrays kept in the memo under its positional arguments.

    ``build`` must return a fresh read-only array that depends on its
    arguments alone.  The wrapper's ``__wrapped__`` is ``build`` itself,
    for an array that is read once and should not enter the memo.
    """
    @functools.wraps(build)
    def lookup(*args) -> np.ndarray:
        key = (build, *args)
        with _lock:
            array = _arrays.get(key)
            if array is not None:
                _arrays.move_to_end(key)
                return array
            _counts["misses"] += 1
        array = build(*args)
        if array.nbytes > BUDGET_BYTES:
            return array
        with _lock:
            kept = _arrays.get(key)
            if kept is not None:  # another thread stored it while this one built
                _arrays.move_to_end(key)
                return kept
            while _counts["nbytes"] + array.nbytes > BUDGET_BYTES:
                _counts["nbytes"] -= _arrays.popitem(last=False)[1].nbytes
            _arrays[key] = array
            _counts["nbytes"] += array.nbytes
        return array
    return lookup


def info() -> MemoInfo:
    """Misses since the process started, and what the memo holds now."""
    with _lock:
        return MemoInfo(_counts["misses"], len(_arrays), _counts["nbytes"])


def clear():
    """Drop every kept array; the miss count stays."""
    with _lock:
        _arrays.clear()
        _counts["nbytes"] = 0
