"""The byte-bounded grid-array memo shared by threads."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from mixbench import memo

ONE = 8 * 64  # bytes of one 64-sample float64 array


@pytest.fixture
def own_memo(monkeypatch):
    """An empty memo of three arrays, the module's own restored afterwards."""
    monkeypatch.setattr(memo, "BUDGET_BYTES", 3 * ONE)
    monkeypatch.setattr(memo, "_arrays", OrderedDict())
    monkeypatch.setattr(memo, "_counts", {"misses": 0, "nbytes": 0})


def filled(value):
    array = np.full(64, float(value))
    array.setflags(write=False)
    return array


def in_threads(target, count):
    """Run ``target(i)`` in ``count`` threads; return results, raise the first error."""
    results, errors = [None] * count, []

    def run(i):
        try:
            results[i] = target(i)
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    if errors:
        raise errors[0]
    return results


def test_two_threads_building_one_key_keep_it_once(own_memo):
    both_building = threading.Barrier(2, timeout=10)

    @memo.memoised
    def build(value):
        if value == 9:
            both_building.wait()  # neither thread stores before both have missed
        return filled(value)

    build(1), build(2)
    first, second = in_threads(lambda i: build(9), 2)
    # The first array stored is kept, and both threads get it.
    assert first is second
    assert build(9) is first
    info = memo.info()
    assert (info.misses, info.arrays) == (4, 3)
    assert info.nbytes == sum(a.nbytes for a in memo._arrays.values()) == 3 * ONE


def test_threads_share_a_small_memo(own_memo):
    @memo.memoised
    def build(value):
        return filled(value)

    def lookups(i):
        for n in range(300):
            assert build((i + n) % 5)[0] == (i + n) % 5
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        assert in_threads(lookups, 4) == [True] * 4
    finally:
        sys.setswitchinterval(interval)
    info = memo.info()
    assert info.arrays <= 3
    assert info.nbytes == sum(a.nbytes for a in memo._arrays.values()) == info.arrays * ONE
