import os

import pytest

from cpi3d import pool


def test_ordered_map_gives_the_serial_results_in_order(monkeypatch):
    """Plain integers, a generator the caller has half walked: at 2
    workers the child computes the odd items, and every result comes back
    in order and as the serial run gives it."""
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    parent = os.getpid()

    def square(i):
        return i * i, os.getpid() != parent

    for workers in (1, 2):
        items = (i for i in range(12))
        next(items)
        got = list(pool.ordered_map(items, square, workers))
        assert [(i, r) for i, (r, _) in got] == [(i, i * i) for i in range(1, 12)]
        assert [child for _, (_, child) in got] == [workers == 2 and i % 2 == 0
                                                    for i in range(1, 12)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
