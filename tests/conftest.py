"""Shared fixtures for the whole test tree."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger(monkeypatch, tmp_path_factory):
    """Point the run ledger at a per-test tmp dir.

    The ledger is on by default for every profiling command, so without
    this any test that drives the CLI would persist bundles into the real
    ``~/.ddprof/runs``.
    """
    monkeypatch.setenv(
        "DDPROF_LEDGER", str(tmp_path_factory.mktemp("ledger"))
    )


@pytest.fixture(autouse=True)
def _fresh_worker_pool():
    """Close the processes-mode worker pool before and after every test.

    The pool is forked on a process's first processes-mode run and reused
    after it, so without this a test would inherit the workers an earlier
    test forked, and a test that monkeypatches ``Worker`` methods would
    not reach workers forked before the patch.
    """
    from repro.parallel.pool import close_pool

    close_pool()
    yield
    close_pool()
