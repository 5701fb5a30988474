"""Shared fixtures."""

import os

import pytest

from recipspec.spectrum import pool_workers


@pytest.fixture
def set_workers(monkeypatch):
    """Call with n to give the worker pool n threads, whatever the CPU count.

    The pool sizes itself from the CPUs the process may run on, so the
    fixture replaces that CPU set; threads run on one CPU as well as on many.
    """
    def set_to(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        assert pool_workers() == n

    return set_to
