"""Shared fixtures."""

import pytest

from stratadyn import hurwitz


@pytest.fixture
def fresh_covers(monkeypatch):
    """Empty per-process cover memos for one test: the kept classes, the
    validated data and the shared cover values.  Counts of enumeration work
    and of `validate` calls then read this test's calls only, and the memos
    of the rest of the run are back in place after it."""
    for name in ("_CLASSES", "_VALUES", "_COVERS"):
        monkeypatch.setattr(hurwitz, name, {})
