"""Shared fixtures."""

import collections
import contextlib
import signal
import sys

import pytest

from stratadyn import hurwitz, pushforward, trees


@pytest.fixture(autouse=True)
def fresh_pushforwards(monkeypatch):
    """Empty the per-process pushforward memo for every test, so a test that
    patches or counts the work inside pushforward_h2 sees that work done; the
    memo of the rest of the run is back in place after it."""
    monkeypatch.setattr(pushforward, "_PUSHFORWARDS", {})


@pytest.fixture
def fresh_covers(monkeypatch):
    """Empty per-process cover memos for one test: the kept classes and the
    validated data.  Counts of enumeration work and of `validate` calls then
    read this test's calls only, and the memos of the rest of the run are
    back in place after it."""
    for name in ("_CLASSES", "_VALUES"):
        monkeypatch.setattr(hurwitz, name, {})


@pytest.fixture
def flag_passes(monkeypatch):
    """Count the subtree_masks passes made for flags, per reader call and
    tree: a Counter of (reader frame, tree) pairs, identified by object, the
    reader being the nearest calling frame outside trees.  The passes that
    splits makes for a tree's splits are not counted.  Readers and
    trees are kept alive for the test, so no two share an id."""
    real = trees.MarkedTree.subtree_masks
    passes = collections.Counter()
    alive = []

    def counted(tree, *args):
        frame = sys._getframe(1)
        if frame.f_code is not trees.MarkedTree.splits.__code__:
            while frame.f_code.co_filename == trees.__file__:
                frame = frame.f_back
            alive.append((frame, tree))
            passes[id(frame), id(tree)] += 1
        return real(tree, *args)

    monkeypatch.setattr(trees.MarkedTree, "subtree_masks", counted)
    return passes


@pytest.fixture
def within():
    """within(seconds): a context manager whose body raises TimeoutError once
    it has run `seconds`, through SIGALRM, so a call that loops forever
    fails its test instead of holding the run."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(_signum, _frame):
            raise TimeoutError("still running after %d s" % seconds)

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return limit
