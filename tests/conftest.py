"""Shared fixtures."""

import collections
import contextlib
import signal
import sys

import pytest

from oracles import char_poly_faddeev, validate_reference
from stratadyn import hurwitz, linalg, pushforward, trees


@pytest.fixture(autouse=True)
def fresh_pushforwards(monkeypatch):
    """Empty the per-process pushforward memo for every test, so a test that
    patches or counts the work inside pushforward_h2 sees that work done; the
    memo of the rest of the run is back in place after it."""
    monkeypatch.setattr(pushforward, "_PUSHFORWARDS", {})


@pytest.fixture
def fresh_covers(monkeypatch):
    """Empty per-process cover memos for one test: the kept classes and the
    kept cover types.  Counts of enumeration work then read this test's
    calls only, and the memos of the rest of the run are back in place
    after it."""
    for name in ("_CLASSES", "_TYPES"):
        monkeypatch.setattr(hurwitz, name, {})


@pytest.fixture(autouse=True)
def cover_values_checked(monkeypatch):
    """Check every datum whose cover value hurwitz keeps against both
    validators.  fully_mark keys the datum it builds without validating it,
    since it is fully marked by construction; so every marked datum a test
    makes, from data/*.json, the portraits, the seeded generators or the
    CLI's built-in data, is checked here to be fully marked by
    hurwitz.validate and by the Counter oracle.  The real validate is read
    before the test runs, so a test that counts validate calls does not
    see these."""
    real_fields = hurwitz._cover_fields
    real_validate = hurwitz.validate

    def checked(h):
        statuses = (real_validate(h).status, validate_reference(h).status)
        assert statuses == ("fully_marked", "fully_marked"), h.to_json_dict()
        return real_fields(h)

    monkeypatch.setattr(hurwitz, "_cover_fields", checked)


@pytest.fixture
def flag_passes(monkeypatch):
    """Count every walk of a tree, per reader call and tree: a Counter of
    (reader frame, tree) pairs, identified by object, the reader being the
    nearest calling frame outside trees.  The validating pass
    (trees._validate) is the one walk that builds a tree's subtree masks,
    for its splits (split_set) and its flags alike, so each of them is
    counted.  Readers and trees are kept alive for the test, so no two
    share an id."""
    real = trees._validate
    passes = collections.Counter()
    alive = []

    def counted(tree):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == trees.__file__:
            frame = frame.f_back
        alive.append((frame, tree))
        passes[id(frame), id(tree)] += 1
        return real(tree)

    monkeypatch.setattr(trees, "_validate", counted)
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


@pytest.fixture(autouse=True)
def char_polys_checked(monkeypatch):
    """Check every characteristic polynomial a test asks of the modular
    route (linalg.char_poly_integer) against both Fraction routes: the
    Hessenberg char_poly and Faddeev-LeVerrier."""
    real = linalg.char_poly_integer

    def checked(a):
        got = real(a)
        assert got == linalg._primitive_ints(linalg.char_poly(a)), a
        assert got == linalg._primitive_ints(char_poly_faddeev(a)), a
        return got

    monkeypatch.setattr(linalg, "char_poly_integer", checked)
