"""Exact characteristic polynomials against Faddeev-LeVerrier."""

import math
import random
from fractions import Fraction

from stratadyn import linalg
from oracles import char_poly_faddeev


def _unit_upper_inverse(p):
    n = len(p)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if p[i][j]:
                inv[i] = [a - p[i][j] * b for a, b in zip(inv[i], inv[j])]
    return inv


def _seeded_matrices():
    """(kind, matrix) pairs of every size up to 12 x 12."""
    rng = random.Random(20261018)
    for n in range(1, 13):
        dense = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        yield "dense", dense
        yield "sparse", [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        if n >= 2:
            # the last row is the sum of the first two
            singular = [row[:] for row in dense]
            singular[-1] = [x + y for x, y in zip(dense[0], dense[1])]
            yield "singular", singular
        upper = [[rng.randint(-4, 4) if j > i else 0 for j in range(n)] for i in range(n)]
        yield "nilpotent", upper
        # conjugated by a unimodular matrix, so the reduction has work to do
        p = [[int(i == j) + (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
        yield "nilpotent", linalg.mat_mul(linalg.mat_mul(_unit_upper_inverse(p), upper), p)
        yield "rational", [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_char_poly_matches_faddeev_leverrier():
    assert linalg.char_poly([]) == char_poly_faddeev([]) == [1]
    for _, a in _seeded_matrices():
        got = linalg.char_poly(a)
        assert got == char_poly_faddeev(a), a
        assert all(type(c) is Fraction for c in got)


def test_nilpotent_char_poly_is_a_power_of_x():
    for kind, a in _seeded_matrices():
        if kind == "nilpotent":
            assert linalg.char_poly(a) == [0] * len(a) + [1]


def test_char_poly_identity_42():
    eye = [[int(i == j) for j in range(42)] for i in range(42)]
    assert linalg.char_poly(eye) == char_poly_faddeev(eye)
    assert linalg.char_poly_integer(eye) == [(-1) ** (42 - i) * math.comb(42, i) for i in range(43)]
