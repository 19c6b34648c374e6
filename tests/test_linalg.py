"""Exact characteristic polynomials against Faddeev-LeVerrier, real-root
isolation against polynomials with known roots, and the fraction-free
RowSpace and the sparse axpy against Fraction references."""

import math
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from stratadyn import hurwitz, linalg, pushforward
from oracles import (
    RowSpaceReference,
    char_poly_faddeev,
    largest_real_root_reference,
    sturm_chain_reference,
)

DATA = Path(__file__).resolve().parents[1] / "data"


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


def _both_fraction_routes(a):
    """The characteristic polynomial of a by Hessenberg over Fractions and
    by Faddeev-LeVerrier, each as primitive integers."""
    return (linalg._primitive_ints(linalg.char_poly(a)),
            linalg._primitive_ints(char_poly_faddeev(a)))


def test_char_poly_integer_matches_both_fraction_routes():
    assert linalg.char_poly_integer([]) == [1]
    for _, a in _seeded_matrices():
        got = linalg.char_poly_integer(a)
        assert (got, got) == _both_fraction_routes(a), a
        assert all(type(c) is int for c in got)


def test_char_poly_integer_takes_primes_until_the_hadamard_bound(monkeypatch):
    # entries near 2^40 give coefficients of more than 62 bits, so one word
    # prime cannot hold them; the primes are the largest below 2^62, in order
    rng = random.Random(62)
    a = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(6)] for _ in range(6)]
    real = linalg._char_poly_mod
    primes = []
    monkeypatch.setattr(linalg, "_char_poly_mod", lambda b, p: primes.append(p) or real(b, p))
    got = linalg.char_poly_integer(a)
    assert (got, got) == _both_fraction_routes(a)
    assert max(abs(c) for c in got).bit_length() > 62
    assert len(primes) >= 2 and primes == [linalg._prime(i) for i in range(len(primes))]
    assert all(p < 2 ** 62 for p in primes) and primes == sorted(primes, reverse=True)
    # a denominator scales coefficient i by D^i before the gcd comes out
    third = [[Fraction(x, 3) for x in row] for row in a]
    assert linalg.char_poly_integer(third) == _both_fraction_routes(third)[0]


def _integer_poly(roots, quadratics=()):
    """Primitive integer coefficients, constant first, of the product of
    x - r over roots and x^2 + c over quadratics."""
    p = [Fraction(1)]
    for r in roots:
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    for c in quadratics:
        p = [a + c * b for a, b in zip([0, 0] + p, p + [0, 0])]
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def test_largest_real_root_against_known_roots():
    rng = random.Random(20261019)
    for _ in range(300):
        roots = []
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 7)))
            roots += [r] * rng.randint(1, 5)
        quadratics = [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
        got = linalg.largest_real_root(_integer_poly(roots, quadratics))
        top = max(roots)
        if top.denominator == 1:
            assert got == top, (roots, quadratics)
        else:
            assert abs(got - top) <= 1e-12, (roots, quadratics)
    # roots 1 apart under a Cauchy bound near 1e8
    assert linalg.largest_real_root((100010000, -20001, 1)) == 10001.0
    assert linalg.largest_real_root(_integer_poly([10000, 10001, 10001])) == 10001.0
    close = Fraction(1, 3) + Fraction(1, 10**9)
    assert abs(linalg.largest_real_root(_integer_poly([Fraction(1, 3), close])) - close) <= 1e-12
    assert abs(linalg.largest_real_root([-2, 0, 1]) - math.sqrt(2)) <= 1e-12
    for quadratics in ([1], [1, 1, 1], [2, 5]):
        assert linalg.largest_real_root(_integer_poly([], quadratics)) is None
    assert linalg.largest_real_root([5]) is None


def _root_battery():
    """Integer polynomials of degrees 1 to 12: products of linear factors
    with repeated and rational roots and of x^2 + c, some with no real
    root, roots at the Fujiwara bound, and integer roots near 10^4."""
    rng = random.Random(20261021)
    polys = []
    for _ in range(400):
        roots, quadratics = [], []
        degree = rng.randint(1, 12)
        while len(roots) + 2 * len(quadratics) < degree:
            r = rng.random()
            if r < 0.15 and len(roots) + 2 * len(quadratics) + 2 <= degree:
                quadratics.append(rng.randint(1, 30))
            elif r < 0.35 and roots:
                roots.append(rng.choice(roots))
            else:
                roots.append(Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 5, 7, 64))))
        polys.append(_integer_poly(roots, quadratics))
    for f in range(-3, 12):
        polys.append(_integer_poly([Fraction(2) ** f]))
        polys.append(_integer_poly([Fraction(2) ** f, -Fraction(2) ** f]))
        polys.append(_integer_poly([Fraction(2) ** f] * 3 + [1]))
    for top in range(9995, 10006):
        polys.append(_integer_poly([top, top - 1, top - 1, Fraction(top, 3)], [7]))
        polys.append(_integer_poly([top] * 2 + [top - 2]))
    polys += [_integer_poly([], [c]) for c in (1, 2, 9)] + [_integer_poly([], [1, 4, 4, 6])]
    polys += [[0, 0, 0, 1], [0, 0, 5], [-2, 0, 1], [5, -7, 0, 0, 3], (100010000, -20001, 1)]
    return polys


def test_largest_real_root_equals_the_whole_chain_bisection():
    # the Fujiwara skip and the squarefree count leave every bracket as the
    # whole chain gives it, so the very same float comes back
    for p in _root_battery():
        got = linalg.largest_real_root(p)
        assert repr(got) == repr(largest_real_root_reference(p)), p


def test_fujiwara_exponent_bounds_every_root():
    # x - 2^f has its root on the bound 2^f; the roots of x^2 - 4^f lie
    # at half the bound 2^(f + 1); 3x^2, whose roots are all 0, has none
    for f in (-4, -1, 0, 1, 3, 10):
        assert linalg._fujiwara_exponent(_integer_poly([Fraction(2) ** f])) == f
        assert linalg._fujiwara_exponent(_integer_poly([Fraction(2) ** f, -Fraction(2) ** f])) == f + 1
    assert linalg._fujiwara_exponent([0, 0, 3]) is None


def test_sturm_chain_equals_the_fraction_remainder_chain():
    # integer pseudo-remainders against Fraction remainders, member by
    # member: on characteristic polynomials of random integer matrices, on
    # their squares (every root repeated, so the chain ends in a gcd of
    # positive degree) and on the six-mark self-map's curve-class matrix
    rng = random.Random(20261019)
    polys = []
    for i in range(300):
        n = rng.randint(1, 12)
        p = linalg.char_poly_integer([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if i % 3 == 0:
            p = [sum(p[j] * p[d - j] for j in range(max(0, d - n), min(d, n) + 1))
                 for d in range(2 * n + 1)]
        polys.append(p)
    h = hurwitz.HurwitzData.from_json_dict(json.loads((DATA / "d2_self6.json").read_text()))
    mat = pushforward.self_correspondence_matrix(h, 1)
    polys.append(linalg.char_poly_integer(mat))
    assert len(polys[-1]) == len(mat) + 1 > 10
    for p in polys:
        assert linalg._sturm_chain(p) == sturm_chain_reference(p), p


def test_norm_bound_certifies_companion_of_x3_minus_8():
    # ||A^2||^(1/2) = ||A^4||^(1/4) = 2 sqrt(2), above the spectral radius 2
    comp = [[0, 0, 8], [1, 0, 0], [0, 1, 0]]
    assert abs(linalg.spectral_radius_float(comp, root=2.0) - 2) <= 1e-6
    assert abs(linalg.spectral_radius_float(comp) - 2) <= 1e-6


def _entry(rng):
    """An int, a Fraction with one of several denominators, or an explicit 0."""
    r = rng.random()
    if r < 0.1:
        return 0
    if r < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 5)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6, 7, 10)))


def _seeded_vectors(rng, ncols, count):
    """Sparse vectors over columns 0..ncols-1; about a third are rational
    combinations of earlier ones, so many insertions are dependent."""
    out = []
    for _ in range(count):
        if len(out) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(out, 2)
            ca = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            cb = rng.randint(-2, 2)
            v = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in set(a) | set(b)}
        else:
            v = {c: _entry(rng) for c in rng.sample(range(ncols), rng.randint(1, min(ncols, 7)))}
        out.append(v)
    return out


def _assert_same_residual(space, ref, vec, flip=dict):
    """space holds ref's vectors with their columns mapped by flip."""
    got = space.residual(flip(vec))
    assert got == flip(ref.residual(vec))
    assert all(type(x) is Fraction for x in got.values())
    assert space.contains(flip(vec)) == ref.contains(vec)


@pytest.mark.parametrize("pivot", ["min", "max"])
def test_rowspace_matches_fraction_reference(pivot):
    # RowSpace always pivots on the minimal column; over negated columns that
    # is the reference's maximal pivot, the order the relation route uses
    sign = -1 if pivot == "max" else 1

    def flip(vec):
        return {sign * col: x for col, x in vec.items()}

    rng = random.Random(61068)
    for _ in range(60):
        ncols = rng.randint(1, 18)
        vecs = _seeded_vectors(rng, ncols, rng.randint(1, 30))
        probes = _seeded_vectors(rng, ncols, 10)
        space, ref = linalg.RowSpace(), RowSpaceReference(pivot)
        for v in vecs:
            _assert_same_residual(space, ref, v, flip)
            q = ref.add(v)
            assert space.add(flip(v)) == (None if q is None else sign * q)
            assert space.dim() == ref.dim()
            assert set(space.rows) == {sign * q for q in ref.rows}
        assert space.rref() == {sign * q: flip(row) for q, row in ref.rref().items()}
        for v in probes + vecs:
            _assert_same_residual(space, ref, v, flip)


def test_rowspace_rows_are_primitive_integer_vectors():
    rng = random.Random(7)
    space = linalg.RowSpace()
    for v in _seeded_vectors(rng, 12, 40):
        space.add(v)
    for p, row in space.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1 and row[p] > 0
        assert p == min(row)


def test_rowspace_rows_are_fully_reduced():
    # after every insertion, no stored row meets another row's pivot column,
    # which is what lets RowSpace.reduce clear each pivot hit with one axpy
    rng = random.Random(1968)
    for _ in range(40):
        space = linalg.RowSpace()
        for v in _seeded_vectors(rng, rng.randint(1, 16), rng.randint(1, 25)):
            space.add(v)
            for p, row in space.rows.items():
                assert not any(col in space.rows for col in row if col != p), (p, row)


def _nonzero(rng):
    """A sparse vector of ints and Fractions over columns 0..11, maybe empty,
    storing no zeros."""
    vec = {c: _entry(rng) for c in rng.sample(range(12), rng.randint(0, 8))}
    return {c: x for c, x in vec.items() if x}


def test_fractions_over_is_the_fraction_of_each_entry():
    # negative numerators, denominators above 1, and numerators sharing a
    # factor with the denominator, which Fraction reduces
    v = {3: -4, 0: 6, 7: -9, 2: 1, 5: 12}
    for den in (1, 2, 3, 6, 9, -4):
        got = linalg.fractions_over(v, den)
        assert got == {col: Fraction(x, den) for col, x in v.items()}, den
        assert list(got) == list(v), den
        assert all(type(q) is Fraction for q in got.values()), den
        # equal entries over one denominator are one shared object
        again = linalg.fractions_over(dict(reversed(list(v.items()))), den)
        assert all(again[col] is got[col] for col in v), den
    assert linalg.fractions_over({}, 5) == {}


def test_axpy_matches_fraction_reference():
    rng = random.Random(5150)
    for _ in range(400):
        acc, vec = _nonzero(rng), _nonzero(rng)
        # f from 1, -1, 0, ints and Fractions; the 1/-1 fast paths and the
        # zero shortcut must agree with plain multiplication
        f = rng.choice((1, -1, 0, rng.randint(-6, 6), _entry(rng), Fraction(1), Fraction(-1)))
        want = {c: Fraction(acc.get(c, 0)) + Fraction(f) * Fraction(vec.get(c, 0))
                for c in set(acc) | set(vec)}
        want = {c: x for c, x in want.items() if x}
        out = linalg.axpy(acc, f, vec)
        assert out is acc
        assert all(x for x in acc.values())
        assert acc == want


def test_rowspace_explicit_zeros_are_dropped():
    space = linalg.RowSpace()
    assert space.residual({3: 0}) == {}
    assert space.contains({3: 0, 4: Fraction(0)})
    assert space.add({3: 0, 5: Fraction(2, 3)}) == 5
    assert space.residual({5: 1, 6: 0}) == {}


def _solve_both(rows, rhs, monkeypatch):
    """solve_exact's outcome, then its outcome over RowSpaceReference."""
    out = []
    for space in (linalg.RowSpace, RowSpaceReference):
        with monkeypatch.context() as m:
            m.setattr(linalg, "RowSpace", space)
            try:
                out.append(("ok", linalg.solve_exact(rows, rhs)))
            except ValueError as e:
                out.append(("error", str(e)))
    return out


def test_solve_exact_matches_reference(monkeypatch):
    rng = random.Random(404)
    kinds = {"ok": 0, "inconsistent": 0, "underdetermined": 0}
    for _ in range(80):
        m = rng.randint(1, 7)
        x = {j: _entry(rng) for j in range(m)}
        x = {j: v for j, v in x.items() if v}
        rows = [{j: _entry(rng) for j in rng.sample(range(m), rng.randint(1, m))}
                for _ in range(m + rng.randint(-1, 3))]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        rhs = [sum((Fraction(v) * x.get(j, 0) for j, v in r.items()), start=Fraction(0)) for r in rows]
        if rows and rng.random() < 0.3:
            rows.append(dict(rows[0]))
            rhs.append(rhs[0] + 1)
        got, want = _solve_both(rows, rhs, monkeypatch)
        assert got == want, (rows, rhs)
        if got[0] == "ok":
            kinds["ok"] += 1
            cols = set().union(*rows)
            assert got[1] == {j: v for j, v in x.items() if j in cols}
        elif "inconsistent" in got[1]:
            kinds["inconsistent"] += 1
        else:
            kinds["underdetermined"] += 1
    assert all(kinds.values()), kinds
    assert _solve_both([], [1], monkeypatch) == [("error", "inconsistent system: nonzero rhs over empty rows")] * 2
