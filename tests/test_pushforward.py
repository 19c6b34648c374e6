"""Pushforward matrices, dynamical degrees, and filtration blocks."""

import collections
import itertools
import math
import re
from fractions import Fraction

import oracles
import pytest

from stratadyn import filtration, homology, hurwitz, linalg, pushforward, trees
from stratadyn.hurwitz import HurwitzData
from stratadyn.pushforward import (
    DegreeReport,
    dynamical_degree,
    filtration_blocks,
    pushforward_h0,
    pushforward_h2,
    self_correspondence_matrix,
)
from tests.test_hurwitz import d1_datum, d2_datum, fig1_datum


# -- degree 0 -------------------------------------------------------------------


def test_fig1_h0_multiplier():
    assert pushforward_h0(fig1_datum()) == 4


def test_d2_h0_multiplier():
    # two labeled covers, marking degree two
    assert pushforward_h0(d2_datum()) == 1


def test_d1_h0_multiplier():
    assert pushforward_h0(d1_datum()) == 1


# -- degree 2 -------------------------------------------------------------------


def test_fig1_h2_matrix_is_one():
    pm = pushforward_h2(fig1_datum())
    assert pm.shape() == (1, 1)
    assert pm.matrix[0][0] == 1


def test_d1_h2_matrix_is_identity():
    pm = pushforward_h2(d1_datum(5))
    assert pm.shape() == (5, 5)
    for i in range(5):
        for j in range(5):
            assert pm.matrix[i][j] == (1 if i == j else 0)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_d1_self_matrix_identity(n):
    # n >= 6 exercises the glued path; at n = 7 some basis curves have a
    # source vertex without marks
    mat = self_correspondence_matrix(d1_datum(n), 1)
    rank = homology.homology_basis(n, 1).rank
    assert len(mat) == rank
    for i in range(rank):
        for j in range(rank):
            assert mat[i][j] == (1 if i == j else 0)
    rep = dynamical_degree(mat)
    assert rep.exact == 1 and rep.method == "exact_roots"


def d3_self_map_datum():
    """Degree-3 self-map of five marks, branching (3),(1,1,1),(1,1,1),(1,2),
    (1,2); its source curves have vertices of valence up to 8."""
    a = ["a%d" % i for i in range(1, 6)]
    b = ["b%d" % i for i in range(1, 6)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=3,
        f_map=dict(zip(a, b)),
        br={"b1": [3], "b4": [1, 2], "b5": [1, 2]},
        rm={"a1": 3, "a2": 1, "a3": 1, "a4": 2, "a5": 2},
        forget_to=a,
        identify=dict(zip(b, a)),
    )


def test_d3_self_map_reaches_eight_mark_vertex_space():
    # matrix and degree as computed by this code; the local-degree checks
    # inside pushforward_h2 hold on every column
    mat = self_correspondence_matrix(d3_self_map_datum(), 1)
    assert mat == (
        (3, 1, 1, 0, 1),
        (0, 3, 1, 0, 0),
        (0, 0, 2, 0, 0),
        (0, 1, 1, 3, 1),
        (0, -1, -1, 0, 2),
    )
    rep = dynamical_degree(mat)
    assert rep.exact == 3 and rep.method == "exact_roots"


def d2_self_map_datum():
    """Degree-2 self-map of five marks, simply branched over b1 and b2."""
    a = ["a%d" % i for i in range(1, 6)]
    b = ["b%d" % i for i in range(1, 6)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=2,
        f_map=dict(zip(a, b)),
        br={"b1": [2], "b2": [2]},
        rm={"a1": 2, "a2": 2, "a3": 1, "a4": 1, "a5": 1},
        forget_to=a,
        identify=dict(zip(b, a)),
    )


def test_pushforward_reads_each_tree_once_for_its_flags(flag_passes):
    # the cover types' source curves and the target vertices each read
    # every vertex of one tree, from one pass
    pushforward.pushforward_h2(d2_self_map_datum())
    assert flag_passes
    assert set(flag_passes.values()) == {1}


def _types_edited(monkeypatch, edit):
    """Have pushforward read the cover types over each target through `edit`."""
    real = hurwitz.enumerate_cover_types
    monkeypatch.setattr(hurwitz, "enumerate_cover_types", lambda *args: edit(real(*args)))


def test_column_refuses_a_refined_cover_of_an_unknown_type(monkeypatch):
    _types_edited(monkeypatch, lambda types: types[1:])
    with pytest.raises(AssertionError, match="refined cover smooths to an unknown type"):
        pushforward_h2(d2_self_map_datum())


def test_column_refuses_a_local_degree_off_the_class_count(monkeypatch):
    h = d2_self_map_datum()
    tau = homology.homology_basis(5, 1).basis_trees()[0]
    count = hurwitz.enumerate_cover_types(hurwitz.fully_mark(h)[0], tau)[0].count

    def raise_one(types):
        types[0].count += 1
        return types

    _types_edited(monkeypatch, raise_one)
    msg = "local degree %d != class count %d over a boundary direction" % (count, count + 1)
    with pytest.raises(AssertionError, match=msg):
        pushforward_h2(h)


def test_d2_five_mark_self_map_matrix():
    # the matrix as computed before the smoothing ran on node splits
    mat = self_correspondence_matrix(d2_self_map_datum(), 1)
    assert mat == (
        (2, 0, 0, 0, 0),
        (0, 2, 0, 0, 0),
        (0, 0, 2, 0, 0),
        (1, 1, 1, 1, 0),
        (0, 0, 0, 0, 2),
    )
    rep = dynamical_degree(mat)
    assert rep.exact == 2 and rep.method == "exact_roots"


def d2_six_mark_self_map_datum():
    """Degree-2 self-map of six marks, simply branched over b1 and b2; its
    glued classes read six-mark expressions with denominator 2."""
    a = ["a%d" % i for i in range(1, 7)]
    b = ["b%d" % i for i in range(1, 7)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=2,
        f_map=dict(zip(a, b)),
        br={"b1": [2], "b2": [2]},
        rm={"a1": 2, "a2": 2, "a3": 1, "a4": 1, "a5": 1, "a6": 1},
        forget_to=a,
        identify=dict(zip(b, a)),
    )


def marked_datum(d, profiles):
    """Target marks b1..bN with the given branching profiles; a_i over b_i
    carries the largest part of its profile, and every a_i is retained."""
    a = ["a%d" % i for i in range(1, len(profiles) + 1)]
    b = ["b%d" % i for i in range(1, len(profiles) + 1)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=d,
        f_map=dict(zip(a, b)),
        br={bi: p for bi, p in zip(b, profiles) if p != (1,) * d},
        rm={ai: max(p) for ai, p in zip(a, profiles)},
        forget_to=a,
    )


@pytest.mark.parametrize("d, profiles", [
    (2, [(2,), (2,)] + [(1, 1)] * 3),
    (2, [(2,), (2,)] + [(1, 1)] * 4),
    (3, [(1, 2)] * 4 + [(1, 1, 1)]),
    (2, [(2,), (2,)] + [(1, 1)] * 5),
    (3, [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * 3),
    (3, [(3,), (3,)] + [(1, 1, 1)] * 4),
])
def test_forgetting_an_unramified_mark_commutes_with_the_pushforward(d, profiles):
    # b_N is unramified and a_N is one of its d preimages; base change along
    # forgetting b_N gives pi_{a_N*} P = d P' pi_{b_N*} on H_2, where P' is
    # the pushforward of the datum without a_N and b_N
    n = len(profiles)
    keep = set(range(1, n))
    big = pushforward_h2(marked_datum(d, profiles))
    small = pushforward_h2(marked_datum(d, profiles[:-1]))
    sources = big.source_pres.basis_trees()
    for j, tau in enumerate(big.target_pres.basis_trees()):
        column = {t: row[j] for t, row in zip(sources, big.matrix) if row[j]}
        lhs = small.source_pres.reduce_tree_dict(homology.forget_vec(column, keep))
        x = small.target_pres.reduce_tree_dict(homology.forget_vec({tau: 1}, keep))
        rhs = {}
        for i, row in enumerate(small.matrix):
            s = d * sum(row[c] * v for c, v in x.items())
            if s:
                rhs[i] = s
        assert lhs == rhs, (n, j)


# -- glued classes on split sets --------------------------------------------------


def _glued_classes(h):
    """The arguments after the column of every _add_glued_class call of h's
    pushforward."""
    calls = []
    real = pushforward._add_glued_class

    def record(col, *args):
        calls.append(args)
        real(col, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pushforward, "_add_glued_class", record)
        pushforward_h2(h)
    return calls


def _reference_args(splitvals, t, vertex_blocks, v_hat, p_a, renum, limit_strata):
    """The oracles.glued_class_reference arguments of one glued class: the
    cover type's source tree and multiplicity, and the source vertices with
    moduli."""
    mod_vertices = [v for v, flags in enumerate(vertex_blocks) if len(flags) > 3]
    return (splitvals, t.source_tree, v_hat, mod_vertices, p_a, sorted(renum),
            t.multiplicity, limit_strata)


# d1_datum(5) is the datum of data/d1_self.json; a datum on four target marks
# has no glued class (its one curve class is the smooth target, over which
# every source curve is smooth), so the degree-3 case is on five marks
@pytest.mark.parametrize("make, count, with_points", [
    (d2_self_map_datum, 15, 9),
    (d3_self_map_datum, 11, 11),
    (d1_datum, 5, 0),
    (d2_six_mark_self_map_datum, 44, 32),
])
def test_glued_classes_match_the_whole_tree_route(make, count, with_points, flag_passes):
    calls = _glued_classes(make())
    assert len(calls) == count
    # classes with another moduli vertex, where a point is substituted
    assert sum(1 for args in calls if set(_reference_args(*args)[3]) - {args[3]}) == with_points
    for args in calls:
        got = {}
        flag_passes.clear()
        pushforward._add_glued_class(got, *args)
        # it reads the flag blocks the column read for the cover type
        assert not flag_passes
        assert got == oracles.glued_class_reference(*_reference_args(*args))


def _a_nonzero_glued_class():
    """A glued class of the degree-2 self-map with a nonzero column and the
    least vertex valence among those."""
    found = []
    for args in _glued_classes(d2_self_map_datum()):
        col = {}
        pushforward._add_glued_class(col, *args)
        if col:
            found.append(args)
    return min(found, key=lambda args: len(args[2][args[3]]))


def test_self_matrix_and_glued_classes_build_no_canonical_tree(monkeypatch):
    # the self matrix renames each basis curve's marks on its split set, and
    # a glued class looks its image up by split set: no canonical_form call,
    # and no tree_from_splits call inside _add_glued_class
    h = d2_six_mark_self_map_datum()
    pm = pushforward_h2(h)
    real_canonical, real_build = trees.canonical_form, trees.tree_from_splits
    real_glued = pushforward._add_glued_class
    counts = collections.Counter()
    gluing = []

    def canonical(tree):
        counts["canonical_form"] += 1
        return real_canonical(tree)

    def build(n, splits):
        if gluing:
            counts["tree_from_splits in _add_glued_class"] += 1
        return real_build(n, splits)

    def glued(*args):
        counts["_add_glued_class"] += 1
        gluing.append(1)
        try:
            real_glued(*args)
        finally:
            gluing.pop()

    monkeypatch.setattr(trees, "canonical_form", canonical)
    monkeypatch.setattr(trees, "tree_from_splits", build)
    monkeypatch.setattr(pushforward, "_add_glued_class", glued)
    mat = self_correspondence_matrix(h, 1)
    assert counts == {"_add_glued_class": 44}
    # the matrix of the pushforward with each basis tree's marks renamed
    p_a, p_b = pm.target_pres, pm.source_pres
    b_of_a = {pm.aprime.index(h.identify[b]) + 1: i for i, b in enumerate(h.b_marks, start=1)}
    for j, t in enumerate(p_a.basis_trees()):
        coords = homology.class_reduce(p_b, {oracles.relabel_marks(t, b_of_a): 1})
        for i in range(p_a.rank):
            assert mat[i][j] == sum(w * pm.matrix[i][c] for c, w in coords.items()), (i, j)


def test_glued_image_missing_from_presentation_raises_as_before():
    splitvals, t, vertex_blocks, v_hat, p_a, renum, limit_strata = _a_nonzero_glued_class()
    empty = homology.HomologyPresentation(p_a.n, 1, [], [], {})
    args = (splitvals, t, vertex_blocks, v_hat, empty, renum, limit_strata)
    msg = "canonical stratum missing from presentation"
    with pytest.raises(AssertionError, match=msg):
        oracles.glued_class_reference(*_reference_args(*args))
    with pytest.raises(AssertionError, match=msg):
        pushforward._add_glued_class({}, *args)


def test_glued_small_stratum_of_wrong_valence_raises_as_before(monkeypatch):
    args = _a_nonzero_glued_class()
    t, v_hat = args[1], args[3]
    val = t.source_tree.valence(v_hat)
    # the vertex class comes out as a curve of the space with one mark more
    real_basis = homology.homology_basis
    monkeypatch.setattr(homology, "homology_basis", lambda n, k, limit=None: real_basis(n + 1, k))
    monkeypatch.setattr(homology, "solve_class_from_pairings", lambda pres, pairs: {0: Fraction(1)})
    msg = "small tree has %d marks but vertex has valence %d" % (val + 1, val)
    with pytest.raises(ValueError, match=msg):
        oracles.glued_class_reference(*_reference_args(*args))
    with pytest.raises(ValueError, match=msg):
        pushforward._add_glued_class({}, *args)


def test_invalid_datum_is_refused_with_its_reason():
    # b4 totally ramified: total branching 5, not 2d - 2 = 4
    dd = fig1_datum().to_json_dict()
    dd["br"]["b4"] = [3]
    h = HurwitzData.from_json_dict(dd)
    reason = r"total branching 5 != 2d-2 = 4"
    with pytest.raises(ValueError, match=reason):
        pushforward_h0(h)
    with pytest.raises(ValueError, match=reason):
        pushforward_h2(h)
    for k in (0, 1):
        with pytest.raises(ValueError, match=reason):
            self_correspondence_matrix(h, k)


def test_strata_budget_bounds_vertex_space():
    with pytest.raises(trees.ResourceError, match=r"\(n=8, k=1\)"):
        self_correspondence_matrix(d3_self_map_datum(), 1, limit_strata=1000)


def test_h2_rejects_too_few_retained_marks():
    h = d2_datum()
    with pytest.raises(ValueError):
        pushforward_h2(h)


# -- self-correspondence and dynamical degrees -----------------------------------


def test_fig1_theta0():
    mat = self_correspondence_matrix(fig1_datum(), 0)
    rep = dynamical_degree(mat)
    assert rep.exact == 4
    assert rep.method == "exact_roots"
    assert rep.char_poly == (-4, 1)


def test_fig1_theta1():
    mat = self_correspondence_matrix(fig1_datum(), 1)
    assert len(mat) == 1 and mat[0][0] == 1
    rep = dynamical_degree(mat)
    assert rep.exact == 1
    assert 1 <= rep.exact <= 4


def test_d1_thetas_are_one():
    h = d1_datum(5)
    for k in (0, 1):
        rep = dynamical_degree(self_correspondence_matrix(h, k))
        assert rep.exact == 1 and rep.method == "exact_roots"


def d3_four_mark_self_map_datum():
    """Degree-3 self-map of four marks, branching (3), (1,2), (1,2),
    (1,1,1)."""
    a = ["a%d" % i for i in range(1, 5)]
    b = ["b%d" % i for i in range(1, 5)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=3,
        f_map=dict(zip(a, b)),
        br={"b1": [3], "b2": [1, 2], "b3": [1, 2]},
        rm={"a1": 3, "a2": 2, "a3": 2, "a4": 1},
        forget_to=a,
        identify=dict(zip(b, a)),
    )


@pytest.mark.parametrize("make", [d2_self_map_datum, d3_four_mark_self_map_datum])
def test_self_maps_of_one_datum_share_their_covers(make, fresh_covers):
    # every identification of the retained marks with the targets is one
    # self-map of the same Hurwitz space, so all of them read the covers the
    # first one enumerated; each matrix equals the one built from empty memos
    h = make()
    data = [
        HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, h.br, h.rm, h.forget_to,
                    dict(zip(h.b_marks, perm)))
        for perm in itertools.permutations(h.forget_to)
    ]
    shared = [self_correspondence_matrix(g, 1) for g in data]
    kept = len(hurwitz._CLASSES)
    for g, mat in zip(data, shared):
        for memo in (hurwitz._CLASSES, hurwitz._VALUES, hurwitz._COVERS):
            memo.clear()
        assert self_correspondence_matrix(g, 1) == mat
        # one identification alone keeps as many entries as all of them
        assert len(hurwitz._CLASSES) == kept


def test_self_matrix_requires_identify():
    with pytest.raises(ValueError):
        self_correspondence_matrix(d2_datum(), 0)


def test_squaring_squares_the_degree():
    mats = [
        self_correspondence_matrix(fig1_datum(), 0),
        [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]],
    ]
    for m in mats:
        rho = dynamical_degree(m).theta()
        m2 = linalg.mat_mul(m, m)
        rho2 = dynamical_degree(m2).theta()
        assert abs(float(rho2) - float(rho) ** 2) <= 1e-9


def test_degree_falls_back_without_dominant_real_root():
    # rotation: no real eigenvalue, spectral radius 1
    rep = dynamical_degree([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
    assert rep.method == "power_iteration"
    assert rep.exact == 1


def test_degree_falls_back_when_real_root_is_not_dominant():
    rep = dynamical_degree([[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert rep.method == "power_iteration"
    assert rep.exact == 2


def test_degree_falls_back_when_start_vector_is_an_eigenvector():
    # eigenvalues 1 and -3; (1, 1) is an eigenvector for 1
    rep = dynamical_degree([[Fraction(-1), Fraction(2)], [Fraction(2), Fraction(-1)]])
    assert rep.method == "power_iteration"
    assert rep.exact == 3


def test_degree_falls_back_to_the_norm_bound_on_complex_eigenvalues():
    # eigenvalues 1 + i and 1 - i, spectral radius sqrt(2)
    rep = dynamical_degree([[Fraction(1), Fraction(1)], [Fraction(-1), Fraction(1)]])
    assert rep.method == "power_iteration"
    assert abs(rep.theta() - math.sqrt(2)) <= 1e-9


def test_degree_of_companion_with_equal_norm_squares():
    # companion matrix of x^3 - 8: ||A^2||^(1/2) = ||A^4||^(1/4) = 2 sqrt(2),
    # but every eigenvalue has modulus 2
    rep = dynamical_degree([[Fraction(x) for x in row] for row in ((0, 0, 8), (1, 0, 0), (0, 1, 0))])
    assert rep.method == "exact_roots"
    assert rep.exact == 2
    assert rep.char_poly == (-8, 0, 0, 1)


def test_degree_rejects_non_square():
    with pytest.raises(ValueError):
        dynamical_degree([[Fraction(1), Fraction(0)]])


# -- filtration blocks -------------------------------------------------------------


def test_blocks_identity_6_2():
    rank = homology.homology_basis(6, 2).rank
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(rank)] for i in range(rank)]
    blocks = filtration_blocks(ident, 6, 2)
    assert blocks["lambda_dim"] == 10 and blocks["omega_dim"] == 6
    for name, dim in (("lambda_block", 10), ("omega_block", 6)):
        b = blocks[name]
        for i in range(dim):
            for j in range(dim):
                assert b[i][j] == (1 if i == j else 0)


def test_blocks_k1_single_block():
    h = d1_datum(5)
    mat = self_correspondence_matrix(h, 1)
    blocks = filtration_blocks(mat, 5, 1)
    assert blocks["lambda_dim"] == 0
    assert blocks["omega_dim"] == homology.homology_basis(5, 1).rank


def test_blocks_report_escaping_generator():
    pres = homology.homology_basis(6, 2)
    below = filtration.below_subspace(6, 2)
    omega = filtration.OmegaQuotient(pres, below)
    q = omega.positions[0]
    # premise: some multi-vertex stratum class has nonzero coordinate sum
    found = False
    for t in pres.strata:
        if len(trees.induced_partition(t)) < 2:
            continue
        g = pres.reduce_tree_dict({t: 1})
        if sum(g.values()):
            found = True
            break
    assert found
    # every coordinate to q: t is the first below generator moved out of the span
    bad = [[Fraction(1) if i == q else Fraction(0) for _ in range(pres.rank)]
           for i in range(pres.rank)]
    with pytest.raises(ValueError, match=r"filtration not preserved: the class of %s escapes"
                       % re.escape(repr(t))):
        filtration_blocks(bad, 6, 2)


def test_blocks_reject_wrong_size():
    with pytest.raises(ValueError):
        filtration_blocks([[Fraction(1)]], 6, 2)

