"""Pushforward matrices, dynamical degrees, and filtration blocks."""

import collections
import itertools
import json
import math
import random
import re
import types
from fractions import Fraction
from pathlib import Path

import oracles
import pytest

from perfbench import workloads
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

DATA = Path(__file__).resolve().parent.parent / "data"


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
    # every source curve has a node, whose flag block pairs through psi; at
    # n = 7 some basis curves have a source vertex without marks
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
    # the basis curves and the target vertices each read every vertex of
    # one tree, from one pass
    pushforward.pushforward_h2(d2_self_map_datum())
    assert flag_passes
    assert set(flag_passes.values()) == {1}


def test_pushforward_refuses_a_local_degree_off_the_cover_count(monkeypatch):
    # over each one-edge target the classes, weighted by the product of
    # their ramifications, count the covers of a smooth target; dropping the
    # classes of one node tuple over the boundary (not over the smooth
    # target, which count_covers reads) breaks that
    h = d2_self_map_datum()
    full = hurwitz.fully_mark(h)[0]
    real = hurwitz.enumerate_cover_classes
    count = hurwitz.count_covers(full)
    first = trees.enumerate_strata(5, 1)[0]
    (split,) = trees.split_set(first)
    nodes, classes = real(full, first)[0]
    dropped = classes * math.prod(r for _side, r, _e in nodes)

    def drop_one(datum, tau, limit_tuples=None):
        classes = real(datum, tau, limit_tuples)
        return classes[1:] if tau.num_vertices() > 1 else classes

    monkeypatch.setattr(hurwitz, "enumerate_cover_classes", drop_one)
    msg = "local degree %d over the divisor of %s != cover count %d" % (
        count - dropped, list(trees.marks_of(split)), count)
    with pytest.raises(AssertionError, match=re.escape(msg)):
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
    """Degree-2 self-map of six marks, simply branched over b1 and b2; 44
    of its vertex classes sit on source curves with a node."""
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


# -- the matrix against the column route of cover types ----------------------------


@pytest.mark.parametrize("make, deg_nu", [
    (fig1_datum, 1),
    (lambda: d1_datum(5), 1),
    (d2_self_map_datum, 1),
    (d2_six_mark_self_map_datum, 1),
    (d3_self_map_datum, 4),
    # the degree-3 six-mark self-map of the CI pins
    (lambda: marked_datum(3, [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * 3), 8),
    # the benchmark generator's d3-total datum on five marks
    (lambda: marked_datum(3, [(3,), (3,)] + [(1, 1, 1)] * 3), 8),
], ids=["fig1", "d1_self", "d2_self5", "d2_self6", "d3_self5", "d3six", "d3_total5"])
def test_divisor_route_matches_the_column_route_of_cover_types(make, deg_nu):
    # divisor pullbacks over one-edge targets give the matrix that the
    # three degenerations of each basis curve, its cover types and their
    # psi pairings give
    h = make()
    assert hurwitz.fully_mark(h)[1] == deg_nu
    assert pushforward_h2(h).matrix == oracles.pushforward_matrix_reference(h)


@pytest.mark.parametrize("make", [
    fig1_datum,
    d2_six_mark_self_map_datum,
    lambda: marked_datum(3, [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * 3),
], ids=["fig1", "d2_self6", "d3six"])
def test_column_route_is_adjoint_to_the_divisor_pullback(make):
    # (H_* C_j).D_S = C_j.(H^* D_S) split by split: each column of the
    # column route, paired with every retained divisor D_S, against
    # H^* D_S = sum over one-edge targets T of c(S, T) D_T, with deg_nu
    # c(S, T) summed here over the grouped classes over T
    h = make()
    full, deg_nu = hurwitz.fully_mark(h)
    matrix = oracles.pushforward_matrix_reference(h)
    aprime = [a for a in full.a_marks if a in full.forget_to]
    renum = {full.a_marks.index(a) + 1: i for i, a in enumerate(aprime, start=1)}
    n_a, n_b = len(aprime), len(full.b_marks)
    pullback = collections.Counter()  # (S, T's split) -> deg_nu * c(S, T)
    for t in trees.enumerate_strata(n_b, n_b - 4):
        (split_t,) = trees.split_set(t)
        for nodes, count in hurwitz.enumerate_cover_classes(full, t):
            rprod = math.prod(r for _side, r, _e in nodes)
            for side, r, _e in nodes:
                image = trees.project_split(side, renum)
                if image:
                    pullback[image, split_t] += count * (rprod // r)
    # the table the library kept with the matrix is this one
    kept = pushforward_h2(h).pullbacks
    assert {(s, t): w for t, row in kept.items() for s, w in row.items()} == pullback
    sources = homology.homology_basis(n_a, 1).basis_trees()
    nonzero = 0
    for j, c_j in enumerate(homology.homology_basis(n_b, 1).basis_trees()):
        for split in trees.all_splits(n_a):
            lhs = sum(row[j] * homology.intersection_pairing_h2(src, split)
                      for row, src in zip(matrix, sources))
            rhs = sum(w * homology.intersection_pairing_h2(c_j, split_t)
                      for (image, split_t), w in pullback.items() if image == split)
            assert lhs == Fraction(rhs, deg_nu), (j, trees.marks_of(split))
            nonzero += lhs != 0
    assert nonzero


# -- the column by the projection formula -----------------------------------------


# d1_datum(5) is the datum of data/d1_self.json; a datum on four target marks
# has no glued class (its one curve class is the smooth target, over which
# every source curve is smooth), so the degree-3 case is on five marks
@pytest.mark.parametrize("make, count, with_points", [
    (d2_self_map_datum, 15, 9),
    (d3_self_map_datum, 11, 11),
    (d1_datum, 5, 0),
    (d2_six_mark_self_map_datum, 44, 32),
])
def test_columns_match_the_glued_class_reference(make, count, with_points):
    # each column is the sum, over its cover types and their source vertices,
    # of the vertex class solved in its own space, glued in by whole trees
    # with points at the other moduli vertices, forgotten and reduced, over
    # the marking degree
    h = make()
    full, deg_nu = hurwitz.fully_mark(h)
    pm = pushforward_h2(h)
    keep = [full.a_marks.index(a) + 1 for a in pm.aprime]
    glued = points = 0
    for j, tau in enumerate(pm.source_pres.basis_trees()):
        want = {}
        for t, vertex_blocks, by_vertex in oracles.column_pairings_reference(full, tau):
            mod_vertices = [v for v, flags in enumerate(vertex_blocks) if len(flags) > 3]
            for v_hat, splitvals in by_vertex.items():
                glued += len(vertex_blocks) > 1
                points += bool(set(mod_vertices) - {v_hat})
                linalg.axpy(want, 1, oracles.glued_class_reference(
                    splitvals, t.source_tree, v_hat, mod_vertices, pm.target_pres, keep,
                    t.multiplicity))
        column = {i: row[j] for i, row in enumerate(pm.matrix) if row[j]}
        assert {i: x / deg_nu for i, x in want.items()} == column, j
    # vertex classes on a source curve with a node, and those among them
    # with another moduli vertex, where the reference substitutes a point
    assert (glued, points) == (count, with_points)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_psi_pairing_is_one_on_the_legs_of_the_four_valent_vertex(m):
    # psi_i pairs to 1 with a curve stratum when leg i sits on its 4-valent
    # vertex and to 0 otherwise; summing the pairings of the divisors whose
    # side through i misses j and k gives that for every choice of j and k
    splits = trees.all_splits(m)
    full = (1 << m + 1) - 2
    for tree in trees.enumerate_strata(m, 1):
        pairings = {}
        for s in splits:
            w = homology.intersection_pairing_h2(tree, s)
            if w:
                pairings[s] = w
        four = tree.valences().index(4)
        for i in range(1, m + 1):
            want = int(tree.legs[i - 1] == four)
            for j, k in itertools.combinations([p for p in range(1, m + 1) if p != i], 2):
                by_sides = sum(w for s, w in pairings.items()
                               if not {j, k} & set(trees.marks_of(s if s >> i & 1 else full ^ s)))
                assert by_sides == want, (tree, i, j, k)
                assert oracles.psi_pairing(m, pairings, i, j, k) == want, (tree, i, j, k)


@pytest.mark.parametrize("make, n", [(d3_self_map_datum, 5), (d2_six_mark_self_map_datum, 6)])
def test_pushforward_builds_only_the_target_and_retained_presentations(make, n, monkeypatch):
    # a column solves one pairing vector in the retained-mark presentation,
    # so no vertex space is built; the self matrix renames each basis
    # curve's marks on its split set, so no canonical_form call
    h = make()
    real_basis, real_canonical = homology.homology_basis, trees.canonical_form
    calls = collections.Counter()

    def basis(marks, k, limit_strata=None):
        calls[marks, k] += 1
        return real_basis(marks, k, limit_strata)

    def canonical(tree):
        calls["canonical_form"] += 1
        return real_canonical(tree)

    monkeypatch.setattr(homology, "homology_basis", basis)
    monkeypatch.setattr(trees, "canonical_form", canonical)
    pm = pushforward_h2(h)
    # the target presentation (n_b, 1) and the retained one (n_a, 1)
    assert calls == {(n, 1): 2}
    calls.clear()
    mat = self_correspondence_matrix(h, 1)
    assert not calls
    # the matrix of the pushforward with each basis tree's marks renamed
    p_a, p_b = pm.target_pres, pm.source_pres
    b_of_a = {pm.aprime.index(h.identify[b]) + 1: i for i, b in enumerate(h.b_marks, start=1)}
    for j, t in enumerate(p_a.basis_trees()):
        coords = homology.class_reduce(p_b, {oracles.relabel_marks(t, b_of_a): 1})
        for i in range(p_a.rank):
            assert mat[i][j] == sum(w * pm.matrix[i][c] for c, w in coords.items()), (i, j)


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


def test_strata_budget_bounds_the_target_space(monkeypatch):
    # the eight-mark target presentation is over the cap, and it is built
    # before any cover is enumerated
    def enumerate_nothing(*args):
        raise AssertionError("covers enumerated before the target presentation")

    monkeypatch.setattr(hurwitz, "enumerate_cover_types", enumerate_nothing)
    monkeypatch.setattr(hurwitz, "enumerate_cover_classes", enumerate_nothing)
    with pytest.raises(trees.ResourceError, match=r"\(n=8, k=1\)"):
        self_correspondence_matrix(_data_datum("d2_self8"), 1, limit_strata=1000)


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
        for memo in (hurwitz._CLASSES, pushforward._PUSHFORWARDS):
            memo.clear()
        assert self_correspondence_matrix(g, 1) == mat
        # one identification alone keeps as many entries as all of them
        assert len(hurwitz._CLASSES) == kept


def test_identifications_of_one_datum_share_one_pushforward():
    h = d2_self_map_datum()
    reversed_h = HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, h.br, h.rm, h.forget_to,
                             dict(zip(h.b_marks, reversed(h.forget_to))))
    mats = [self_correspondence_matrix(g, 1) for g in (h, reversed_h)]
    assert mats[0] != mats[1]
    assert len(pushforward._PUSHFORWARDS) == 1
    assert pushforward_h2(h) is pushforward_h2(reversed_h)
    # each matrix equals the one built from an empty memo
    for g, mat in zip((h, reversed_h), mats):
        pushforward._PUSHFORWARDS.clear()
        assert self_correspondence_matrix(g, 1) == mat


def test_a_fully_marked_twin_keeps_its_own_pushforward():
    # fully marking adds the two unmarked unramified points over b4, so the
    # marking degree is 2; the twin names every added mark itself, has the
    # same fully marked datum and marking degree 1
    h = marked_datum(3, [(3,), (1, 2), (1, 2), (1, 1, 1)])
    full, deg_nu = hurwitz.fully_mark(h)
    twin = HurwitzData(full.a_marks, full.b_marks, full.d, full.f_map, full.br, full.rm,
                       full.forget_to)
    assert (deg_nu, hurwitz.fully_mark(twin)[1]) == (2, 1)
    assert hurwitz.fully_mark(twin)[0].to_json_dict() == full.to_json_dict()
    pm, pm_twin = pushforward_h2(h), pushforward_h2(twin)
    assert len(pushforward._PUSHFORWARDS) == 2
    assert any(any(row) for row in pm.matrix)
    assert pm_twin.matrix == tuple(tuple(2 * x for x in row) for row in pm.matrix)
    pushforward._PUSHFORWARDS.clear()
    assert pushforward_h2(twin).matrix == pm_twin.matrix
    assert pushforward_h2(h).matrix == pm.matrix


def _identified(h):
    """h with target mark b_i identified with retained mark a_i."""
    return HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, h.br, h.rm, h.forget_to,
                       dict(zip(h.b_marks, h.forget_to)))


def _seeded_self_maps():
    """The self-maps among the seeded data of the covers-dynamics benchmark
    at seed 1; each identifies its targets by a shuffle of its marks."""
    rng = random.Random("covers-dynamics:1:0")
    lib = types.SimpleNamespace(hurwitz=hurwitz)
    data = [workloads.random_hurwitz(lib, rng, kind, n_b, with_identify)
            for kind, n_b, with_identify in workloads.CoversDynamics.SEEDED]
    return [h for h in data if h.identify is not None]


_SELF_MAPS = [
    ("fig1", fig1_datum),
    *(("d1_self%d" % n, lambda n=n: d1_datum(n)) for n in (4, 5, 6, 7)),
    ("d2_self6", d2_six_mark_self_map_datum),
    ("d3_self4", d3_four_mark_self_map_datum),
    ("d3_self5", d3_self_map_datum),
    ("d3six", lambda: _identified(marked_datum(3, [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * 3))),
    ("portrait4", lambda: oracles.portrait_datum(4, 1)),
    ("portrait5", lambda: oracles.portrait_datum(5, 1)),
    ("portrait4_f2", lambda: oracles.portrait_datum(4, 2)),
    *(("seeded%d" % j, lambda j=j: _seeded_self_maps()[j]) for j in range(16)),
]


@pytest.mark.parametrize("make", [make for _name, make in _SELF_MAPS],
                         ids=[name for name, _make in _SELF_MAPS])
def test_self_matrix_is_the_pushforward_times_the_relabelling(make):
    # the pullback table read with its target divisors renamed gives the
    # pushforward matrix conjugated by identify in curve coordinates
    h = make()
    assert self_correspondence_matrix(h, 1) == oracles.self_matrix_reference(h)


def test_capped_calls_after_an_uncapped_one_raise_as_before():
    h = d3_self_map_datum()
    mat = self_correspondence_matrix(h, 1)
    for _ in range(2):
        with pytest.raises(trees.ResourceError, match=r"^cover enumeration exceeded 50 tuples$"):
            pushforward_h2(h, limit_tuples=50)
        # five marks have 10 curve strata
        with pytest.raises(trees.ResourceError, match=r"\(n=5, k=1\)"):
            self_correspondence_matrix(h, 1, limit_strata=9)
    # a call that raises keeps nothing; one under caps it fits keeps its own
    assert len(pushforward._PUSHFORWARDS) == 1
    assert self_correspondence_matrix(h, 1, limit_strata=10 ** 6) == mat
    assert len(pushforward._PUSHFORWARDS) == 2


def test_second_iterate_of_the_period_four_portrait_is_the_square():
    # (f^2)_* = f_* f_* on the curve classes of five marks, for z^2 + c with
    # 0 of period 4; theta_k of f^2 is then the square of f's
    f, f2 = (oracles.portrait_datum(4, m) for m in (1, 2))
    mat, mat2 = (self_correspondence_matrix(h, 1) for h in (f, f2))
    assert [list(row) for row in mat2] == linalg.mat_mul(mat, mat)
    assert [dynamical_degree(m).exact for m in (mat, mat2)] == [2, 4]
    assert [dynamical_degree(self_correspondence_matrix(h, 0)).exact for h in (f, f2)] == [4, 16]


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


def test_an_integer_near_the_root_is_exact_only_when_it_is_a_root():
    # theta = 3 + 1e-10 lies within INTEGER_TOL of 3, but the characteristic
    # polynomial 10^20 (x - 3)^2 - 1 does not vanish at 3
    rep = dynamical_degree([[Fraction(3), Fraction(1)], [Fraction(1, 10 ** 20), Fraction(3)]])
    assert rep.char_poly == (9 * 10 ** 20 - 1, -6 * 10 ** 20, 10 ** 20)
    assert rep.method == "exact_roots"
    assert rep.exact is None
    assert abs(rep.value - (3 + 1e-10)) < 1e-12


def _data_datum(name):
    return HurwitzData.from_json_dict(json.loads((DATA / ("%s.json" % name)).read_text()))


# (value, exact, char_poly, method) as reported when the squarings went on to
# 1e-12 of the root, far past acceptance
@pytest.mark.parametrize("make, report", [
    (lambda: self_correspondence_matrix(_data_datum("fig1"), 0),
     (4.0, 4, (-4, 1), "exact_roots")),
    (lambda: self_correspondence_matrix(_data_datum("fig1"), 1),
     (1.0, 1, (-1, 1), "exact_roots")),
    (lambda: self_correspondence_matrix(_data_datum("d1_self"), 1),
     (1.0, 1, (-1, 5, -10, 10, -5, 1), "exact_roots")),
    (lambda: self_correspondence_matrix(_data_datum("d2_self6"), 1),
     (4.551177739724149, None,
      (67108864, -33554432, -4194304, 2097152, -786432, -1507328, 262144, 57344, -8192,
       512, 5248, -896, -96, 8, 2, -5, 1), "exact_roots")),
    (lambda: self_correspondence_matrix(d3_self_map_datum(), 1),
     (3.0, 3, (-108, 216, -171, 67, -13, 1), "exact_roots")),
    # one Jordan block for 2: the bound stalls above acceptance
    (lambda: [[Fraction(1), Fraction(1, 2)], [Fraction(-2), Fraction(3)]],
     (2.0000022744932826, None, (4, -4, 1), "power_iteration")),
    # the rotation has no real eigenvalue
    (lambda: [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]],
     (1.0, 1, (1, 0, 1), "power_iteration")),
])
def test_degree_reports_do_not_depend_on_where_the_squarings_stop(make, report):
    rep = dynamical_degree(make())
    assert (rep.value, rep.exact, rep.char_poly, rep.method) == report


def test_squarings_stop_at_the_acceptance_tolerance(monkeypatch):
    # spectral_radius_float takes one math.exp per squaring; they stop at
    # the first bound within pushforward.ACCEPT_TOL of the root (42 of them
    # to reach 1e-12), and run all 60 when none comes that close
    mat = self_correspondence_matrix(_data_datum("d2_self6"), 1)
    real = math.exp
    calls = []
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or real(x))
    assert dynamical_degree(mat).method == "exact_roots"
    assert len(calls) == 22
    calls.clear()
    dynamical_degree([[Fraction(1), Fraction(1, 2)], [Fraction(-2), Fraction(3)]])
    assert len(calls) == 60


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


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# two relabellings per space, a transposition and a cycle through every mark
_RELABELLINGS = {
    (6, 2): ((2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)),
    (7, 3): ((1, 2, 3, 4, 5, 7, 6), (3, 4, 5, 6, 7, 1, 2)),
}


@pytest.mark.parametrize("n,k", sorted(_RELABELLINGS))
def test_blocks_of_a_product_are_the_products_of_the_blocks(n, k):
    # the strictly-below span is invariant under relabelling, so the blocks
    # are the actions on it and on the quotient, and they compose
    a, b = (oracles.relabel_matrix(n, k, perm) for perm in _RELABELLINGS[(n, k)])
    ab = filtration_blocks(linalg.mat_mul(a, b), n, k)
    ba, bb = filtration_blocks(a, n, k), filtration_blocks(b, n, k)
    assert ab["lambda_dim"] > 0 and ab["omega_dim"] > 0
    for name in ("lambda_block", "omega_block"):
        want = linalg.mat_mul(ba[name], bb[name])
        assert ab[name] == tuple(tuple(row) for row in want), name


@pytest.mark.parametrize("n,k", sorted(_RELABELLINGS))
def test_char_poly_factors_over_the_blocks(n, k):
    for perm in _RELABELLINGS[(n, k)]:
        mat = oracles.relabel_matrix(n, k, perm)
        blocks = filtration_blocks(mat, n, k)
        lam, om = (linalg.char_poly(blocks[name]) for name in ("lambda_block", "omega_block"))
        assert linalg.char_poly(mat) == _poly_mul(lam, om), perm


def test_blocks_k1_single_block():
    h = d1_datum(5)
    mat = self_correspondence_matrix(h, 1)
    blocks = filtration_blocks(mat, 5, 1)
    assert blocks["lambda_dim"] == 0
    assert blocks["omega_dim"] == homology.homology_basis(5, 1).rank


def test_blocks_report_escaping_generator():
    pres = homology.homology_basis(6, 2)
    below = filtration.below_subspace(6, 2)
    omega = filtration.OmegaQuotient(below, pres.rank)
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

