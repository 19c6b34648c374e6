"""Stratum presentation of homology: ranks, relations, pairings, forgetting.

Rank values are pinned against the closed form (2^n - n^2 + n - 2)/2 for the
middle degree and the full classical tables 1/5/1 (n=5), 1/16/16/1 (n=6),
1/42/127/42/1 (n=7), which were not computed with this code.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import oracles
from stratadyn import homology, linalg, trees


def closed_form_rank(n):
    return (2 ** n - n * n + n - 2) // 2


def _mask(marks):
    """The mark bitmask of a mark set, not normalised: either side of a
    split names it."""
    return sum(1 << mark for mark in marks)


def test_rank_tables():
    assert homology.homology_dims(5) == {0: 1, 1: 5, 2: 1}
    assert homology.homology_dims(6) == {0: 1, 1: 16, 2: 16, 3: 1}


def test_middle_rank_closed_form():
    for n in (5, 6, 7):
        assert homology.homology_basis(n, n - 4).rank == closed_form_rank(n)
    assert closed_form_rank(8) == 99


def test_rank_n7_table():
    assert homology.homology_dims(7) == {0: 1, 1: 42, 2: 127, 3: 42, 4: 1}


def test_duality_symmetry():
    for n in (5, 6, 7):
        dims = homology.homology_dims(n)
        for k in dims:
            assert dims[k] == dims[n - 3 - k]


def test_top_class_no_relations():
    for n in (4, 5, 6):
        assert homology.km_relations(n, n - 3) == []
        assert homology.homology_basis(n, n - 3).rank == 1


def test_km_relation_counts_small():
    # one quadruple of flags on the 4-mark space: three pairings, three
    # pairwise differences, rank 2, so H_0 has rank 1; the library keeps two
    assert len(oracles.km_relations_reference(4, 0)) == 3
    assert len(homology.km_relations(4, 0)) == 2
    assert homology.homology_basis(4, 0).rank == 1
    # (6,2): relations come from the single 3-dim stratum: C(6,4) quadruples
    # times three differences, of which the library keeps the C(4,2)
    # quadruples through flags 0 and 1, two differences each
    assert len(oracles.km_relations_reference(6, 2)) == 45
    assert len(homology.km_relations(6, 2)) == 12
    p = homology.homology_basis(6, 2)
    assert len(p.strata) == 25 and p.rank == 16


def test_five_one_presentation_shape():
    p = homology.homology_basis(5, 1)
    assert len(p.strata) == 10
    assert all(len(t.parents) == 2 for t in p.strata)
    assert p.rank == 5


def test_equivalent_pairings_reduce_equal():
    # the three pairings of marks 1..4 on the 4-mark space are homologous
    sides = [{1, 2}, {1, 3}, {1, 4}]
    ts = [trees.tree_from_splits(4, [trees.normalize_split(4, s)]) for s in sides]
    p = homology.homology_basis(4, 0)
    reds = [p.reduce_tree_dict({t: 1}) for t in ts]
    assert reds[0] == reds[1] == reds[2]


def test_km_relations_orthogonal_to_pairings():
    for n in (5, 6):
        splits = trees.all_splits(n)
        for row in oracles.km_relations_reference(n, 1):
            for s in splits:
                tot = sum(
                    c * homology.intersection_pairing_h2(t, s) for t, c in row.items()
                )
                assert tot == 0


def _relation_space(n, k, rows):
    column = {t: -i for i, t in enumerate(trees.enumerate_strata(n, k))}
    space = linalg.RowSpace()
    for row in rows:
        space.add({column[t]: c for t, c in row.items()})
    return space


def _sign_normalised(row, column):
    items = sorted((column[t], c) for t, c in row.items())
    if items[0][1] < 0:
        items = [(i, -c) for i, c in items]
    return tuple(items)


def test_curve_presentation_reads_each_stratum_once_for_its_flags(monkeypatch, flag_passes):
    # a curve's row is built from the flag blocks of its class key
    monkeypatch.setattr(homology, "_PRESENTATIONS", {})
    pres = homology.homology_basis(6, 1)
    assert sum(flag_passes.values()) == len(pres.strata)
    assert set(flag_passes.values()) == {1}


# every degree the relation route presents at n <= 7, and (8,4)
RELATION_ROUTE = [(n, k) for n in range(5, 8) for k in range(2, n - 2)] + [(8, 4)]


def test_km_relations_read_each_tree_once_for_its_flags(flag_passes):
    # every (7,3) stratum is read at each vertex of valence >= 4, several
    # of them at more than one vertex, with one flag pass per tree
    homology.km_relations(7, 2)
    sigmas = trees.enumerate_strata(7, 3)
    assert max(sum(val >= 4 for val in t._valences()) for t in sigmas) > 1
    assert sum(flag_passes.values()) == len(sigmas)
    assert set(flag_passes.values()) == {1}


def test_km_relations_span_the_reference_relations():
    # the quadruples through two fixed flags, two differences each, span the
    # same space as every quadruple with all three differences; (5,1) is the
    # five-flag case the spanning argument rests on
    for n, k in RELATION_ROUTE + [(5, 1), (6, 1)]:
        got = homology.km_relations(n, k)
        want = oracles.km_relations_reference(n, k)
        assert _relation_space(n, k, got).equals(_relation_space(n, k, want)), (n, k)
        index = {t: i for i, t in enumerate(trees.enumerate_strata(n, k))}
        reference = {_sign_normalised(row, index) for row in want}
        assert all(_sign_normalised(row, index) in reference for row in got), (n, k)


def test_relation_rows_in_any_order_give_the_same_rows():
    rows = homology.km_relations(7, 2)
    forward = _relation_space(7, 2, rows)
    backward = _relation_space(7, 2, rows[::-1])
    assert forward.rows == backward.rows
    assert len(forward.rows) == len(trees.enumerate_strata(7, 2)) - 127


def test_pairing_rejects_bad_strata_and_sides():
    # the (5,1) stratum with blocks {1}, {2}, {3}, {4,5} at its 4-valent
    # vertex; a side with a mark outside 1..5 names no split, though its
    # complement in 1..5 may be a union of two blocks
    t = trees.MarkedTree(5, (-1, 0), (0, 0, 0, 1, 1))
    assert homology.intersection_pairing_h2(t, _mask({3, 4, 5})) == 1
    for mask in (_mask({1, 2, 9}), _mask({0, 4, 5}), -8, _mask({2, 3, 6})):
        with pytest.raises(ValueError, match="outside"):
            homology.intersection_pairing_h2(t, mask)
    for side in ({1}, {1, 2, 3, 4}, set()):
        with pytest.raises(ValueError, match="size"):
            homology.intersection_pairing_h2(t, _mask(side))
    with pytest.raises(ValueError, match="1-dimensional"):
        homology.intersection_pairing_h2(trees.trivial_tree(5), _mask({1, 2}))


def test_pairing_hand_values():
    # chain with edges cutting {2,3} and {5,6}: middle vertex has blocks
    # {1}, {4}, {2,3}, {5,6}
    t = trees.tree_from_splits(6, [trees.normalize_split(6, s) for s in ({2, 3}, {5, 6})])
    cases = {
        (2, 3): -1,          # one block
        (5, 6): -1,
        (2, 3, 5, 6): 1,     # two blocks
        (4, 5, 6): 1,        # {4} + {5,6}
        (2, 3, 4): 1,
        (3, 4): 0,           # slices a block
        (4, 5): 0,
        (2, 3, 5): 0,
    }
    for s, val in cases.items():
        assert homology.intersection_pairing_h2(t, trees.normalize_split(6, s)) == val
    # complements, the sides with mark 1, give the same answers
    for s, val in cases.items():
        assert homology.intersection_pairing_h2(t, _mask(set(range(1, 7)) - set(s))) == val
    # the fundamental class of the 4-mark space meets every boundary point once
    t4 = trees.trivial_tree(4)
    assert [homology.intersection_pairing_h2(t4, s) for s in trees.all_splits(4)] == [1, 1, 1]


def test_solve_from_pairings_roundtrip():
    for n in (4, 5, 6, 7):
        p = homology.homology_basis(n, 1)
        splits = trees.all_splits(n)
        rng = random.Random(n)
        for _ in range(10):
            coeffs = {
                j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for j in rng.sample(range(p.rank), min(3, p.rank))
            }
            coeffs = {j: c for j, c in coeffs.items() if c}
            pair = {}
            for s in splits:
                tot = Fraction(0)
                for j, c in coeffs.items():
                    tot += c * homology.intersection_pairing_h2(p.strata[p.basis[j]], s)
                if tot:
                    pair[s] = tot
            assert homology.solve_class_from_pairings(p, pair) == coeffs


def test_solve_from_pairings_rejects_bad_vector():
    p = homology.homology_basis(5, 1)
    t = p.strata[p.basis[0]]
    pair = {s: homology.intersection_pairing_h2(t, s) for s in trees.all_splits(5)}
    corrupted = dict(pair)
    s0 = trees.all_splits(5)[0]
    corrupted[s0] = corrupted.get(s0, 0) + 1
    try:
        x = homology.solve_class_from_pairings(p, corrupted)
    except ValueError:
        return
    # if the corrupted vector happens to stay consistent it must at least
    # differ from the original class
    assert x != {0: Fraction(1)}


def test_solve_from_pairings_rejects_two_values_for_one_split():
    p = homology.homology_basis(5, 1)
    t = p.strata[p.basis[0]]
    pair = {s: homology.intersection_pairing_h2(t, s) for s in trees.all_splits(5)}
    s = trees.normalize_split(5, {2, 3})
    other = _mask({1, 4, 5})
    assert pair[s] == 1
    # the complement names the same split; it comes first, with another value
    with pytest.raises(ValueError, match=r"split \[2, 3\] two values"):
        homology.solve_class_from_pairings(p, {other: 8, **pair})
    assert homology.solve_class_from_pairings(p, {other: 1, **pair}) == {0: 1}


def test_solve_from_pairings_rejects_bits_outside_the_marks():
    # with bit 9 dropped, the side {1, 3, 5, 6, 9} at n = 6 would read as
    # the split {2, 4} and solve as the true data
    p = homology.homology_basis(6, 1)
    t = p.strata[p.basis[0]]
    pair = {s: homology.intersection_pairing_h2(t, s) for s in trees.all_splits(6)}
    assert homology.solve_class_from_pairings(p, pair) == {0: 1}
    s = trees.normalize_split(6, {2, 4})
    for bad in (_mask({1, 3, 5, 6, 9}), _mask({0, 2, 4}), -s):
        with pytest.raises(ValueError, match="outside marks 1..6"):
            homology.solve_class_from_pairings(p, {bad if k == s else k: v for k, v in pair.items()})


def test_pairing_matrix_full_rank():
    from stratadyn import linalg

    for n in (4, 5, 6, 7):
        p = homology.homology_basis(n, 1)
        column = homology._split_columns(n)
        every, basis = linalg.RowSpace(), linalg.RowSpace()
        for i, t in enumerate(p.strata):
            row = homology._curve_row(n, homology.curve_blocks(t), column)
            every.add(row)
            if i in p.pos:
                basis.add(row)
        assert every.dim() == basis.dim() == p.rank
        # the presentation keeps the basis curves' rows only, each with its
        # pivot in a split column, below every stratum column
        kept = p._pairing_space
        assert kept.dim() == p.rank
        assert all(col <= -len(p.strata) for col in kept.rows)


def test_class_reduce_validates_degree():
    p = homology.homology_basis(5, 1)
    with pytest.raises(ValueError, match="wrong space or degree"):
        p.reduce_tree_dict({trees.trivial_tree(5): 1})
    with pytest.raises(ValueError, match="wrong space or degree"):
        p.reduce_tree_dict({trees.trivial_tree(4): 1})
    # a malformed tree is refused before its degree is read
    with pytest.raises(ValueError, match="mark 5 attached to missing vertex 7"):
        homology.class_reduce(p, {trees.MarkedTree(5, (-1,), (0, 0, 0, 0, 7)): 1})


def test_relabelled_encodings_reduce_by_split_set_building_no_tree(monkeypatch):
    # every stratum with n <= 7, its vertices renumbered and its marks
    # permuted, reduces to the coordinates of the canonical stratum the
    # reference canonical form names, and no lookup finishes a tree
    rng = random.Random(2719)
    cases = []
    for n in range(4, 8):
        for k in range(n - 2):
            pres = homology.homology_basis(n, k)
            index = {t: i for i, t in enumerate(pres.strata)}
            for t in pres.strata:
                r = oracles.relabel_vertices(t, rng.sample(range(t.num_vertices()), t.num_vertices()))
                r = oracles.relabel_marks(r, dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n))))
                want = pres.reduce_index_vec({index[oracles.canonical_form_reference(r)]: 1})
                cases.append((pres, r, want))
    built = []
    real = trees._finish
    monkeypatch.setattr(trees, "_finish", lambda *a: built.append(1) or real(*a))
    for pres, r, want in cases:
        assert homology.class_reduce(pres, {r: 1}) == want, r
    assert built == []


def test_presentation_index_is_built_when_first_read():
    pres = homology.HomologyPresentation(5, 1, trees.enumerate_strata(5, 1), [], {})
    assert "index" not in vars(pres)
    assert pres.index == {trees.split_set(t): i for i, t in enumerate(pres.strata)}
    assert vars(pres)["index"] is pres.index
    with pytest.raises(AssertionError, match="canonical stratum missing from presentation"):
        pres.stratum_index(set())


def test_cyclic_trees_raise_instead_of_hanging(within):
    # parent pointers 0 -> 1 -> 2 -> 0 never reach a root
    cyclic = trees.MarkedTree(4, (1, 2, 0), (0, 0, 1, 2))
    with within(5):
        with pytest.raises(ValueError, match="exactly one root"):
            homology.intersection_pairing_h2(cyclic, 0b1100)
        with pytest.raises(ValueError, match="exactly one root"):
            homology.forget_vec({trees.MarkedTree(5, (1, 0), (0, 0, 0, 1, 1)): 1}, [1, 2, 3, 4])


def test_forget_vec_basics():
    # drop mark 6: classes with the dropped mark on a moduli vertex die
    t_dead = trees.tree_from_splits(6, [trees.normalize_split(6, {2, 3})])   # dim 2, mark 6 on 5-valent vertex
    assert homology.forget_vec({t_dead: 1}, [1, 2, 3, 4, 5]) == {}
    t_live = trees.tree_from_splits(6, [trees.normalize_split(6, s) for s in ({2, 3}, {5, 6})])
    img = homology.forget_vec({t_live: 1}, [1, 2, 3, 4, 5])
    assert list(img.values()) == [1]
    (it,) = img.keys()
    assert it.splits() == {trees.normalize_split(5, {2, 3})} and it.dim() == 1


def test_forget_vec_lands_in_presentation():
    src = homology.homology_basis(6, 1)
    tgt = homology.homology_basis(5, 1)
    for b in src.basis:
        vec = homology.forget_vec({src.strata[b]: 1}, [1, 2, 3, 4, 5])
        coords = tgt.reduce_tree_dict(vec)  # must not raise
        assert all(isinstance(v, (int, Fraction)) for v in coords.values())


def test_homology_basis_limit():
    with pytest.raises(trees.ResourceError):
        homology.homology_basis(7, 1, limit_strata=100)


def test_homology_basis_limit_stops_at_the_cap(monkeypatch):
    # (8, 1) has 17,325 strata; the check must not build them all, even
    # when an earlier test left the presentation in the process cache
    monkeypatch.setattr(homology, "_PRESENTATIONS", {})
    monkeypatch.setattr(trees, "_STRATA", {})
    built = []
    real = trees._finish
    monkeypatch.setattr(trees, "_finish", lambda *a: built.append(1) or real(*a))
    with pytest.raises(trees.ResourceError, match=r"\(n=8, k=1\).*100 strata"):
        homology.homology_basis(8, 1, limit_strata=100)
    assert len(built) == 101


def test_homology_basis_limit_on_kept_strata_builds_nothing(monkeypatch):
    # with (8, 0) enumerated, a capped request is refused from the kept list
    monkeypatch.setattr(homology, "_PRESENTATIONS", {})
    trees.enumerate_strata(8, 0)
    built = []
    real = trees._finish
    monkeypatch.setattr(trees, "_finish", lambda *a: built.append(1) or real(*a))
    with pytest.raises(trees.ResourceError, match=r"\(n=8, k=0\).*100 strata"):
        homology.homology_basis(8, 0, limit_strata=100)
    assert built == []


def test_presentation_strata_are_the_enumeration():
    for n in (4, 5, 6, 7):
        for k in range(n - 2):
            assert homology.homology_basis(n, k).strata == trees.enumerate_strata(n, k)


# every degree up to seven marks, and at eight marks the k = 0 pairing route
# (one shared row) and the divisor degree on relations
REDUCE_SPACES = [(n, k) for n in (5, 6, 7) for k in range(n - 2)] + [(8, 0), (8, 4)]


def _reduce_inputs(rng, m):
    """Single strata, integer coefficients -3..3 with 0, Fraction coefficients
    with denominators 2..10, one float, and +-1 pairs over m strata."""
    vecs = [{i: 1} for i in range(m)]
    vecs += [{i: c} for i in rng.sample(range(m), min(m, 20)) for c in (-3, -1, 0, 2)]
    for _ in range(40):
        size = rng.randint(1, min(m, 5))
        vecs.append({i: rng.randint(-3, 3) for i in rng.sample(range(m), size)})
    for _ in range(40):
        size = rng.randint(1, min(m, 5))
        vecs.append({i: Fraction(rng.randint(-9, 9), rng.randint(2, 10))
                     for i in rng.sample(range(m), size)})
    vecs.append(dict(zip(rng.sample(range(m), min(m, 3)), (0.1, 2, Fraction(-2, 3)))))
    vecs += [{i: 1, j: -1} for i, j in zip(range(m), range(1, m))]
    vecs += [{i: Fraction(1), j: Fraction(-1)} for i, j in zip(range(m), range(1, m))]
    return vecs


def test_reduce_index_vec_matches_fraction_reference():
    rng = random.Random(8)
    for n, k in REDUCE_SPACES:
        pres = homology.homology_basis(n, k)
        for vec in _reduce_inputs(rng, len(pres.strata)):
            got = pres.reduce_index_vec(vec)
            want = oracles.reduce_index_vec_reference(pres, vec)
            assert got == want, (n, k, vec)
            assert list(got) == list(want), (n, k, vec)
            assert all(type(v) is Fraction for v in got.values()), (n, k, vec)


def test_integer_coords_are_the_reference_over_one_denominator():
    rng = random.Random(9)
    for n, k in REDUCE_SPACES:
        pres = homology.homology_basis(n, k)
        for vec in _reduce_inputs(rng, len(pres.strata)):
            v, big = pres.integer_coords(vec)
            want = oracles.reduce_index_vec_reference(pres, vec)
            assert type(big) is int and big > 0, (n, k, vec)
            assert all(type(x) is int for x in v.values()), (n, k, vec)
            assert list(v) == list(want), (n, k, vec)
            assert all(Fraction(x, big) == want[j] for j, x in v.items()), (n, k, vec)


def test_reduced_coordinates_do_not_alias_the_presentation():
    for n, k in ((6, 0), (6, 1), (6, 2), (7, 2)):
        pres = homology.homology_basis(n, k)
        before_int = {i: (den, dict(row)) for i, (den, row) in pres.int_expr.items()}
        for i in range(len(pres.strata)):
            coords = pres.reduce_index_vec({i: 1})
            coords[0] = Fraction(99)
            coords.pop(1, None)
            v, _ = pres.integer_coords({i: 1})
            v[0] = 99
            v.pop(1, None)
        assert pres.int_expr == before_int, (n, k)
        assert pres.reduce_index_vec({pres.basis[0]: 1}) == {0: 1}


def test_pairing_presentation_matches_relation_oracle():
    for n in (3, 4, 5, 6, 7):
        for k in range(min(1, n - 3) + 1):
            got = homology.homology_basis(n, k)
            want = oracles.relation_presentation(n, k)
            assert got.strata == want.strata, (n, k)
            assert got.basis == want.basis, (n, k)
            assert oracles.expressions(got) == oracles.expressions(want), (n, k)


def test_relation_route_matches_relation_oracle():
    # k >= 2 keeps the primitive relation rows; the oracle eliminates in
    # Fractions, keeps its own integer rows and is read back through them
    for n, k in ((6, 2), (7, 2), (7, 3)):
        got = homology.homology_basis(n, k)
        want = oracles.relation_presentation(n, k)
        assert got.strata == want.strata, (n, k)
        assert got.basis == want.basis, (n, k)
        assert oracles.expressions(got) == oracles.expressions(want), (n, k)
        for i in range(len(got.strata)):
            assert got.reduce_index_vec({i: 1}) == want.reduce_index_vec({i: 1}), (n, k, i)


def test_points_of_eight_marks_are_one_class():
    p = homology.homology_basis(8, 0)
    assert p.basis == [0]
    assert len(p.int_expr) == len(p.strata) - 1
    assert all(e == (1, {0: 1}) for e in p.int_expr.values())
    assert all(p.reduce_index_vec({i: 1}) == {0: 1} for i in range(len(p.strata)))


def test_curve_row_matches_pairing_over_every_split():
    for n in (5, 6, 7):
        column = homology._split_columns(n)
        for t in trees.enumerate_strata(n, 1):
            want = {}
            for s, j in column.items():
                val = homology.intersection_pairing_h2(t, s)
                if val:
                    want[j] = val
            # any of the four blocks can come first
            blocks = sorted(homology.curve_blocks(t))
            for k in range(4):
                assert homology._curve_row(n, blocks[k:] + blocks[:k], column) == want


# S(n, 4), the partitions of n marks into four blocks
FOUR_BLOCK_PARTITIONS = {5: 10, 6: 65, 7: 350, 8: 1701}


def test_curve_classes_are_the_four_block_keys():
    # a curve's pairings read only the four flag blocks at its 4-valent
    # vertex, so strata with one key share their class, and a key holds at
    # most one basis stratum
    for n, count in FOUR_BLOCK_PARTITIONS.items():
        pres = homology.homology_basis(n, 1)
        groups = {}
        for i, t in enumerate(pres.strata):
            blocks = oracles.flag_marksets_by_definition(t, t._valences().index(4))
            # in flag order, which the blocks themselves fix
            key = homology.curve_blocks(t)
            assert key == tuple(sum(1 << mark for mark in b) for b in blocks), (n, i)
            groups.setdefault(key, []).append(i)
        assert len(groups) == count, n
        for first, *rest in groups.values():
            want = pres.reduce_index_vec({first: 1})
            assert all(pres.reduce_index_vec({i: 1}) == want for i in rest), (n, first)
            assert sum(i in pres.pos for i in (first, *rest)) <= 1, (n, first)


def test_eight_mark_curve_basis_is_pinned():
    # the greedy basis of (8, 1) as the one-row-per-stratum route chose it
    basis = homology.homology_basis(8, 1).basis
    assert len(basis) == closed_form_rank(8)
    digest = hashlib.sha256(json.dumps(basis).encode()).hexdigest()
    assert digest == "d8a7c069dc356f23b73fcd194088a3ba41a698bcc714a79abe8756ee9f8ee604"
