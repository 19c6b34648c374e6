"""Weight data: minimality, stability, reduction image types and kernels.

The minimality window check is cross-validated against the brute-force
subset enumeration in oracles.py; kernel dimensions are pinned where derived
by hand (zero at (5,1); 10 = the strictly-below span at (6,2)).
"""

import random
from fractions import Fraction

import pytest

from stratadyn import filtration, hassett, homology, linalg, trees
from oracles import (
    brute_minimality_window,
    flag_marksets_by_definition,
    legs_at,
    normalize_split,
    reduce_index_vec_reference,
    relabel_vertices,
    stable_vertices_reference,
    stable_vertices_two_walks,
    valence,
)


def test_validate_weights():
    with pytest.raises(ValueError):
        hassett.validate_weights([Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        hassett.validate_weights([Fraction(1, 2)] * 4)  # sums to 2 exactly
    with pytest.raises(ValueError):
        hassett.validate_weights([Fraction(3, 2), 1, 1, 1])
    with pytest.raises(ValueError):
        hassett.validate_weights([0, 1, 1, 1])
    ws = hassett.validate_weights([1, 1, 1, Fraction(1, 3)])
    assert all(isinstance(w, Fraction) for w in ws)


def test_is_minimal_matches_brute_force():
    rng = random.Random(424242)
    agree = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        ws = []
        for _ in range(n):
            ws.append(Fraction(rng.randint(1, 12), 12))
        if sum(ws) <= 2:
            continue
        ws = tuple(ws)
        assert hassett.is_minimal(ws) == brute_minimality_window(ws)
        agree += 1
    assert agree > 150


def test_all_ones_not_minimal():
    # two unit weights already sum into the window
    assert not hassett.is_minimal([1] * 5)


def test_epsilon_dagger_minimal():
    for n in range(4, 9):
        e = hassett.epsilon_dagger(n)
        assert len(e) == n
        assert all(0 < w <= 1 for w in e)
        assert sum(e) > 2
        assert hassett.is_minimal(e)
        assert brute_minimality_window(e)


def test_stable_vertices_hand_case():
    # split 123|456 at n=6: only the side containing mark 1 is stable
    t = trees.tree_from_splits(6, [normalize_split(6, {4, 5, 6})])
    e = hassett.epsilon_dagger(6)
    sv = hassett.stable_vertices(t, e)
    assert len(sv) == 1
    assert legs_at(t)[sv[0]] == [1, 2, 3]


def test_exactly_one_stable_vertex_small():
    for n in (5, 6):
        e = hassett.epsilon_dagger(n)
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                assert len(hassett.stable_vertices(t, e)) == 1


def test_stable_vertices_match_fraction_reference():
    for n in (5, 6, 7):
        e = hassett.epsilon_dagger(n)
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                assert hassett.stable_vertices(t, e) == stable_vertices_reference(t, e)
    # valid weight data that are not minimal leave several stable vertices
    rng = random.Random(3014)
    tried = several = 0
    while tried < 12:
        n = rng.randint(5, 7)
        e = tuple(Fraction(rng.randint(1, 10), rng.choice((3, 4, 5, 10))) for _ in range(n))
        if not all(w <= 1 for w in e) or sum(e) <= 2 or hassett.is_minimal(e):
            continue
        tried += 1
        for t in trees.enumerate_strata(n, rng.randint(0, n - 4)):
            got = hassett.stable_vertices(t, e)
            assert got == stable_vertices_reference(t, e)
            several += len(got) > 1
    assert several


def test_stable_vertices_sum_along_the_validating_pass_as_two_walks_did():
    # one pass of the validated tree gives the stable vertices and masks
    # the old second walk up from each mark gave, on every stratum of
    # n = 5..7, in its canonical encoding and with its vertices renumbered,
    # under the minimal dagger weights and a datum with several stable
    # vertices
    rng = random.Random(57)
    several = 0
    for n in (5, 6, 7):
        heavy = (Fraction(9, 10),) * 3 + (Fraction(1, 5),) * (n - 3)
        assert not hassett.is_minimal(heavy)
        for eps in (hassett.epsilon_dagger(n), heavy):
            W, D = hassett._integer_weights(hassett.validate_weights(eps, n))
            for k in range(n - 2):
                for t in trees.enumerate_strata(n, k):
                    m = t.num_vertices()
                    for tree in (t, relabel_vertices(t, rng.sample(range(m), m))):
                        got = hassett._stable_vertices(tree, trees._validate(tree), W, D)
                        assert got == stable_vertices_two_walks(tree, W, D), tree
                        several += len(got[0]) > 1
    assert several


def test_stable_vertices_validates_weights():
    t = trees.tree_from_splits(6, [normalize_split(6, {4, 5, 6})])
    with pytest.raises(ValueError, match="expected 6 weights, got 5"):
        hassett.stable_vertices(t, hassett.epsilon_dagger(5))
    with pytest.raises(ValueError, match="must lie in"):
        hassett.stable_vertices(t, [Fraction(3, 2)] + [1] * 5)
    with pytest.raises(ValueError, match="sum to more than 2"):
        hassett.stable_vertices(t, [Fraction(1, 3)] * 6)


def test_stable_vertices_of_a_cyclic_tree_raise_instead_of_hanging(within):
    # no root: 0 and 1 point at each other, and a walk up never ends
    cyclic = trees.MarkedTree(5, (1, 0), (0, 0, 0, 1, 1))
    with within(5):
        with pytest.raises(ValueError, match="exactly one root"):
            hassett.stable_vertices(cyclic, hassett.epsilon_dagger(5))


def _image_type(t, eps):
    """The kernel's image key of t with its flag masks read out as mark sets
    (trees.marks_of): (frozenset of the stable vertex's flag mark sets, its
    moduli count)."""
    W, D = hassett._integer_weights(hassett.validate_weights(eps, t.n))
    blocks, dim = hassett._image_key(t, W, D)
    return frozenset(frozenset(trees.marks_of(b)) for b in blocks), dim


def test_image_type_blocks():
    t = trees.tree_from_splits(6, [normalize_split(6, {4, 5, 6})])
    blocks, dim = _image_type(t, hassett.epsilon_dagger(6))
    assert dim == 1
    assert blocks == frozenset(
        {frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5, 6})}
    )
    # the trivial tree maps to itself: all blocks singletons, full dimension
    t0 = trees.trivial_tree(6)
    blocks0, dim0 = _image_type(t0, hassett.epsilon_dagger(6))
    assert dim0 == 3 and len(blocks0) == 6


def test_image_type_rejects_non_minimal_setup():
    # with non-minimal weights several vertices can be stable
    t = trees.tree_from_splits(6, [normalize_split(6, {4, 5, 6})])
    with pytest.raises(ValueError, match="exactly one stable vertex"):
        _image_type(t, [1] * 6)


def test_reduction_kernel_rejects_non_minimal():
    with pytest.raises(ValueError):
        hassett.reduction_kernel(5, 1, [1] * 5)


def test_kernel_five_one_zero():
    assert hassett.reduction_kernel(5, 1, hassett.epsilon_dagger(5)).dim() == 0


def test_kernel_six_two_matches_below():
    ker = hassett.reduction_kernel(6, 2, hassett.epsilon_dagger(6))
    bel = filtration.below_subspace(6, 2)
    assert ker.dim() == 10
    assert ker.equals(bel)


def test_kernel_contains_below_all_small():
    for n in (5, 6):
        e = hassett.epsilon_dagger(n)
        for k in range(0, n - 2):
            ker = hassett.reduction_kernel(n, k, e)
            bel = filtration.below_subspace(n, k)
            assert bel.is_subspace_of(ker)
            if 2 * k >= n - 3:
                assert ker.equals(bel)


def test_kernel_strictly_larger_low_k():
    # at (6,1) the kernel picks up differences of equal image types even
    # though the below-space is zero
    ker = hassett.reduction_kernel(6, 1, hassett.epsilon_dagger(6))
    assert filtration.below_subspace(6, 1).dim() == 0
    assert ker.dim() == 10


def test_equals_agrees_with_the_canonical_keys():
    # stored rows against the Fraction rref, on every kernel/below pair
    # with n <= 7, where both answers occur
    seen = set()
    for n in (4, 5, 6, 7):
        eps = hassett.epsilon_dagger(n)
        for k in range(n - 2):
            ker = hassett.reduction_kernel(n, k, eps)
            bel = filtration.below_subspace(n, k)
            same = ker.rref() == bel.rref()
            assert ker.equals(bel) == bel.equals(ker) == same, (n, k)
            seen.add(same)
    assert seen == {True, False}


def test_reduction_kernel_equals_the_span_of_fraction_generators():
    # the kernel adds integer coordinates; the same generators reduced in
    # Fractions by the oracle must span the same space
    for n in (5, 6, 7):
        eps = hassett.epsilon_dagger(n)
        for k in range(n - 2):
            pres = homology.homology_basis(n, k)
            want = linalg.RowSpace()
            reps = {}
            for i, t in enumerate(pres.strata):
                (v,) = stable_vertices_reference(t, eps)
                it = (frozenset(flag_marksets_by_definition(t, v)), valence(t, v) - 3)
                if it[1] < k:
                    want.add(reduce_index_vec_reference(pres, {i: 1}))
                elif it in reps:
                    want.add(reduce_index_vec_reference(pres, {reps[it]: 1, i: -1}))
                else:
                    reps[it] = i
            got = hassett.reduction_kernel(n, k, eps)
            assert got.rref() == want.rref(), (n, k)


def _buckets(keys):
    """The strata indices grouped by equal key, as a set of frozensets."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def test_image_key_buckets_are_the_image_type_buckets():
    # the kernel buckets strata by the stable vertex's flag masks; on
    # canonical strata and on relabelled encodings of them the masks, read
    # out as mark sets, and their buckets match the Fraction reference
    rng = random.Random(2203)
    for n in range(4, 8):
        eps = hassett.epsilon_dagger(n)
        W, D = hassett._integer_weights(hassett.validate_weights(eps, n))
        for k in range(n - 2):
            strata = trees.enumerate_strata(n, k)
            perms = [rng.sample(range(t.num_vertices()), t.num_vertices()) for t in strata]
            relabelled = [relabel_vertices(t, perm) for t, perm in zip(strata, perms)]
            if k < n - 3:
                assert any(r != t for r, t in zip(relabelled, strata)), (n, k)
            want = []
            for t in strata:
                (v,) = stable_vertices_reference(t, eps)
                want.append((frozenset(flag_marksets_by_definition(t, v)), valence(t, v) - 3))
            for ts in (strata, relabelled):
                keys = [hassett._image_key(t, W, D) for t in ts]
                types = [(frozenset(frozenset(trees.marks_of(b)) for b in blocks), dim)
                         for blocks, dim in keys]
                assert types == want, (n, k)
                assert _buckets(keys) == _buckets(types) == _buckets(want), (n, k)
            for t, r, perm in zip(strata, relabelled, perms):
                got = hassett.stable_vertices(r, eps)
                assert got == stable_vertices_reference(r, eps), r
                assert got == sorted(perm[v] for v in hassett.stable_vertices(t, eps)), r
