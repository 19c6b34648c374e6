"""Partition order, filtration subspaces, omega quotients.

Frozen dimensions: the strictly-below span at k = n-4 has dimension
(2^n - 2 - 2n - n(n-1))/2, giving 0/10/35/91 for n = 5..8, and the omega
quotient has dimension n.
"""

import random
from fractions import Fraction

import pytest

import oracles
from stratadyn import filtration, homology, linalg, trees


def test_partition_order_basics():
    assert filtration.partition_leq((1, 1, 2), (2, 2))
    assert filtration.partition_leq((1, 1, 2), (1, 3))
    assert filtration.partition_leq((1, 1, 2), (4,))
    assert filtration.partition_leq((2, 2), (4,))
    assert not filtration.partition_leq((2, 2), (1, 3))
    assert not filtration.partition_leq((1, 3), (2, 2))
    assert filtration.partition_leq((3,), (3,))
    assert not filtration.partition_leq((1, 1), (3,))  # different totals
    assert filtration.partition_leq((), ())


def test_partition_order_is_reflexive_and_antisymmetric():
    parts = filtration.partitions_of(6)
    for a in parts:
        assert filtration.partition_leq(a, a)
        for b in parts:
            if a != b:
                assert not (
                    filtration.partition_leq(a, b) and filtration.partition_leq(b, a)
                )


def test_partition_order_rejects_parts_below_one():
    # with a part 0, (0, 2) and (2,) would each be below the other; the
    # cache keeps no exception, so every call raises
    for lam, mu in (((0, 2), (2,)), ((2,), (0, 2)), ((-1, 3), (2,)), ((2,), (-1, 3))):
        for _ in range(2):
            with pytest.raises(ValueError, match="partition parts must be >= 1"):
                filtration.partition_leq(lam, mu)


def test_realizable():
    # p parts need at least k + p + 2 marks
    assert filtration.realizable(6, 2, (1, 1))
    assert not filtration.realizable(5, 2, (1, 1))
    assert filtration.realizable(5, 2, (2,))
    assert filtration.realizable(8, 4, (2, 2))
    assert not filtration.realizable(8, 4, (1, 1, 2))
    assert not filtration.realizable(8, 4, (1, 1, 1, 1))


def test_every_stratum_partition_realizable():
    for n in (5, 6, 7):
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                lam = trees.induced_partition(t)
                assert filtration.realizable(n, k, lam)


def test_below_dims_closed_form():
    for n in (5, 6, 7, 8):
        expect = (2 ** n - 2 - 2 * n - n * (n - 1)) // 2
        assert filtration.below_subspace(n, n - 4).dim() == expect


def test_omega_dim_is_n():
    for n in (5, 6, 7, 8):
        assert filtration.omega_quotient(n, n - 4).dim() == n


def test_lambda_subspace_nested():
    # (6,2): (1,1) <= (2), so the subspaces nest; dims 10 and 16
    low = filtration.lambda_subspace(6, 2, (1, 1))
    high = filtration.lambda_subspace(6, 2, (2,))
    assert low.dim() == 10 and high.dim() == 16
    assert low.is_subspace_of(high)
    assert not high.is_subspace_of(low)


def test_lambda_maximal_is_everything():
    for n, k in ((5, 1), (6, 2), (7, 3)):
        assert filtration.lambda_subspace(n, k, (k,)).dim() == homology.homology_basis(n, k).rank


def test_below_equals_sum_of_nonmaximal_lambdas():
    # dual route: the strictly-below span must agree with the sum of all
    # Lambda^{<=lam} over non-maximal lam; the generators differ, the
    # resulting spaces must not
    for n, k in ((6, 2), (7, 2), (7, 3), (8, 4)):
        direct = filtration.below_subspace(n, k)
        summed = filtration.FiltrationSubspace()
        for lam in filtration.partitions_of(k):
            if lam == (k,) or not filtration.realizable(n, k, lam):
                continue
            piece = filtration.lambda_subspace(n, k, lam)
            for row in piece.rows.values():
                summed.add(dict(row))
        assert direct.equals(summed)


def test_below_span_independent_of_insertion_order():
    # the stored rows, the rref and the omega projections are canonical for
    # the span, so no insertion order shows in them
    pres = homology.homology_basis(7, 2)
    gens = [
        pres.reduce_index_vec({i: 1})
        for i, t in enumerate(pres.strata)
        if len(trees.induced_partition(t)) >= 2
    ]
    quotients = []
    for seed in (72, 27):
        order = list(gens)
        random.Random(seed).shuffle(order)
        sub = filtration.FiltrationSubspace()
        for g in order:
            sub.add(g)
        quotients.append(filtration.OmegaQuotient(sub, pres.rank))
    a, b = quotients
    assert a.below.rows == b.below.rows
    assert a.below.rref() == b.below.rref()
    assert a.positions == b.positions
    for i in range(len(pres.strata)):
        coords = pres.reduce_index_vec({i: 1})
        assert a.project(coords) == b.project(coords)


def test_k1_filtration_trivial():
    for n in (5, 6, 7):
        assert filtration.below_subspace(n, 1).dim() == 0
        assert filtration.omega_quotient(n, 1).dim() == homology.homology_basis(n, 1).rank


def test_omega_projection_kills_below():
    om = filtration.omega_quotient(6, 2)
    pres = homology.homology_basis(6, 2)
    for t in pres.strata:
        if len(trees.induced_partition(t)) >= 2:
            assert om.project(pres.reduce_tree_dict({t: 1})) == {}


def test_omega_projection_linear():
    om = filtration.omega_quotient(6, 2)
    pres = homology.homology_basis(6, 2)
    a = pres.reduce_tree_dict({pres.strata[pres.basis[0]]: 1})
    b = pres.reduce_tree_dict({pres.strata[pres.basis[1]]: 1})
    from stratadyn import linalg

    lhs = om.project(linalg.axpy(dict(a), Fraction(3), b))
    rhs = linalg.axpy(om.project(a), Fraction(3), om.project(b))
    assert lhs == rhs


def test_forget_preserves_lambda_pieces():
    # images of Lambda^{<=lam} generators of the 7-mark space lie in the
    # matching piece one mark down
    keep = [1, 2, 3, 4, 5, 6]
    for k in (0, 1, 2, 3):
        pres7 = homology.homology_basis(7, k)
        pres6 = homology.homology_basis(6, k)
        for lam in filtration.partitions_of(k):
            if not filtration.realizable(7, k, lam):
                continue
            target = filtration.lambda_subspace(6, k, lam)
            for t in pres7.strata:
                if not filtration.partition_leq(trees.induced_partition(t), lam):
                    continue
                img = homology.forget_vec({t: 1}, keep)
                assert target.contains(pres6.reduce_tree_dict(img))


def test_lambda_subspace_validates():
    with pytest.raises(ValueError):
        filtration.lambda_subspace(6, 2, (1,))
    # parts below 1 are not a partition, even when they sum to k
    for lam in ((0, 2), (-1, 3)):
        with pytest.raises(ValueError, match="lam must be a partition of k"):
            filtration.lambda_subspace(6, 2, lam)


def test_lambda_subspace_equals_the_span_of_every_generator():
    # lambda_subspace stops adding generators at full rank; the rows, their
    # order and the canonical key must be those of the span of all of them
    for n in range(3, 8):
        for k in range(n - 2):
            pres = homology.homology_basis(n, k)
            for lam in filtration.partitions_of(k):
                if not filtration.realizable(n, k, lam):
                    continue
                full = filtration.FiltrationSubspace()
                for i, t in enumerate(pres.strata):
                    if filtration.partition_leq(trees.induced_partition(t), lam):
                        full.add(pres.reduce_index_vec({i: 1}))
                sub = filtration.lambda_subspace(n, k, lam)
                assert list(sub.rows.items()) == list(full.rows.items()), (n, k, lam)
                assert sub.rref() == full.rref(), (n, k, lam)


def _reference_span(pres, vecs):
    """The span of the Fraction coordinates of vecs, reduced by the oracle."""
    space = linalg.RowSpace()
    for vec in vecs:
        space.add(oracles.reduce_index_vec_reference(pres, vec))
    return space


def test_integer_generators_span_the_fraction_generators():
    # lambda_subspace and below_subspace add integer coordinates, each the
    # Fraction coordinates times one denominator
    for n in (5, 6, 7):
        for k in range(n - 2):
            pres = homology.homology_basis(n, k)
            parts = [trees.induced_partition(t) for t in pres.strata]
            for lam in filtration.partitions_of(k):
                if not filtration.realizable(n, k, lam):
                    continue
                want = _reference_span(
                    pres, [{i: 1} for i, p in enumerate(parts) if filtration.partition_leq(p, lam)]
                )
                got = filtration.lambda_subspace(n, k, lam)
                assert got.rref() == want.rref(), (n, k, lam)
            want = _reference_span(pres, [{i: 1} for i, p in enumerate(parts) if len(p) >= 2])
            got = filtration.below_subspace(n, k)
            assert got.rref() == want.rref(), (n, k)


def test_filtration_dims_spans_each_generator_list_once():
    # filtration_dims spans a generator list shared by several levels once;
    # every span it builds has the rows, in order, of the separate calls
    for n in range(3, 8):
        for k in range(n - 2):
            levels, below = filtration._filtration_spans(n, k)
            for lam, sub in levels.items():
                want = filtration.lambda_subspace(n, k, lam)
                assert list(sub.rows.items()) == list(want.rows.items()), (n, k, lam)
            want = filtration.below_subspace(n, k)
            assert list(below.rows.items()) == list(want.rows.items()), (n, k)
            dims = {lam: sub.dim() for lam, sub in levels.items()}
            omega = filtration.omega_quotient(n, k).dim()
            assert filtration.filtration_dims(n, k) == (dims, below.dim(), omega)
    # at (7, 2) the level (1, 1) and the strictly-below span are one list
    levels, below = filtration._filtration_spans(7, 2)
    assert levels[(1, 1)] is below


def test_filtration_dims_cap_raises_the_presentation_error():
    with pytest.raises(trees.ResourceError, match=r"^presentation for \(n=7, k=2\) needs more than 100 strata$"):
        filtration.filtration_dims(7, 2, limit_strata=100)
