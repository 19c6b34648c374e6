"""Stratum trees: enumeration, canonical forms, forgetting, gluing.

Expected counts below were derived by hand before the enumeration existed:
trivalent trees are (2n-5)!!, one-edge strata are 2^(n-1) - n - 1, the 105
one-dim strata at n=6 decompose as 45 (middle vertex 4-valent) + 60 (end
vertex 4-valent), and the (7,1) count 1260 as 525 + 630 + 105 by valence
profile.  Totals 26 / 236 / 2752 / 39208 follow the series of leaf-labeled
trees without degree-2 vertices.
"""

import itertools
import json
import random
import re
import time

import pytest

from stratadyn import trees
from oracles import (
    all_splits_reference,
    assemble_from_splits,
    canonical_form_reference,
    enumerate_strata_reference,
    flag_marksets_by_definition,
    away_marks,
    forget_by_contraction,
    normalize_split,
    one_edge_refinements,
    random_stable_tree,
    relabel_marks,
    relabel_vertices,
    split_set_reference,
    splits_by_definition,
    strata_count_by_rooted_trees,
    strata_counts_by_refinement,
    valence,
)


KNOWN_COUNTS = {
    4: {0: 3, 1: 1},
    5: {0: 15, 1: 10, 2: 1},
    6: {0: 105, 1: 105, 2: 25, 3: 1},
    7: {0: 945, 1: 1260, 2: 490, 3: 56, 4: 1},
}
KNOWN_TOTALS = {4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}


def _counts_by_dim(n):
    """dict k -> number of k-dim strata, from the enumeration."""
    return {k: len(trees.enumerate_strata(n, k)) for k in range(n - 2)}


def test_counts_match_hand_values():
    for n, table in KNOWN_COUNTS.items():
        assert _counts_by_dim(n) == table


def test_counts_match_refinement_oracle():
    for n in range(4, 8):
        assert _counts_by_dim(n) == strata_counts_by_refinement(n)


def test_counts_n8():
    got = _counts_by_dim(8)
    assert got[0] == 10395          # 11!!
    assert got[1] == 17325
    assert got[4] == 2 ** 7 - 9     # one-edge strata
    assert got[5] == 1
    assert sum(got.values()) == KNOWN_TOTALS[8]


def test_counts_n8_refinement_oracle():
    assert _counts_by_dim(8) == strata_counts_by_refinement(8)


def test_dim_codim_complementary():
    for n in (5, 6):
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                assert t.dim() == k
                assert t.codim() == n - 3 - k
                assert t.dim() + t.codim() == n - 3


def test_canonical_form_relabeling_invariance():
    rng = random.Random(20260816)
    for _ in range(1000):
        n = rng.randint(4, 12)
        t = random_stable_tree(rng, n)
        perm = list(range(len(t.parents)))
        rng.shuffle(perm)
        r = relabel_vertices(t, perm)
        assert trees.canonical_form(r) == t
        assert canonical_form_reference(r) == t


def test_enumeration_matches_reference():
    cases = [(n, k) for n in range(4, 8) for k in range(n - 2)] + [(8, 0), (8, 4), (8, 5)]
    for n, k in cases:
        assert trees.enumerate_strata(n, k) == enumerate_strata_reference(n, k), (n, k)


def test_enumeration_beyond_the_reference_enumerator():
    # sizes the pairwise reference search is too slow for; (10, 5) has
    # two-digit marks, whose subcode labels compare as strings
    for n, k in [(8, 1), (8, 2), (8, 3), (10, 5)]:
        strata = trees.enumerate_strata(n, k)
        assert len(strata) == strata_count_by_rooted_trees(n, k), (n, k)
        split_sets = set()
        for t in strata:
            assert canonical_form_reference(t) == t, t
            split_sets.add(splits_by_definition(t))
        assert len(split_sets) == len(strata), (n, k)


def test_count_oracle_matches_known_counts():
    for n, table in KNOWN_COUNTS.items():
        assert {k: strata_count_by_rooted_trees(n, k) for k in table} == table
    assert [strata_count_by_rooted_trees(8, k) for k in range(6)] == [
        10395, 17325, 9450, 1918, 119, 1]


def test_edge_sides_match_the_away_marks_definition():
    rng = random.Random(16)
    for n in range(3, 8):
        ts = [t for k in range(n - 2) for t in trees.enumerate_strata(n, k)]
        ts += [relabel_vertices(t, rng.sample(range(t.num_vertices()), t.num_vertices()))
               for t in ts[:: max(1, len(ts) // 100)]]
        for t in ts:
            splits = {normalize_split(n, away_marks(t, p, c)) for c, p in t.edges()}
            assert trees.split_set(t) == splits, t
            masks, _ = trees._validate(t)
            for v in range(t.num_vertices()):
                # one flag order: position by position, not as sets
                want = list(map(_mask, flag_marksets_by_definition(t, v)))
                assert t.flag_masks(v, masks) == want, (t, v)


def test_canonical_form_idempotent():
    for t in trees.enumerate_strata(6, 1):
        assert trees.canonical_form(t) == t


def test_canonical_form_rejects_unstable():
    # a 2-valent vertex: path of 3 vertices with no leg in the middle
    bad = trees.MarkedTree(5, (-1, 0, 1), (0, 0, 0, 2, 2))
    with pytest.raises(ValueError):
        trees.canonical_form(bad)
    with pytest.raises(ValueError):
        trees.canonical_form(trees.MarkedTree(4, (-1, -1), (0, 0, 1, 1)))
    with pytest.raises(ValueError):
        trees.canonical_form(trees.MarkedTree(4, (1, 0), (0, 0, 1, 1)))
    malformed = [
        (trees.MarkedTree(4, (), ()), "at least one vertex"),
        (trees.MarkedTree(2, (-1,), (0, 0)), "at least 3 marks"),
        # 1 and 2 point at each other and never reach the root 0
        (trees.MarkedTree(5, (-1, 2, 1), (0, 0, 1, 2, 2)), "cycle through 1"),
        (trees.MarkedTree(4, (-1, 2), (0, 0, 1, 1)), "parent index 2 out of range at vertex 1"),
        (trees.MarkedTree(4, (-1, -2), (0, 0, 1, 1)), "parent index -2 out of range"),
        (trees.MarkedTree(4, (-1, 1), (0, 0, 1, 1)), "vertex 1 is its own parent"),
        (trees.MarkedTree(5, (-1, 0), (0, 0, 1, 1, 2)), "mark 5 attached to missing vertex 2"),
        (trees.MarkedTree(4, (-1,), (0, 0, 0)), "legs tuple must have length n"),
        (trees.MarkedTree(5, (-1, 0, 1), (0, 0, 0, 2, 2)), "vertex 1 has valence 2 < 3"),
    ]
    for bad, message in malformed:
        with pytest.raises(ValueError, match=message):
            trees.canonical_form(bad)


def test_constructor_refuses_what_is_not_an_integer():
    # int() would truncate 0.9 and 1.7 to the tree (-1, 0), (0, 0, 1, 1),
    # read n = 4.9 as 4 and parse "-1"
    for n, parents, legs in [
        (4, (-1, 0.9), (0, 0, 1.7, 1)),
        (4.9, (-1, 0), (0, 0, 1, 1)),
        (4, ("-1", "0"), (0, 0, 1, 1)),
        (4, (-1, 0), ("0", 0, 1, 1)),
        ("4", (-1, 0), (0, 0, 1, 1)),
    ]:
        with pytest.raises(TypeError):
            trees.MarkedTree(n, parents, legs)
    # integers of another type are taken as the ints they are
    odd = trees.MarkedTree(True + 3, [-1, False], iter((0, 0, True, True)))
    t = trees.MarkedTree(4, (-1, 0), (0, 0, 1, 1))
    assert odd == t and hash(odd) == hash(t) and repr(odd) == repr(t)
    assert odd.to_json_dict() == t.to_json_dict()
    assert all(type(x) is int for x in (odd.n,) + odd.parents + odd.legs)


def test_finished_trees_are_the_public_constructors():
    # the finishing step makes its trees without coercing or validating
    cases = [(n, k) for n in range(3, 8) for k in range(n - 2)] + [(8, 0)]
    for n, k in cases:
        strata = trees.enumerate_strata(n, k)
        built = [trees.tree_from_splits(n, trees.split_set(t)) for t in strata[::50]]
        for t in strata + built:
            u = trees.MarkedTree(t.n, t.parents, t.legs)
            assert t == u and hash(t) == hash(u) and repr(t) == repr(u), t
            assert type(t.n) is int and type(t.parents) is tuple and type(t.legs) is tuple
            assert all(type(x) is int for x in t.parents + t.legs), t
        assert strata == [trees.MarkedTree(t.n, t.parents, t.legs) for t in strata]


def _twin_outcome(t):
    """For a canonical tree with two centroids, (whether the root is on
    the far side of the middle edge from mark 1's vertex, whether mark 1's
    vertex is a centroid, whether either centroid carries marks); None for
    one centroid."""
    m = len(t.parents)
    size = [1] * m
    for v in range(m - 1, 0, -1):  # preorder: each parent before its children
        size[t.parents[v]] += size[v]
    twin = next((v for v in range(1, m) if t.parents[v] == 0 and 2 * size[v] == m), None)
    if twin is None:
        return None
    one = t.legs[0]
    marked = any(v in (0, twin) for v in t.legs)
    return twin <= one < twin + size[twin], one in (0, twin), marked


# (n, the sides of the splits as mark sets, the root's marks, the outcome)
TWIN_CASES = [
    # a caterpillar whose middle vertices carry 3 and 4, mark 1 beyond them
    (6, [{1, 2}, {5, 6}, {4, 5, 6}], (3,), (False, False, True)),
    (6, [{1, 2}, {5, 6}, {3, 5, 6}], (3,), (True, False, True)),
    # mark 1 on a twin
    (6, [{2, 3}, {5, 6}, {4, 5, 6}], (1,), (False, True, True)),
    # "(10;" sorts before "(1;": the twin carrying mark 10 is the root
    (10, [{2, 3}, {4, 5}, {6, 7}, {8, 9}, {6, 7, 8, 9, 10}], (10,), (True, True, True)),
    (10, [{1, 2, 4}, {1, 2, 4, 10}, {5, 6, 7, 8, 9}], (10,), (False, False, True)),
    (10, [{1, 2, 4}, {1, 2, 3, 4}, {5, 6, 7, 8, 9}], (10,), (True, False, True)),
    # twins without marks: each is keyed by its least child
    (8, [{1, 2}, {3, 4}, {5, 6}, {7, 8}, {5, 6, 7, 8}], (), (False, False, False)),
    (12, [{1, 2}, {5, 6}, {1, 2, 5, 6}, {7, 8}, {3, 4}, {9, 10}, {11, 12},
          {9, 10, 11, 12}, {3, 4, 9, 10, 11, 12}], (), (True, False, False)),
]


@pytest.mark.parametrize("n, sides, root_marks, outcome", TWIN_CASES)
def test_twin_centroid_is_settled_by_the_reference_subcode(n, sides, root_marks, outcome):
    splits = [normalize_split(n, s) for s in sides]
    t = trees.tree_from_splits(n, splits)
    want = canonical_form_reference(
        assemble_from_splits(n, [frozenset(trees.marks_of(s)) for s in splits]))
    assert t == want
    assert tuple(m for m, v in enumerate(t.legs, start=1) if v == 0) == root_marks
    assert _twin_outcome(t) == outcome


def test_twin_centroid_outcomes_all_occur_in_the_enumeration():
    # every stratum with two centroids up to eight marks, rebuilt from its
    # splits, is its reference canonical form; each outcome occurs but the
    # twin of mark 1 winning, whose key must sort before "(1": below ten
    # marks it starts "(2" or later, or "(;"
    seen = set()
    for n in range(4, 9):
        for k in range(n - 2):
            for t in trees.enumerate_strata(n, k):
                outcome = _twin_outcome(t)
                if outcome is not None:
                    seen.add(outcome)
                    assert trees.tree_from_splits(n, trees.split_set(t)) == t
                    assert canonical_form_reference(t) == t, t
    assert {(swapped, at_one) for swapped, at_one, _marked in seen} == {
        (False, False), (False, True), (True, False)}
    assert {marked for _s, _a, marked in seen} == {False, True}


def test_split_set_is_the_key_of_the_stratum():
    # relabelled encodings share the split set of their canonical stratum,
    # and the canonical form is the tree built from it
    rng = random.Random(2711)
    for _ in range(300):
        n = rng.randint(4, 10)
        t = random_stable_tree(rng, n)
        r = relabel_vertices(t, rng.sample(range(t.num_vertices()), t.num_vertices()))
        key = trees.split_set(r)
        assert isinstance(key, frozenset)
        assert key == trees.split_set(t) == split_set_reference(t)
        assert trees.tree_from_splits(n, key) == trees.canonical_form(r) == t
    with pytest.raises(ValueError, match="valence 2 < 3"):
        trees.split_set(trees.MarkedTree(5, (-1, 0, 1), (0, 0, 0, 2, 2)))


def _outcome(fn, tree):
    """fn(tree), or the type and message of what it raised."""
    try:
        return fn(tree)
    except Exception as exc:
        return type(exc), str(exc)


def test_split_set_is_the_two_walk_reference():
    # every stratum of n = 4..7 in its canonical encoding, its marks renamed
    # and its vertices renumbered
    rng = random.Random(2731)
    for n in range(4, 8):
        for k in range(n - 2):
            for t in trees.enumerate_strata(n, k):
                m = t.num_vertices()
                renamed = relabel_marks(t, dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n))))
                renumbered = relabel_vertices(t, rng.sample(range(m), m))
                for r in (t, renamed, renumbered):
                    assert trees.split_set(r) == split_set_reference(r), r


def test_split_set_raises_the_reference_errors_and_keeps_no_bad_parents():
    # one field corrupted at a time, on a six-mark caterpillar: each raises
    # the reference's error on two calls in a row, and the parent-pointer
    # memo keeps nothing for a tuple that raised
    base = trees.MarkedTree(6, (1, -1, 1, 2), (0, 0, 1, 2, 3, 3))
    corrupted = {
        "two roots": trees.MarkedTree(6, (1, -1, -1, 2), base.legs),
        "no root": trees.MarkedTree(6, (1, 2, 1, 2), base.legs),
        "parent out of range": trees.MarkedTree(6, (1, -1, 1, 7), base.legs),
        "negative parent": trees.MarkedTree(6, (1, -1, 1, -2), base.legs),
        "self-parent": trees.MarkedTree(6, (1, -1, 2, 2), base.legs),
        "2-cycle": trees.MarkedTree(6, (2, -1, 0, 2), base.legs),
        "3-cycle": trees.MarkedTree(6, (2, -1, 3, 0), base.legs),
        "legs one short": trees.MarkedTree(6, base.parents, base.legs[:-1]),
        "leg on a missing vertex": trees.MarkedTree(6, base.parents, (0, 0, 1, 2, 3, 4)),
        "valence 2": trees.MarkedTree(6, base.parents, (0, 0, 0, 2, 3, 3)),
        "n = 2": trees.MarkedTree(2, (-1,), (0, 0)),
        "no vertex": trees.MarkedTree(4, (), (0, 0, 0, 0)),
    }
    assert trees.split_set(base) == split_set_reference(base)
    memo = trees._parent_order.cache_info
    for name, bad in corrupted.items():
        want = _outcome(split_set_reference, bad)
        assert want[0] is ValueError, name
        size = memo().currsize
        for _ in range(2):
            assert _outcome(trees.split_set, bad) == want, name
        assert memo().currsize == size, name


def test_cyclic_parents_raise_instead_of_hanging(within):
    # no root: 0 and 1 point at each other, and a walk up never ends; the
    # gluing readers walked it from each mark before they read the
    # validating pass
    cyclic = trees.MarkedTree(5, (1, 0), (0, 0, 0, 1, 1))
    with within(5):
        with pytest.raises(ValueError, match="exactly one root"):
            trees.forget_pushforward(cyclic, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="exactly one root"):
            trees.split_set(cyclic)
        with pytest.raises(ValueError, match="exactly one root"):
            trees.glue_substitution(cyclic, {})
        with pytest.raises(ValueError, match="exactly one root"):
            trees.substitution_splits(6, [1 << mark for mark in range(2, 7)], cyclic)


def test_splits_roundtrip():
    for k in (0, 1, 2):
        for t in trees.enumerate_strata(6, k):
            s = trees.split_set(t)
            assert len(s) == t.codim()
            assert trees.tree_from_splits(6, s) == t


def test_tree_from_splits_rejects_incompatible():
    # {2,3} and {3,4} overlap without nesting
    with pytest.raises(ValueError):
        trees.tree_from_splits(6, [normalize_split(6, {2, 3}), normalize_split(6, {3, 4})])
    # overlapping sides that would each still leave a stable vertex
    with pytest.raises(ValueError):
        trees.tree_from_splits(8, [normalize_split(8, {2, 3, 4}),
                                   normalize_split(8, {4, 5, 6})])


def test_induced_partition():
    assert trees.induced_partition(trees.trivial_tree(6)) == (3,)
    for t in trees.enumerate_strata(6, 1):
        assert trees.induced_partition(t) == (1,)
    for t in trees.enumerate_strata(6, 0):
        assert trees.induced_partition(t) == ()
    # (6,2): 25 one-edge strata, 10 with two 4-valent ends,
    # 15 with a 5-valent and a 3-valent end
    parts = {}
    for t in trees.enumerate_strata(6, 2):
        lam = trees.induced_partition(t)
        parts[lam] = parts.get(lam, 0) + 1
    assert parts == {(1, 1): 10, (2,): 15}


def test_forget_trivalent_keeps_dim():
    t = trees.tree_from_splits(6, [normalize_split(6, {3, 4})])  # dim 2
    img = trees.forget_pushforward(t, [1, 2, 3, 4, 5])  # mark 6 sits on the big vertex
    assert img is None  # 5-valent vertex loses a leg: class dies
    img2 = trees.forget_pushforward(t, [1, 2, 4, 5, 6])  # drop mark 3 (trivalent side)
    # {3,4} side contracts away; marks renumber 4,5,6 -> 3,4,5
    assert img2 == trees.trivial_tree(5)
    assert img2.dim() == 2


def test_forget_renumbering():
    # splits {{5,6}} on 6 marks, drop mark 2: kept 1,3,4,5,6 -> 1,2,3,4,5
    t = trees.tree_from_splits(6, [normalize_split(6, {5, 6})])
    # mark 2 sits on the 5-valent vertex: class dies
    assert trees.forget_pushforward(t, [1, 3, 4, 5, 6]) is None
    # drop mark 5 instead (on the trivalent vertex): split {5,6} contracts
    img = trees.forget_pushforward(t, [1, 2, 3, 4, 6])
    assert img == trees.trivial_tree(5)
    # now a dim-preserving case with an honest split left over:
    # 3-vertex chain, middle 4-valent; drop a leg of a trivalent end
    t2 = trees.tree_from_splits(6, [normalize_split(6, s) for s in ({2, 3}, {5, 6})])
    img2 = trees.forget_pushforward(t2, [1, 2, 3, 4, 5])  # drop 6
    assert img2.n == 5 and img2.dim() == t2.dim() == 1
    assert trees.split_set(img2) == {normalize_split(5, {2, 3})}


def test_forget_composition_order_independent():
    rng = random.Random(99)
    for _ in range(200):
        t = random_stable_tree(rng, 7)
        a = trees.forget_pushforward(t, [1, 2, 3, 4, 5])
        b = t
        for keep in ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5]):
            b = trees.forget_pushforward(b, keep) if b is not None else None
        assert a == b


def test_forget_matches_contraction_oracle():
    for n in (5, 6):
        keeps = [
            keep
            for size in range(3, n + 1)
            for keep in itertools.combinations(range(1, n + 1), size)
        ]
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                for keep in keeps:
                    assert trees.forget_pushforward(t, keep) == forget_by_contraction(t, keep)
    rng = random.Random(20261018)
    for _ in range(2000):
        t = random_stable_tree(rng, 7)
        keep = rng.sample(range(1, 8), rng.randint(3, 7))
        assert trees.forget_pushforward(t, keep) == forget_by_contraction(t, keep)


def test_glue_identity():
    for t in trees.enumerate_strata(6, 1):
        v4 = next(v for v in range(len(t.parents)) if valence(t, v) == 4)
        assert trees.glue_substitution(t, {v4: trees.trivial_tree(4)}) == t


def test_glue_adds_expected_split():
    # host: one edge cutting {5,6}; big vertex has flags
    # legs 1,2,3,4 then the edge (away side {5,6}) -> small marks 1..5
    host = trees.tree_from_splits(6, [normalize_split(6, {5, 6})])
    big = next(v for v in range(len(host.parents)) if valence(host, v) == 5)
    small = trees.tree_from_splits(5, [normalize_split(5, {2, 3})])  # small split {2,3}
    glued = trees.glue_substitution(host, {big: small})
    # small marks 2,3 are host legs 2,3, so the new edge cuts {2,3}
    assert trees.split_set(glued) == {normalize_split(6, s) for s in ({5, 6}, {2, 3})}
    assert glued.dim() == host.dim() - (valence(host, big) - 3) + small.dim()
    # and substituting the small split {4,5} maps to legs 4 + away {5,6}
    small2 = trees.tree_from_splits(5, [normalize_split(5, {4, 5})])
    glued2 = trees.glue_substitution(host, {big: small2})
    assert trees.split_set(glued2) == {normalize_split(6, s) for s in ({5, 6}, {4, 5, 6})}


def test_glue_refuses_a_small_tree_of_the_wrong_size():
    # a small tree names unions of the vertex's flags by position, so it
    # must have one mark per flag
    host = trees.tree_from_splits(6, [normalize_split(6, {5, 6})])
    big = next(v for v in range(len(host.parents)) if valence(host, v) == 5)
    with pytest.raises(ValueError, match="small tree has 6 marks but vertex has valence 5"):
        trees.glue_substitution(host, {big: trees.trivial_tree(6)})


def test_glue_refinements_match_oracle():
    # gluing every 2-vertex small tree into a vertex reproduces exactly the
    # one-edge refinements at that vertex
    t = trees.trivial_tree(6)
    got = set()
    for small in trees.enumerate_strata(6, 2):
        if small.codim() == 1:
            got.add(trees.glue_substitution(t, {0: small}))
    assert got == one_edge_refinements(t)


def test_glue_two_vertices_matches_sequential():
    # host with two 5-valent vertices; substitute splits at both at once
    host = trees.tree_from_splits(8, [normalize_split(8, {5, 6, 7, 8})])
    assert all(valence(host, v) == 5 for v in range(2))
    sm = trees.tree_from_splits(5, [normalize_split(5, {2, 3})])
    got = trees.glue_substitution(host, {0: sm, 1: sm})
    assert got.dim() == host.dim() - 2 * 2 + 2 * 1
    step1 = trees.glue_substitution(host, {0: sm})
    # after canonicalisation, find the remaining 5-valent vertex and glue there
    v5 = next(v for v in range(step1.num_vertices()) if valence(step1, v) == 5)
    step2 = trees.glue_substitution(step1, {v5: sm})
    assert got == step2


def test_json_roundtrip():
    for t in trees.enumerate_strata(5, 1):
        blob = json.dumps(t.to_json_dict(), sort_keys=True)
        assert trees.MarkedTree.from_json_dict(json.loads(blob)) == t


@pytest.mark.parametrize("spelling, mark", [
    (" 1", 1), ("1 ", 1), ("+2", 2), ("03", 3), ("1_0", 10), ("\u0664", 4), ("2.0", 2), ("11", 10),
])
def test_json_leg_keys_are_marks_spelled_as_str_does(spelling, mark):
    # int() reads each of the first six as the mark beside it
    legs = {str(m): 0 if m <= 5 else 1 for m in range(1, 11)}
    tree = {"n": 10, "parents": [-1, 0], "legs": legs}
    assert trees.MarkedTree.from_json_dict(tree).legs == (0,) * 5 + (1,) * 5
    legs[spelling] = legs.pop(str(mark))
    with pytest.raises(ValueError, match=r"^bad leg table entry for mark %s$" % re.escape(repr(spelling))):
        trees.MarkedTree.from_json_dict(tree)


def test_enumerate_strata_limit():
    with pytest.raises(trees.ResourceError):
        trees.enumerate_strata(7, 1, limit=100)


def test_enumerate_strata_limit_stops_at_the_cap(monkeypatch):
    # (8, 0) has 10,395 strata; the search must stop at the 101st build,
    # even when an earlier test left them in the process cache
    monkeypatch.setattr(trees, "_STRATA", {})
    built = []
    real = trees._finish
    monkeypatch.setattr(trees, "_finish", lambda *a: built.append(1) or real(*a))
    with pytest.raises(trees.ResourceError, match="limit 100"):
        trees.enumerate_strata(8, 0, limit=100)
    assert len(built) == 101
    assert trees._STRATA == {}


def test_enumerate_strata_keeps_each_result_once(monkeypatch):
    monkeypatch.setattr(trees, "_STRATA", {})
    built = []
    real = trees._finish
    monkeypatch.setattr(trees, "_finish", lambda *a: built.append(1) or real(*a))
    # a capped call that stays under its cap keeps its result
    first = trees.enumerate_strata(6, 1, limit=105)
    assert len(built) == 105
    # a kept (n, k) is checked against the cap and returned without builds
    with pytest.raises(trees.ResourceError, match="limit 104"):
        trees.enumerate_strata(6, 1, limit=104)
    again = trees.enumerate_strata(6, 1)
    assert len(built) == 105
    assert again == first == enumerate_strata_reference(6, 1)
    # each call gets its own list over the same trees
    again.reverse()
    again.append(trees.trivial_tree(6))
    third = trees.enumerate_strata(6, 1)
    assert third == first and third is not first
    assert all(a is b for a, b in zip(first, third))


def test_valences_match_the_per_vertex_definition():
    rng = random.Random(5)
    for n in range(3, 8):
        ts = [t for k in range(n - 2) for t in trees.enumerate_strata(n, k)]
        ts += [relabel_vertices(t, rng.sample(range(t.num_vertices()), t.num_vertices()))
               for t in ts[:: max(1, len(ts) // 50)]]
        for t in ts:
            m = t.num_vertices()
            val = [valence(t, v) for v in range(m)]
            assert t.valences() == val, t
            assert t.dim() == sum(x - 3 for x in val), t
            parts = [x - 3 for x in val if x > 3]
            assert trees.induced_partition(t) == tuple(sorted(parts)), t


def _mask(marks):
    return sum(1 << mark for mark in marks)


def test_validate_masks_match_the_mark_sets_on_any_encoding():
    # canonical strata and relabelled, non-canonical encodings of them; a
    # vertex's subtree is the side the edge to its parent cuts off, by the
    # away_marks definition, and every mark at the root; the order lists
    # each non-root vertex once, after every vertex below it
    rng = random.Random(22)
    for n in range(3, 8):
        ts = [t for k in range(n - 2) for t in trees.enumerate_strata(n, k)]
        ts += [relabel_vertices(t, rng.sample(range(t.num_vertices()), t.num_vertices()))
               for t in ts[:: max(1, len(ts) // 50)]]
        everything = frozenset(range(1, n + 1))
        for t in ts:
            below = [everything if p < 0 else away_marks(t, p, v) for v, p in enumerate(t.parents)]
            masks, order = trees._validate(t)
            assert masks == [_mask(b) for b in below], t
            assert sorted(order) == [v for v, p in enumerate(t.parents) if p >= 0], t
            at = {v: i for i, v in enumerate(order)}
            assert all(at[v] < at[p] for v, p in enumerate(t.parents) if p in at), t


def test_tree_from_splits_rejects_unstable_sides():
    with pytest.raises(ValueError, match="fewer than 2 marks"):
        trees.tree_from_splits(6, [normalize_split(6, {2})])
    with pytest.raises(ValueError, match="fewer than 2 marks"):
        trees.tree_from_splits(6, [normalize_split(6, {2, 3, 4, 5, 6})])


def test_tree_from_splits_rejects_bits_outside_the_marks():
    # bit 0 and the bits above n name no mark; dropping bit 0 would read
    # {0, 2} as the side {2} of an unstable tree
    for mask in (_mask({0, 2}), _mask({0, 2, 3}), _mask({2, 7}), _mask({3, 4, 9}), -4):
        with pytest.raises(ValueError, match="outside marks 1..6"):
            trees.tree_from_splits(6, [mask])
    # either side of a split names it
    assert trees.tree_from_splits(6, [_mask({1, 4, 5, 6})]) == trees.tree_from_splits(
        6, [_mask({2, 3})]
    )


def test_normalize_split_is_the_mask_of_the_side_without_mark_1():
    assert normalize_split(6, {2, 3}) == normalize_split(6, [1, 4, 5, 6]) == 0b1100
    assert normalize_split(6, {4, 5, 6}) == normalize_split(6, {1, 2, 3}) == _mask({4, 5, 6})
    assert trees.marks_of(normalize_split(8, {1, 2, 3})) == (4, 5, 6, 7, 8)
    for marks in ({0, 2}, {2, 7}, {3, 4, 9}):
        with pytest.raises(ValueError, match="outside marks 1..6"):
            normalize_split(6, marks)


def test_all_splits_are_the_masks_of_the_mark_set_reference():
    # masks of the sides without mark 1, in (size, sorted marks) order
    for n in range(4, 9):
        assert trees.all_splits(n) == [_mask(s) for s in all_splits_reference(n)], n


def test_enumerate_strata_validates_range():
    with pytest.raises(ValueError):
        trees.enumerate_strata(6, 4)
    with pytest.raises(ValueError):
        trees.enumerate_strata(6, -1)


def test_enumerate_strata_limit_is_cheap_at_many_marks():
    # a capped call builds the compatibility of the splits it reaches only,
    # not the table of all 2^14 splits of fifteen marks against each other
    start = time.perf_counter()
    with pytest.raises(trees.ResourceError, match="limit 10"):
        trees.enumerate_strata(15, 0, limit=10)
    assert time.perf_counter() - start < 10
    assert (15, 0) not in trees._STRATA


@pytest.mark.parametrize("colours", [
    (0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1), (2, 0, 1, 0, 1, 0), (0, 1, 2, 3, 4, 5),
])
def test_orbit_representative_picks_one_stratum_per_orbit(colours):
    # the orbits of the six-mark strata under every colour-keeping
    # permutation, found by applying each: each orbit has one
    # representative, in it, and the mark map carries the tree onto it
    n = len(colours)
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if all(colours[p[m - 1] - 1] == colours[m - 1] for m in range(1, n + 1))]
    orbits, reps = set(), set()
    for k in range(n - 2):
        for t in trees.enumerate_strata(n, k):
            orbit = {trees.split_set(relabel_marks(t, (0,) + p)) for p in perms}
            rep, to_rep = trees.orbit_representative(t, colours)
            orbits.add(frozenset(orbit))
            reps.add(rep)
            assert rep == trees.canonical_form(rep)
            assert trees.split_set(rep) in orbit
            assert trees.split_set(relabel_marks(t, (0,) + to_rep)) == trees.split_set(rep)
            for p in perms[:: max(1, len(perms) // 7)]:
                assert trees.orbit_representative(relabel_marks(t, (0,) + p), colours)[0] == rep
    assert len(reps) == len(orbits)
    # with every mark its own colour, each stratum is its own orbit
    if len(set(colours)) == n:
        assert all(trees.orbit_representative(t, colours) == (t, tuple(range(1, n + 1)))
                   for t in trees.enumerate_strata(n, 0))
