"""Hurwitz data, labeled-cover counts, and degeneration bookkeeping.

The two worked examples are pinned against raw brute-force counters written
here from scratch: all permutation tuples are enumerated without any of the
library's pruning, and classes are deduplicated by minimal conjugate.
"""

import copy
import itertools
import json
from pathlib import Path

import pytest

import oracles
from stratadyn import hurwitz, trees
from stratadyn.hurwitz import (
    HurwitzData,
    count_covers,
    count_covers_orbit_stabilizer,
    degeneration_degree_check,
    enumerate_cover_classes,
    enumerate_cover_types,
    fully_mark,
    validate,
)
from stratadyn.trees import ResourceError

DATA = Path(__file__).resolve().parents[1] / "data"


def fig1_datum():
    """Degree-3 datum with four branch values and one free branch point
    over each of b1, b2, b4."""
    return HurwitzData(
        a_marks=["a1", "a2", "a3", "a4"],
        b_marks=["b1", "b2", "b3", "b4"],
        d=3,
        f_map={"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b3"},
        br={"b1": [1, 2], "b2": [1, 2], "b3": [1, 2], "b4": [1, 2]},
        rm={"a1": 2, "a2": 2, "a3": 2, "a4": 1},
        forget_to=["a1", "a2", "a3", "a4"],
        identify={"b1": "a1", "b2": "a2", "b3": "a3", "b4": "a4"},
    )


def d2_datum():
    """Degree-2 datum: two simple branch values, two unbranched values."""
    return HurwitzData(
        a_marks=["a1", "a2", "a3"],
        b_marks=["b1", "b2", "b3", "b4"],
        d=2,
        f_map={"a1": "b1", "a2": "b2", "a3": "b3"},
        br={"b1": [2], "b2": [2], "b3": [1, 1], "b4": [1, 1]},
        rm={"a1": 2, "a2": 2, "a3": 1},
    )


def d1_datum(n=5):
    """Degree-1 datum: the identity correspondence on an n-mark space."""
    a = ["a%d" % i for i in range(1, n + 1)]
    b = ["b%d" % i for i in range(1, n + 1)]
    return HurwitzData(
        a_marks=a,
        b_marks=b,
        d=1,
        f_map={ai: bi for ai, bi in zip(a, b)},
        br={bi: [1] for bi in b},
        rm={ai: 1 for ai in a},
        forget_to=a,
        identify={bi: ai for bi, ai in zip(b, a)},
    )


def d3_total_datum():
    """Degree-3 datum with total ramification over b1 and b2 and none over
    b3, b4: the local tuples at a vertex carrying b1 or b2 have nontrivial
    centralisers, so the labeling-orbit and stabiliser searches do real
    work."""
    return HurwitzData(
        a_marks=["a1", "a2", "a3", "a4"],
        b_marks=["b1", "b2", "b3", "b4"],
        d=3,
        f_map={"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b4"},
        br={"b1": [3], "b2": [3], "b3": [1, 1, 1], "b4": [1, 1, 1]},
        rm={"a1": 3, "a2": 3, "a3": 1, "a4": 1},
    )


def d4_total_datum():
    """Degree-4 datum with total ramification over b1 and b2 and none over
    b3, b4: eight free unramified marks over b3 and b4, so the centralisers
    of its local tuples act on many labelings."""
    return HurwitzData(
        a_marks=["a1", "a2"],
        b_marks=["b1", "b2", "b3", "b4"],
        d=4,
        f_map={"a1": "b1", "a2": "b2"},
        br={"b1": [4], "b2": [4]},
        rm={"a1": 4, "a2": 4},
    )


def d3_five_datum():
    """Degree-3 datum on five target marks: simple branching over b1..b4,
    unbranched over b5."""
    return HurwitzData(
        a_marks=["a1", "a2", "a3", "a4", "a5"],
        b_marks=["b1", "b2", "b3", "b4", "b5"],
        d=3,
        f_map={"a%d" % i: "b%d" % i for i in range(1, 6)},
        br={"b%d" % i: [1, 2] for i in range(1, 5)},
        rm={"a1": 2, "a2": 2, "a3": 2, "a4": 2, "a5": 1},
    )


def d2_five_datum():
    """Degree-2 datum on five target marks, simply branched over b1 and b2."""
    return HurwitzData(
        a_marks=["a%d" % i for i in range(1, 6)],
        b_marks=["b%d" % i for i in range(1, 6)],
        d=2,
        f_map={"a%d" % i: "b%d" % i for i in range(1, 6)},
        br={"b1": [2], "b2": [2]},
        rm={"a1": 2, "a2": 2, "a3": 1, "a4": 1, "a5": 1},
    )


# -- brute-force oracles ------------------------------------------------------


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _ctype(p):
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            ln += 1
            j = p[j]
        lens.append(ln)
    return tuple(sorted(lens))


def _conj(h, g):
    hinv = [0] * len(h)
    for i, v in enumerate(h):
        hinv[v] = i
    return tuple(h[g[hinv[i]]] for i in range(len(g)))


def _transitive(perms, d):
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in perms:
            if g[x] not in reach:
                reach.add(g[x])
                frontier.append(g[x])
    return len(reach) == d


def brute_fig1_count():
    """All 6^4 permutation quadruples, filtered and deduplicated by hand.

    Every fiber of the example has distinct ramification indices, so the mark
    labeling is determined by the tuple and classes are conjugation orbits.
    """
    s3 = list(itertools.permutations(range(3)))
    ident = (0, 1, 2)
    good = []
    for quad in itertools.product(s3, repeat=4):
        if any(_ctype(g) != (1, 2) for g in quad):
            continue
        prod = ident
        for g in quad:
            prod = _compose(prod, g)
        if prod != ident:
            continue
        if not _transitive(quad, 3):
            continue
        good.append(quad)
    assert len(good) == 24
    keys = {min(tuple(_conj(h, g) for g in quad) for h in s3) for quad in good}
    return len(keys)


def brute_d2_count():
    """Degree-2 oracle including the forced labelings of the trivial fibers.

    The only transitive tuple is (swap, swap, id, id); a labeled cover also
    chooses which fixed sheet carries a3 over b3 and which carries the first
    free mark over b4.  Classes are orbits under the sheet swap.
    """
    s2 = [(0, 1), (1, 0)]
    ident = (0, 1)
    tuples = []
    for quad in itertools.product(s2, repeat=4):
        if _ctype(quad[0]) != (2,) or _ctype(quad[1]) != (2,):
            continue
        if _ctype(quad[2]) != (1, 1) or _ctype(quad[3]) != (1, 1):
            continue
        prod = ident
        for g in quad:
            prod = _compose(prod, g)
        if prod != ident or not _transitive(quad, 2):
            continue
        tuples.append(quad)
    assert len(tuples) == 1
    keys = set()
    for quad in tuples:
        for s3_sheet in (0, 1):
            for s4_sheet in (0, 1):
                keys.add(
                    min(
                        (tuple(_conj(h, g) for g in quad), h[s3_sheet], h[s4_sheet])
                        for h in s2
                    )
                )
    return len(keys)


# -- validation and full marking ----------------------------------------------


def test_validate_examples():
    assert validate(fig1_datum()).status == "plain"
    assert validate(d2_datum()).status == "plain"
    assert validate(d1_datum()).status == "fully_marked"


def test_validate_rejects_bad_partition():
    h = fig1_datum()
    bad = HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map,
                      {"b1": [2, 2], "b2": [1, 2], "b3": [1, 2], "b4": [1, 2]}, h.rm)
    res = validate(bad)
    assert res.status == "invalid" and "partition" in res.reason


def test_validate_rejects_wrong_total_branching():
    # unbranched everywhere: total 0 instead of 2d-2 = 4
    h = fig1_datum()
    bad = HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, {},
                      {a: 1 for a in h.a_marks})
    res = validate(bad)
    assert res.status == "invalid" and "2d-2" in res.reason


def test_validate_rejects_rm_exceeding_branching():
    h = fig1_datum()
    rm = dict(h.rm)
    rm["a4"] = 3
    res = validate(HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, h.br, rm))
    assert res.status == "invalid"


def test_validate_rejects_bad_f_and_duplicates():
    h = fig1_datum()
    res = validate(HurwitzData(h.a_marks, h.b_marks, h.d,
                               {"a1": "b9", "a2": "b2", "a3": "b3", "a4": "b3"},
                               h.br, h.rm))
    assert res.status == "invalid"
    res = validate(HurwitzData(["a1", "a1", "a3", "a4"], h.b_marks, h.d,
                               h.f_map, h.br, h.rm))
    assert res.status == "invalid"


def test_validate_rejects_broken_identify():
    h = fig1_datum()
    res = validate(HurwitzData(h.a_marks, h.b_marks, h.d, h.f_map, h.br, h.rm,
                               forget_to=h.forget_to,
                               identify={"b1": "a1", "b2": "a1", "b3": "a3", "b4": "a4"}))
    assert res.status == "invalid"


def test_fully_mark_fig1():
    full, deg = fully_mark(fig1_datum())
    assert deg == 1
    assert full.a_marks == ("a1", "a2", "a3", "a4",
                            "a(b1,1)", "a(b2,1)", "a(b4,1)", "a(b4,2)")
    assert full.rm["a(b4,2)"] == 2 and full.rm["a(b4,1)"] == 1
    assert full.f_map["a(b4,2)"] == "b4"
    assert validate(full).status == "fully_marked"
    assert full.forget_to == ("a1", "a2", "a3", "a4")


def test_fully_mark_d2_primes_repeated_names():
    full, deg = fully_mark(d2_datum())
    assert deg == 2
    assert full.a_marks == ("a1", "a2", "a3", "a(b3,1)", "a(b4,1)", "a(b4,1)'")
    assert validate(full).status == "fully_marked"


def test_fully_mark_idempotent_on_full_data():
    full, _ = fully_mark(fig1_datum())
    again, deg = fully_mark(full)
    assert deg == 1 and again.a_marks == full.a_marks


def test_json_roundtrip():
    for h in (fig1_datum(), d2_datum(), d1_datum()):
        back = HurwitzData.from_json_dict(h.to_json_dict())
        assert back.to_json_dict() == h.to_json_dict()


# -- smooth-target counts ------------------------------------------------------


def test_fig1_count_matches_brute_force():
    full, _ = fully_mark(fig1_datum())
    assert brute_fig1_count() == 4
    assert count_covers(full) == 4
    assert count_covers_orbit_stabilizer(full) == 4


def test_d2_count_matches_brute_force():
    full, _ = fully_mark(d2_datum())
    assert brute_d2_count() == 2
    assert count_covers(full) == 2
    assert count_covers_orbit_stabilizer(full) == 2


def test_d1_count_is_one():
    assert count_covers(d1_datum()) == 1


def test_count_requires_fully_marked():
    with pytest.raises(ValueError):
        count_covers(fig1_datum())


def test_limit_tuples_raises():
    full, _ = fully_mark(fig1_datum())
    with pytest.raises(ResourceError):
        count_covers(full, limit_tuples=5)


def test_limit_tuples_counts_key_relabelings(fresh_covers):
    # Over a point stratum of fig1 the enumeration makes 167 ticks:
    # - 44 for the 18 local tuples, 4 glued candidates, 15 labelings and
    #   matchings built and 7 matchings tried;
    # - 108 for the conjugacy scan (3! relabelings for each of the 9 local
    #   tuples at each of the 2 vertices);
    # - 8 for the labeling-orbit search: at each vertex one kept tuple has
    #   a centraliser of order 2, whose one non-identity relabeling is
    #   evaluated on each of the vertex's 4 marks;
    # - 7 for the stabiliser search: the candidate glued from those two
    #   tuples has 4 connected matchings, and each is tried against the 3
    #   other relabelings of the product until one makes it smaller
    #   (3 + 1 + 2 + 1); the other candidate's stabilisers are trivial.
    full, _ = fully_mark(fig1_datum())
    tau = trees.enumerate_strata(4, 0)[0]
    # the budget bounds the relabelings too: a cap that covers everything
    # but the labeling-orbit and stabiliser searches raises
    with pytest.raises(ResourceError):
        enumerate_cover_classes(full, tau, limit_tuples=44 + 108)
    assert len(enumerate_cover_classes(full, tau, limit_tuples=167)) == 2
    # labelings and matchings are memoised per call; a hit ticks what the
    # first computation ticked, so the figure is exact
    with pytest.raises(ResourceError):
        enumerate_cover_classes(full, tau, limit_tuples=166)
    # the classes are now kept, and a kept result ticks the same 167
    assert len(hurwitz._CLASSES) == 1
    with pytest.raises(ResourceError, match="exceeded 152 tuples"):
        enumerate_cover_classes(full, tau, limit_tuples=44 + 108)
    assert len(enumerate_cover_classes(full, tau, limit_tuples=167)) == 2
    with pytest.raises(ResourceError, match="exceeded 166 tuples"):
        enumerate_cover_classes(full, tau, limit_tuples=166)


# -- the per-process cover memo -----------------------------------------------


def _fields(classes):
    return [tuple(c) for c in classes]


def test_equal_data_share_one_kept_entry(fresh_covers):
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    first = enumerate_cover_classes(full, tau)
    # built separately, dict entries in another order: the same value
    dd = full.to_json_dict()
    dd["F"] = dict(reversed(list(dd["F"].items())))
    again = HurwitzData.from_json_dict(dd)
    assert list(again.f_map) != list(full.f_map)
    second = enumerate_cover_classes(again, tau)
    assert len(hurwitz._CLASSES) == 1
    assert _fields(second) == _fields(first)


def _with(h, **fields):
    """h with the given fields replaced."""
    kw = {f: getattr(h, f) for f in HurwitzData.__slots__}
    kw.update(fields)
    return HurwitzData(**kw)


def test_data_differing_only_in_identify_or_forget_to_share_one_entry(fresh_covers):
    # the covers depend on the Hurwitz space alone: every self-map of one
    # datum reads the classes the first one built
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    first = enumerate_cover_classes(full, tau)
    siblings = [
        _with(full, identify=None),
        _with(full, forget_to=None, identify=None),
        _with(full, identify={"b1": "a2", "b2": "a1", "b3": "a4", "b4": "a3"}),
        _with(full, forget_to=("a(b1,1)", "a2", "a3", "a4"),
              identify={"b1": "a(b1,1)", "b2": "a2", "b3": "a3", "b4": "a4"}),
    ]
    for h in siblings:
        assert validate(h).status == "fully_marked"
        assert _fields(enumerate_cover_classes(h, tau)) == _fields(first)
    assert len(hurwitz._CLASSES) == 1
    # each datum is kept on its own, and all of them map to the one copy of
    # the cover value that the kept entry's key holds
    assert len(hurwitz._VALUES) == 1 + len(siblings)
    [(cover, _tau)] = hurwitz._CLASSES
    assert all(value is cover for value in hurwitz._VALUES.values())
    assert list(hurwitz._COVERS) == [cover]


def test_data_differing_in_one_field_keep_their_own_entries(fresh_covers):
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    first = enumerate_cover_classes(full, tau)
    # a field the enumeration reads is part of the key: the other preimage
    # of b1 carries the ramified mark, or a1 and a2 swap their targets
    rm = dict(full.rm, a1=1, **{"a(b1,1)": 2})
    f_map = dict(full.f_map, a1="b2", a2="b1")
    for h in (_with(full, rm=rm), _with(full, f_map=f_map)):
        assert validate(h).status == "fully_marked"
        assert enumerate_cover_classes(h, tau)
    assert len(hurwitz._CLASSES) == 3
    # so is an unbranched profile written out, though it branches alike
    d2_full, _ = fully_mark(d2_datum())
    bare = _with(d2_full, br={b: p for b, p in d2_full.br.items() if p != (1, 1)})
    assert bare.br != d2_full.br and validate(bare).status == "fully_marked"
    assert _fields(enumerate_cover_classes(bare, tau)) == _fields(
        enumerate_cover_classes(d2_full, tau))
    assert len(hurwitz._CLASSES) == 5
    assert len(hurwitz._COVERS) == 5
    # the same stratum with its vertices numbered the other way round is
    # another tree, and its classes use that numbering
    root = tau.parents.index(-1)
    swap = {root: 1 - root, 1 - root: root}
    renumbered = trees.MarkedTree(4, (1, -1) if root == 0 else (-1, 0),
                                  tuple(swap[v] for v in tau.legs))
    assert renumbered != tau and trees.canonical_form(renumbered) == tau
    third = enumerate_cover_classes(full, renumbered)
    assert len(hurwitz._CLASSES) == 6
    assert len(third) == len(first)


def test_changing_returned_classes_leaves_the_next_result(fresh_covers):
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    first = enumerate_cover_classes(full, tau)
    want = copy.deepcopy(_fields(first))
    first[0] = (None, None)
    first.reverse()
    first.append(None)
    second = enumerate_cover_classes(full, tau)
    assert second is not first and _fields(second) == want
    second.clear()
    assert _fields(enumerate_cover_classes(full, tau)) == want


def test_capped_call_that_raises_keeps_nothing(fresh_covers):
    full, _ = fully_mark(fig1_datum())
    with pytest.raises(ResourceError):
        count_covers(full, limit_tuples=5)
    assert hurwitz._CLASSES == {}
    with pytest.raises(ValueError, match="fully marked"):
        count_covers(fig1_datum())
    assert hurwitz._CLASSES == {}
    # the oracle counts on its own, past the memo
    assert count_covers_orbit_stabilizer(full) == 4
    assert hurwitz._CLASSES == {}
    # the validated datum is all the capped call kept
    assert len(hurwitz._VALUES) == 1


def test_datum_that_is_not_fully_marked_raises_beside_a_kept_sibling(fresh_covers):
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    assert enumerate_cover_classes(full, tau)
    # siblings with the same cover fields as the kept entry
    broken_identify = _with(full, identify={"b1": "a1", "b2": "a1", "b3": "a3", "b4": "a4"})
    broken_forget = _with(full, forget_to=("a1", "a1", "a2", "a3"), identify=None)
    cases = [(broken_identify, "invalid"), (broken_forget, "invalid"), (fig1_datum(), "plain")]
    for h, status in cases:
        assert validate(h).status == status
        message = r"cover enumeration requires a fully marked datum \(%s\)" % status
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                enumerate_cover_classes(h, tau)
            with pytest.raises(ValueError, match=message):
                degeneration_degree_check(h, tau)
            # the orbit-stabiliser count checks the datum the same way
            with pytest.raises(ValueError, match=message):
                count_covers_orbit_stabilizer(h)
    # nothing is kept for them
    assert len(hurwitz._CLASSES) == 1 and len(hurwitz._VALUES) == 1


def test_validate_runs_once_per_distinct_datum(fresh_covers, monkeypatch):
    full, _ = fully_mark(fig1_datum())
    sibling = _with(full, identify={"b1": "a2", "b2": "a1", "b3": "a4", "b4": "a3"})
    calls = []
    real = hurwitz.validate
    monkeypatch.setattr(hurwitz, "validate", lambda h: calls.append(h) or real(h))
    strata = trees.enumerate_strata(4, 0)
    for _ in range(3):
        for h in (full, sibling):
            # the orbit-stabiliser count checks the datum through its key too
            assert count_covers_orbit_stabilizer(h) == 4
            for tau in strata:
                report = degeneration_degree_check(h, tau)
                assert report["ok"] and report["expected"] == 4
    # three point strata and the smooth target, shared by the two data
    assert len(hurwitz._CLASSES) == 4
    # one validation per datum, the first time its key is made
    assert calls == [full, sibling]
    # whose keys share one copy of the cover value
    assert len({id(value) for value, _tau in hurwitz._CLASSES}) == 1


def test_cold_miss_reads_each_flag_list_once(fresh_covers, monkeypatch):
    # the local tuples, labelings and edge positions of one enumeration all
    # read the flag lists it built, one per target vertex; a kept result
    # reads none
    calls = []
    real = trees.MarkedTree.flag_masks
    monkeypatch.setattr(
        trees.MarkedTree, "flag_masks", lambda t, v, masks: calls.append(v) or real(t, v, masks)
    )
    full, _ = fully_mark(fig1_datum())
    cases = [
        (full, trees.enumerate_strata(4, 0)[0]),
        (full, trees.trivial_tree(4)),
        (d1_datum(6), trees.enumerate_strata(6, 0)[0]),
    ]
    for h, tau in cases:
        calls.clear()
        assert enumerate_cover_classes(h, tau)
        assert sorted(calls) == list(range(tau.num_vertices()))
        calls.clear()
        enumerate_cover_classes(h, tau)
        assert calls == []


# -- covers over boundary strata ----------------------------------------------


def test_fig1_degeneration_all_splits():
    full, _ = fully_mark(fig1_datum())
    strata = trees.enumerate_strata(4, 0)
    assert len(strata) == 3
    for tau in strata:
        report = degeneration_degree_check(full, tau)
        assert report["ok"], report
        assert report["expected"] == 4
        types = enumerate_cover_types(full, tau)
        assert sorted((t.count, t.multiplicity) for t in types) == [(1, 1), (1, 3)]


def test_fig1_source_structure_over_b34_split():
    # target split {b3, b4}: marks are positions in the full source list
    # (a1, a2, a3, a4, a(b1,1), a(b2,1), a(b4,1), a(b4,2)) = 1..8
    full, _ = fully_mark(fig1_datum())
    tau = next(t for t in trees.enumerate_strata(4, 0)
               if t.splits() == {trees.normalize_split(4, {3, 4})})
    types = enumerate_cover_types(full, tau)
    t3 = next(t for t in types if t.multiplicity == 3)
    t1 = next(t for t in types if t.multiplicity == 1)
    assert t3.source_tree.splits() == {trees.normalize_split(8, {3, 4, 7, 8})}
    assert t3.node_data == ((trees.normalize_split(8, {3, 4, 7, 8}), 3),)
    assert t1.source_tree.splits() == {
        trees.normalize_split(8, s) for s in ({4, 7}, {5, 6}, {3, 5, 6, 8})
    }
    assert all(r == 1 for _side, r in t1.node_data)
    assert t1.source_tree.dim() == 2 and t3.source_tree.dim() == 4


def test_d2_degeneration_all_splits():
    full, _ = fully_mark(d2_datum())
    split_34 = 0
    for tau in trees.enumerate_strata(4, 0):
        report = degeneration_degree_check(full, tau)
        assert report["ok"], report
        assert report["expected"] == 2
        types = enumerate_cover_types(full, tau)
        got = sorted((t.count, t.multiplicity) for t in types)
        if tau.splits() == {trees.normalize_split(4, {3, 4})}:
            split_34 += 1
            assert got == [(1, 1), (1, 1)]
        else:
            assert got == [(1, 2)]
    # one of the three point strata cuts {3, 4}
    assert split_34 == 1


def test_d1_covers_mirror_target_strata():
    h = d1_datum(5)
    for k in (0, 1):
        for tau in trees.enumerate_strata(5, k):
            classes = enumerate_cover_classes(h, tau)
            assert len(classes) == 1
            [(_key, nodes)] = classes
            node_data = [(side, r) for side, r, _e in nodes]
            # built canonical from its node splits
            assert trees.tree_from_splits(len(h.a_marks), [side for side, _r in node_data]) == tau
            assert all(r == 1 for _side, r in node_data)


def test_class_nodes_do_not_depend_on_the_vertex_numbering(fresh_covers):
    # a node names its target edge by the edge's split, which both
    # encodings of the stratum cut
    h = HurwitzData.from_json_dict(json.loads((DATA / "d1_self.json").read_text()))
    tau = trees.enumerate_strata(5, 0)[0]
    last = tau.num_vertices() - 1
    backwards = trees.MarkedTree(
        tau.n, tuple(-1 if p < 0 else last - p for p in reversed(tau.parents)),
        tuple(last - v for v in tau.legs),
    )
    assert backwards != tau and trees.split_set(backwards) == trees.split_set(tau)
    got = [sorted(node for _key, nodes in enumerate_cover_classes(h, t) for node in nodes)
           for t in (tau, backwards)]
    assert got[0] == got[1]
    assert len(hurwitz._CLASSES) == 2


def test_cover_types_refuse_a_repeated_node_split(monkeypatch):
    # two nodes of one source curve never cut the same split
    real = hurwitz.enumerate_cover_classes

    def doubled(*args):
        return [(key, nodes[:1] + nodes) for key, nodes in real(*args)]

    monkeypatch.setattr(hurwitz, "enumerate_cover_classes", doubled)
    with pytest.raises(AssertionError, match="the source tree has 2 edges for 3 nodes"):
        enumerate_cover_types(d1_datum(5), trees.enumerate_strata(5, 0)[0])


def test_degeneration_check_deep_stratum():
    # the invariant holds over 0-dimensional strata of larger target spaces
    h = d1_datum(6)
    tau = trees.enumerate_strata(6, 0)[0]
    report = degeneration_degree_check(h, tau)
    assert report["ok"] and report["expected"] == 1


def test_cover_keys_match_brute_oracle():
    cases = [
        (fig1_datum(), trees.enumerate_strata(4, 0)),
        (d2_datum(), trees.enumerate_strata(4, 0)),
        (d3_five_datum(), trees.enumerate_strata(5, 1)[:3]),
        (d3_total_datum(), trees.enumerate_strata(4, 0) + trees.enumerate_strata(4, 1)),
        # over a two-edge target a relabeling can leave the first edge's
        # matchings as they are and make the second's smaller
        (d2_five_datum(), trees.enumerate_strata(5, 0)),
    ]
    for h, strata in cases:
        full, _ = fully_mark(h)
        for tau in strata:
            classes = enumerate_cover_classes(full, tau)
            assert [key for key, _nodes in classes] == sorted(oracles.brute_cover_keys(full, tau))
            for key, _nodes in classes:
                vertex_perms, enc_label, matchings = key
                labeling = {a: (pos, cyc) for a, pos, cyc in enc_label}
                assert [a for a, _pos, _cyc in enc_label] == list(full.a_marks)
                # each key is its own class's least encoding
                assert key == oracles.brute_cover_key(
                    full, tau, vertex_perms, labeling, matchings
                )
                # representatives are glued from least-conjugate tuples only
                for perms in vertex_perms:
                    assert perms == oracles.least_simultaneous_conjugate(perms)


def _orbit_count(perms, d):
    """The number of orbits of the sheets under a tuple of permutations."""
    seen = set()
    count = 0
    for s in range(d):
        if s in seen:
            continue
        count += 1
        frontier = [s]
        seen.add(s)
        while frontier:
            x = frontier.pop()
            for g in perms:
                if g[x] not in seen:
                    seen.add(g[x])
                    frontier.append(g[x])
    return count


def test_class_nodes_match_their_key_and_target():
    # invariants the node splits are not computed from: the sheets over a
    # target edge are glued by the nodes over it, so their r sum to d; the
    # source curve is a tree with one component per orbit of a vertex
    # tuple; and the identity cover's node over edge e cuts tau's split e
    cases = [
        (fig1_datum(), trees.enumerate_strata(4, 0) + trees.enumerate_strata(4, 1)),
        (d2_datum(), trees.enumerate_strata(4, 0) + trees.enumerate_strata(4, 1)),
        (d3_total_datum(), trees.enumerate_strata(4, 0) + trees.enumerate_strata(4, 1)),
        (d3_five_datum(), trees.enumerate_strata(5, 1)),
        (d1_datum(5), trees.enumerate_strata(5, 0) + trees.enumerate_strata(5, 1)),
    ]
    for h, strata in cases:
        full, _ = fully_mark(h)
        n = len(full.a_marks)
        for tau in strata:
            classes = enumerate_cover_classes(full, tau)
            assert classes
            for key, nodes in classes:
                # each target edge by its split, read by definition
                r_over = {
                    trees.normalize_split(tau.n, tau.away_marks(p, ch)): 0
                    for ch, p in tau.edges()
                }
                for side, r, e in nodes:
                    assert side == trees.split_of(n, side) and r >= 1
                    r_over[e] += r
                assert list(r_over.values()) == [full.d] * len(tau.edges())
                orbits = sum(_orbit_count(perms, full.d) for perms in key[0])
                assert len(nodes) == orbits - 1
                if full.d == 1:
                    assert sorted((e, side) for side, _r, e in nodes) == sorted(
                        (e, e) for e in r_over
                    )


def test_d3_degeneration_over_five_mark_point_stratum():
    full, _ = fully_mark(d3_five_datum())
    tau = trees.enumerate_strata(5, 0)[0]
    report = degeneration_degree_check(full, tau)
    assert report["ok"], report
    assert report["expected"] == count_covers_orbit_stabilizer(full)


def test_d4_degeneration_over_four_mark_strata():
    # too large for the brute key oracle; the two counts and the
    # degeneration check are the independent witnesses here
    full, deg = fully_mark(d4_total_datum())
    assert deg == 24 * 24
    assert count_covers(full) == count_covers_orbit_stabilizer(full) == 144
    for k in (0, 1):
        for tau in trees.enumerate_strata(4, k):
            report = degeneration_degree_check(full, tau)
            assert report["ok"], report
            assert report["expected"] == 144
