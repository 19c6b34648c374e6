"""Hurwitz data, labeled-cover counts, and degeneration bookkeeping.

The two worked examples are pinned against raw brute-force counters written
here from scratch: all permutation tuples are enumerated without any of the
library's pruning, and classes are deduplicated by minimal conjugate.
"""

import itertools
import json
import random
from math import factorial, prod
from pathlib import Path

import pytest

import oracles
from stratadyn import cli, hurwitz, trees
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


def d3_kind_datum(kind, n_b):
    """A degree-3 datum over n_b target marks with the benchmark's profiles
    of `kind`: simple (four simple branch values), total (two total) or
    mixed (one total, two simple); one source mark of the largest
    ramification over each target."""
    profiles = {
        "simple": [(1, 2)] * 4 + [(1, 1, 1)] * (n_b - 4),
        "total": [(3,), (3,)] + [(1, 1, 1)] * (n_b - 2),
        "mixed": [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * (n_b - 3),
    }[kind]
    b_marks = ["b%d" % i for i in range(1, n_b + 1)]
    a_marks = ["a%d" % i for i in range(1, n_b + 1)]
    return HurwitzData(
        a_marks=a_marks,
        b_marks=b_marks,
        d=3,
        f_map=dict(zip(a_marks, b_marks)),
        br={b: p for b, p in zip(b_marks, profiles) if p != (1, 1, 1)},
        rm={a: max(p) for a, p in zip(a_marks, profiles)},
    )


def d3_self5_datum():
    """The degree-3 five-mark self-map: total ramification over b1, simple
    over b4 and b5."""
    return HurwitzData(
        a_marks=["a1", "a2", "a3", "a4", "a5"],
        b_marks=["b1", "b2", "b3", "b4", "b5"],
        d=3,
        f_map={"a%d" % i: "b%d" % i for i in range(1, 6)},
        br={"b1": [3], "b4": [1, 2], "b5": [1, 2]},
        rm={"a1": 3, "a2": 1, "a3": 1, "a4": 2, "a5": 2},
        forget_to=["a1", "a2", "a3", "a4", "a5"],
        identify={"b%d" % i: "a%d" % i for i in range(1, 6)},
    )


def degree_nine_datum():
    """Degree 9 over three target marks, totally ramified over b1 and b2:
    S_9 has 362,880 permutations."""
    return HurwitzData(
        a_marks=["a1", "a2"],
        b_marks=["b1", "b2", "b3"],
        d=9,
        f_map={"a1": "b1", "a2": "b2"},
        br={"b1": [9], "b2": [9]},
        rm={"a1": 9, "a2": 9},
    )


def every_target(n):
    """The smooth target and every boundary stratum of the n-mark space."""
    return [trees.trivial_tree(n)] + [t for k in range(n - 3) for t in trees.enumerate_strata(n, k)]


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


def test_fully_mark_validates_its_input_once(monkeypatch):
    calls = []
    real = hurwitz.validate
    monkeypatch.setattr(hurwitz, "validate", lambda h: calls.append(h) or real(h))
    for make in (fig1_datum, d2_datum):
        h = make()
        calls.clear()
        full, _ = fully_mark(h)
        assert calls == [h]
        assert real(full).status == "fully_marked"


def test_fully_mark_keeps_one_pair_per_datum(monkeypatch):
    calls = []
    real = hurwitz.validate
    monkeypatch.setattr(hurwitz, "validate", lambda h: calls.append(h) or real(h))
    h = d2_datum()
    pairs = [fully_mark(h) for _ in range(3)]
    assert pairs[0] is pairs[1] is pairs[2]
    assert calls == [h]


def test_fully_mark_that_raises_keeps_nothing_and_raises_again(monkeypatch):
    # the mark over b1 has the name fully_mark gives the first unmarked
    # simple point over b4
    h = HurwitzData(
        a_marks=["a(b4,1)", "a2", "a3", "a4"],
        b_marks=["b1", "b2", "b3", "b4"],
        d=3,
        f_map={"a(b4,1)": "b1", "a2": "b2", "a3": "b3", "a4": "b3"},
        br={"b1": [1, 2], "b2": [1, 2], "b3": [1, 2], "b4": [1, 2]},
        rm={"a(b4,1)": 2, "a2": 2, "a3": 2, "a4": 1},
    )
    calls = []
    real = hurwitz.validate
    monkeypatch.setattr(hurwitz, "validate", lambda h: calls.append(h) or real(h))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"generated mark name a\(b4,1\) collides"):
            fully_mark(h)
        assert h._marked is None
    assert calls == [h, h]


def test_datum_mappings_are_read_only():
    h = fig1_datum()
    for mapping in (h.rm, h.f_map, h.br, h.identify):
        with pytest.raises(TypeError):
            mapping["a1"] = "b1"
    assert h.to_json_dict() == fig1_datum().to_json_dict()


def test_numbers_are_read_as_ints_not_truncated_or_parsed():
    # d = 2.9 with a part 2.5 over b2 read as the valid plain d2_datum once
    dd = d2_datum().to_json_dict()
    base = dict(a_marks=dd["A"], b_marks=dd["B"], d=dd["d"], f_map=dd["F"], br=dd["br"],
                rm=dd["rm"])
    assert validate(HurwitzData(**base)).status == "plain"
    cases = [
        dict(d=2.9, br=dict(dd["br"], b2=[2.5])),
        dict(d="2"),
        dict(br=dict(dd["br"], b1=[2.0])),
        dict(br=dict(dd["br"], b1=["2"])),
        dict(rm=dict(dd["rm"], a1=2.0)),
        dict(rm=dict(dd["rm"], a1="2")),
    ]
    for fields in cases:
        with pytest.raises(TypeError):
            HurwitzData(**dict(base, **fields))


def test_marked_data_are_fully_marked_by_both_validators():
    # fully_mark keys the datum it builds without validating it again; on
    # the data files, the portraits, the benchmark's profiles and the CLI's
    # built-in data both validators call that datum fully marked
    data = [HurwitzData.from_json_dict(json.loads(f.read_text()))
            for f in sorted(DATA.glob("*.json"))]
    data += [oracles.portrait_datum(p, m) for p in (4, 5) for m in (1, 2)]
    data += [d3_kind_datum(kind, n) for kind in ("simple", "total", "mixed") for n in (4, 5, 7)]
    data += [cli._fig1_data(), cli._d2_data(), cli._d1_data(5)]
    for h in data:
        full, _ = fully_mark(h)
        assert hurwitz._cover_value(full) is full._cover
        assert validate(full).status == oracles.validate_reference(full).status == "fully_marked"


def _corruptions(h):
    """Single-field corruptions of h: each rm raised past its part, each br
    with one part dropped, each source mark moved to each other target and
    each mark listed twice."""
    def with_(**fields):
        dd = dict(h.to_json_dict(), **fields)
        return HurwitzData(dd["A"], dd["B"], dd["d"], dd["F"], dd["br"], dd["rm"],
                           dd.get("forget_to"), dd.get("identify"))
    for a in h.a_marks:
        yield with_(rm=dict(h.rm, **{a: max(h.branching(h.f_map[a])) + 1}))
        for b in h.b_marks:
            if b != h.f_map[a]:
                yield with_(F=dict(h.f_map, **{a: b}))
    for b in h.b_marks:
        parts = list(h.branching(b))
        for i in range(len(parts)):
            yield with_(br=dict(h.br, **{b: parts[:i] + parts[i + 1:]}))
    for i in range(len(h.a_marks)):
        yield with_(A=list(h.a_marks) + [h.a_marks[i]])
    for i in range(len(h.b_marks)):
        yield with_(B=list(h.b_marks) + [h.b_marks[i]])


def test_validate_and_fully_mark_match_the_counter_oracles():
    data = [fig1_datum(), d2_datum(), d1_datum()]
    data += [HurwitzData.from_json_dict(json.loads(f.read_text()))
             for f in sorted(DATA.glob("*.json"))]
    for h in (fig1_datum(), d2_datum()):
        data += _corruptions(h)
    seen = set()
    for h in data:
        res, ref = validate(h), oracles.validate_reference(h)
        assert (res.status, res.reason) == (ref.status, ref.reason), h.to_json_dict()
        seen.add(res.status if res.ok else next(
            (w for w in ("exceed", "partition", "duplicate") if w in res.reason), res.reason))
        if res.ok:
            full, deg = fully_mark(h)
            assert (full.to_json_dict(), deg) == oracles.fully_mark_reference(h)
    # valid data of both kinds, marks over their branching, and the earlier
    # checks a dropped part or a duplicated mark trips
    assert {"plain", "fully_marked", "exceed", "partition", "duplicate"} <= seen


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


def test_tuple_cap_raises_before_the_permutations_are_listed(fresh_covers, monkeypatch):
    # each vertex's combinations are counted from class sizes and ticked
    # before S_d is listed, so a cap far below them raises at once
    def unlisted(d):
        raise AssertionError("listed the %d! permutations" % d)

    monkeypatch.setattr(hurwitz, "_perm_pool", unlisted)
    h, _ = fully_mark(degree_nine_datum())
    with pytest.raises(ResourceError, match="exceeded 10 tuples"):
        count_covers(h, limit_tuples=10)
    with pytest.raises(ResourceError, match="exceeded 10 tuples"):
        count_covers_orbit_stabilizer(h, limit_tuples=10)
    full, _ = fully_mark(fig1_datum())
    with pytest.raises(ResourceError, match="exceeded 5 tuples"):
        enumerate_cover_classes(full, trees.enumerate_strata(4, 0)[0], limit_tuples=5)


@pytest.mark.parametrize("make", [
    fig1_datum, d2_datum, d3_self5_datum, d2_five_datum, lambda: d2_self6_datum(), d3_five_datum,
], ids=["fig1", "d2", "d3_self5", "d2_five", "d2_self6", "d3five"])
def test_stabiliser_sum_matches_the_labelling_lists(make, monkeypatch):
    # the counted labellings and the centraliser read off sheet 0's image
    # give the value and the ticks of the oracle that lists every labelling
    # and scans S_d for each tuple's centraliser; a cap one below the ticks
    # raises in both, and a cap at them does not
    real = hurwitz._tuple_budget
    budgets = []
    monkeypatch.setattr(hurwitz, "_tuple_budget",
                        lambda cap: budgets.append(real(cap)) or budgets[-1])
    full, _ = fully_mark(make())
    want = oracles.count_covers_orbit_stabilizer_reference(full)
    used = budgets[-1].used
    assert count_covers_orbit_stabilizer(full) == want
    assert budgets[-1].used == used
    for count in (count_covers_orbit_stabilizer, oracles.count_covers_orbit_stabilizer_reference):
        with pytest.raises(ResourceError, match="exceeded %d tuples" % (used - 1)):
            count(full, limit_tuples=used - 1)
        assert count(full, limit_tuples=used) == want


def test_centralisers_from_cycles_match_a_scan_of_s_d():
    # every permutation commuting with g, in lexicographic order; at d = 6
    # the cycles of (2, 2, 2) do not produce them in that order
    for d in range(1, 7):
        for g in itertools.permutations(range(d)):
            want = tuple(h for h in itertools.permutations(range(d)) if _conj(h, g) == g)
            assert hurwitz._centraliser(g) == want
            assert len(want) * hurwitz._class_size(d, _ctype(g)) == factorial(d)


def _orbits_by_closure(perms, d):
    """Each sheet's orbit index and the orbit count, by definition: a
    sheet's orbit is the least set holding it that every permutation maps
    into itself, and orbits are numbered in the order of their least
    sheets."""
    orbit_of = []
    for s in range(d):
        orbit = {s}
        while True:
            grown = orbit | {g[x] for g in perms for x in orbit}
            if grown == orbit:
                break
            orbit = grown
        orbit_of.append(min(orbit))
    firsts = sorted(set(orbit_of))
    return [firsts.index(m) for m in orbit_of], len(firsts)


def test_orbits_match_the_closure_on_every_built_tuple():
    # every local tuple the enumeration builds, at every vertex of every
    # target; they have from one orbit to four
    data = [fig1_datum(), d4_total_datum()] + [
        d3_kind_datum(kind, 5) for kind in ("simple", "total", "mixed")
    ]
    counts = set()
    for h in data:
        full, _ = fully_mark(h)
        for tau in every_target(len(full.b_marks)):
            masks, _ = trees._validate(tau)
            for w in range(tau.num_vertices()):
                flags = tau.flag_masks(w, masks)
                for perms, _coset in hurwitz._least_tuples(full, flags, hurwitz._tuple_budget(None)):
                    at, count = hurwitz._orbits(perms, full.d)
                    assert (at, count) == _orbits_by_closure(perms, full.d), perms
                    counts.add(count)
    assert counts == {1, 2, 3, 4}


def _prufer_tree(seq, num):
    """The labelled tree on range(num) with Prufer sequence seq."""
    degree = [1] * num
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(num) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(num) if degree[v] == 1))
    return edges


def test_tree_walk_accepts_exactly_the_labelled_trees():
    # num - 1 edges with one repeated: disconnected, though no walk meets a
    # cycle
    assert hurwitz._tree_walk(3, [(0, 1, 1, 6), (1, 0, 1, 6)]) is None
    assert hurwitz._tree_walk(4, [(0, 1, 1, 6), (2, 3, 1, 6), (0, 1, 2, 6)]) is None
    assert hurwitz._tree_walk(2, []) is None
    assert hurwitz._tree_walk(1, []) == ([-1], [0])
    for num in range(2, 6):
        pairs = list(itertools.combinations(range(num), 2))
        trees_ = {
            frozenset(frozenset(e) for e in _prufer_tree(seq, num))
            for seq in itertools.product(range(num), repeat=num - 2)
        }
        assert len(trees_) == num ** (num - 2)  # Cayley
        for chosen in itertools.combinations(pairs, num - 1):
            walk = hurwitz._tree_walk(num, [(j, i, 1, 0) for i, j in chosen])
            if frozenset(frozenset(e) for e in chosen) not in trees_:
                assert walk is None, chosen
                continue
            up, order = walk
            assert sorted(order) == list(range(num)) and order[0] == 0 and up[0] == -1
            assert {frozenset((x, up[x])) for x in order[1:]} == {frozenset(e) for e in chosen}
            assert all(order.index(up[x]) < order.index(x) for x in order[1:])


def test_least_tuples_match_the_full_scan():
    # at every vertex of every target, the tuples built from the least
    # permutation of each class, and their centralisers read off C(L), are
    # those a scan of every local tuple over all of S_d keeps; and the
    # budget ticks what that scan would
    data = [fig1_datum(), d2_datum(), d1_datum(5), d4_total_datum()] + [
        d3_kind_datum(kind, n_b) for kind in ("simple", "total", "mixed") for n_b in (4, 5)
    ]
    for h in data:
        full, _ = fully_mark(h)
        for tau in every_target(len(full.b_marks)):
            masks, _ = trees._validate(tau)
            for w in range(tau.num_vertices()):
                flags = tau.flag_masks(w, masks)
                scanned = hurwitz._tuple_budget(None)
                local = hurwitz._local_assignments(full, flags, scanned)
                want = []
                for perms in local:
                    best, coset = oracles.least_conjugate(perms)
                    if best == perms:
                        want.append((perms, coset))
                budget = hurwitz._tuple_budget(None)
                budget.tick(hurwitz._combinations(full, flags))
                assert hurwitz._least_tuples(full, flags, budget) == want
                assert budget.used == scanned.used + factorial(full.d) * len(local)


def test_tick_totals_over_every_target_are_pinned(fresh_covers):
    # the budget each kept entry replays, over the smooth target and every
    # boundary stratum, as the search over every local tuple and all of S_d
    # ticked it
    cases = [
        (d3_self5_datum(), [
            94, 394, 176, 176, 178, 152, 152, 178, 220, 220, 152, 152, 220,
            220, 387, 387, 239, 108, 108, 129, 108, 108, 129, 305, 154, 154,
        ]),
        (d4_total_datum(), [5127, 7920, 640, 640]),
    ]
    for h, ticks in cases:
        full, _ = fully_mark(h)
        taus = every_target(len(full.b_marks))
        for tau in taus:
            enumerate_cover_classes(full, tau)
        cover = hurwitz._cover_value(full)
        assert [hurwitz._CLASSES[cover, tau][1] for tau in taus] == ticks


def d2_self6_datum():
    return HurwitzData.from_json_dict(json.loads((DATA / "d2_self6.json").read_text()))


@pytest.mark.parametrize("make", [
    fig1_datum, d2_datum, d3_self5_datum, d4_total_datum, d2_five_datum, d2_self6_datum,
], ids=["fig1", "d2", "d3_self5", "d4_total", "d2_five", "d2_self6"])
def test_kept_pairs_group_the_keyed_classes_by_their_nodes(make, fresh_covers):
    # over every target each node tuple is kept once, with the number of
    # classes the brute oracle groups under it; weighted by their
    # ramifications the classes count the covers of a smooth target, and
    # the kept entry ticks what a direct builder call ticks.  Most targets
    # are not their own orbit representative, so their pairs are the
    # representative's relabelled
    full, _ = fully_mark(make())
    cover = hurwitz._cover_value(full)
    covers = count_covers_orbit_stabilizer(full)
    for tau in every_target(len(full.b_marks)):
        budget = hurwitz._tuple_budget(None)
        built = hurwitz._enumerate_cover_classes(full, tau, budget)
        pairs = enumerate_cover_classes(full, tau)
        assert pairs == built == tuple(sorted(oracles.brute_cover_nodes(full, tau).items()))
        assert sum(count * prod(r for _s, r, _e in nodes) for nodes, count in pairs) == covers
        assert hurwitz._CLASSES[cover, tau][1] == budget.used
    smooth = enumerate_cover_classes(full, trees.trivial_tree(len(full.b_marks)))
    assert sum(count for _nodes, count in smooth) == covers


def _colour_keeping_relabelling(rng, colours):
    """A random permutation of the marks 1..len(colours) that keeps each
    mark's colour, as a list indexed by mark (entry 0 unused)."""
    perm = [0] * (len(colours) + 1)
    by_colour = {}
    for mark, colour in enumerate(colours, start=1):
        by_colour.setdefault(colour, []).append(mark)
    for marks in by_colour.values():
        for mark, image in zip(marks, rng.sample(marks, len(marks))):
            perm[mark] = image
    return perm


@pytest.mark.parametrize("make", [d3_self5_datum, d2_self6_datum], ids=["d3_self5", "d2_self6"])
def test_orbit_representative_is_constant_on_orbits(make):
    # three random colour-keeping relabellings of every target have its
    # representative, and the representative is the target relabelled by a
    # colour-keeping permutation
    full, _ = fully_mark(make())
    colours = hurwitz._colours(full)
    rng = random.Random(45)
    reps = set()
    for tau in every_target(len(full.b_marks)):
        rep, to_rep = trees.orbit_representative(tau, colours)
        reps.add(rep)
        assert sorted(to_rep) == list(range(1, tau.n + 1))
        assert all(colours[image - 1] == colours[mark - 1]
                   for mark, image in enumerate(to_rep, start=1))
        moved = oracles.relabel_marks(tau, (0,) + to_rep)
        assert trees.split_set(moved) == trees.split_set(rep)
        for _ in range(3):
            other = oracles.relabel_marks(tau, _colour_keeping_relabelling(rng, colours))
            assert trees.orbit_representative(other, colours)[0] == rep
    # fewer orbits than targets
    assert len(reps) < len(every_target(len(full.b_marks)))


@pytest.mark.parametrize("make", [
    lambda: d3_kind_datum("mixed", 7), lambda: oracles.portrait_datum(5, 2),
], ids=["d3seven", "p5f2"])
def test_relabelled_pairs_over_one_edge_targets_match_a_direct_enumeration(make, fresh_covers):
    # the CI's seven-mark degree-3 self-map and f^2 of the period-5
    # portrait: every kept entry equals the builder's pairs over its own
    # target, and replays the ticks of its representative's direct call
    full, _ = fully_mark(make())
    cover = hurwitz._cover_value(full)
    colours = hurwitz._colours(full)
    n = len(full.b_marks)
    ticks = {}  # representative -> the ticks of a direct call over it
    for tau in trees.enumerate_strata(n, n - 4):
        pairs = enumerate_cover_classes(full, tau)
        budget = hurwitz._tuple_budget(None)
        assert pairs == hurwitz._enumerate_cover_classes(full, tau, budget)
        rep, _to_rep = trees.orbit_representative(tau, colours)
        if rep == tau:
            ticks[rep] = budget.used
    for tau in trees.enumerate_strata(n, n - 4):
        rep, _to_rep = trees.orbit_representative(tau, colours)
        assert hurwitz._CLASSES[cover, tau][1] == ticks[rep]


@pytest.mark.parametrize("make, covers", [
    (lambda: d3_kind_datum("mixed", 7), 1296),
    (lambda: oracles.portrait_datum(5, 2), 27648),
    (lambda: HurwitzData.from_json_dict(json.loads((DATA / "d2_self8.json").read_text())), 32),
    (lambda: oracles.portrait_datum(4, 1), 4),
    (lambda: oracles.portrait_datum(5, 1), 8),
    (lambda: oracles.portrait_datum(4, 2), 1152),
], ids=["d3seven", "p5f2", "d2_self8", "p4f1", "p5f1", "p4f2"])
def test_stabiliser_sum_matches_the_class_count_on_larger_data(make, covers):
    # the CI's seven-mark and portrait data, the eight-mark self-map and
    # the portraits of periods 4 and 5
    full, _ = fully_mark(make())
    assert count_covers(full) == count_covers_orbit_stabilizer(full) == covers


@pytest.mark.parametrize("make, n_b, targets, enumerations", [
    (lambda: d3_kind_datum("simple", 5), 5, 10, 2),
    (lambda: HurwitzData.from_json_dict(json.loads((DATA / "d2_self8.json").read_text())),
     8, 119, 8),
], ids=["d3five", "d2_self8"])
def test_one_edge_targets_enumerate_once_per_orbit(make, n_b, targets, enumerations,
                                                    fresh_covers, monkeypatch):
    # the benchmark's degree-3 five-mark datum and the eight-mark self-map
    real = hurwitz._enumerate_cover_classes
    calls = []
    monkeypatch.setattr(hurwitz, "_enumerate_cover_classes",
                        lambda h, tau, limit, *masks: calls.append(tau) or real(h, tau, limit, *masks))
    full, _ = fully_mark(make())
    one_edge = trees.enumerate_strata(n_b, n_b - 4)
    assert len(one_edge) == targets
    for _ in range(2):
        for tau in one_edge:
            enumerate_cover_classes(full, tau)
    assert len(calls) == len(set(calls)) == enumerations
    assert len(hurwitz._CLASSES) == targets


def test_malformed_targets_raise_before_any_cover_work(fresh_covers, within):
    # each tree fails the validating pass, with its message, before a
    # representative is built or a cover enumerated, and nothing is kept
    full, _ = fully_mark(fig1_datum())
    assert enumerate_cover_classes(full, trees.trivial_tree(4))
    kept = dict(hurwitz._CLASSES)
    cases = [
        (trees.MarkedTree(4, (-1, 2, 1), (0, 1, 2, 2)), "parent pointers contain a cycle through 1"),
        (trees.MarkedTree(4, (1, 2, 0), (0, 0, 1, 2)), "tree must have exactly one root, found 0"),
        (trees.MarkedTree(4, (-1, 0), (0, 0, 0, 1)), "vertex 1 has valence 2 < 3"),
        (trees.MarkedTree(4, (-1,), (0, 0, 0, 3)), "mark 4 attached to missing vertex 3"),
    ]
    with within(10):
        for tau, message in cases:
            for _ in range(2):
                for call in (enumerate_cover_classes, degeneration_degree_check):
                    with pytest.raises(ValueError) as err:
                        call(full, tau)
                    assert str(err.value) == message
    assert hurwitz._CLASSES == kept
    # a target on another number of marks says so, as before
    with pytest.raises(ValueError) as err:
        enumerate_cover_classes(full, trees.trivial_tree(5))
    assert str(err.value) == "target tree has 5 marks, datum has 4"
    assert hurwitz._CLASSES == kept


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


FIELDS = ("a_marks", "b_marks", "d", "f_map", "br", "rm", "forget_to", "identify")


def _with(h, **fields):
    """h with the given fields replaced."""
    kw = {f: getattr(h, f) for f in FIELDS}
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
    # each datum keeps its own cover value, and all of them equal the
    # cover value of the kept entry's key
    [(cover, _tau)] = hurwitz._CLASSES
    assert all(hurwitz._cover_value(h) == cover for h in [full] + siblings)


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


def test_returned_classes_are_immutable_and_equal_on_the_next_call(fresh_covers):
    tau = trees.enumerate_strata(4, 0)[0]
    full, _ = fully_mark(fig1_datum())
    first = enumerate_cover_classes(full, tau)
    # a tuple of (nodes, count) pairs, nodes a tuple of int triples, so no
    # caller can change what the next one reads
    assert type(first) is tuple
    for nodes, count in first:
        assert type(nodes) is tuple and type(count) is int
        assert all(type(node) is tuple and all(type(x) is int for x in node) for node in nodes)
    with pytest.raises(TypeError):
        first[0] = (None, None)
    assert enumerate_cover_classes(full, tau) is first
    # and a rebuild from an empty memo gives the same pairs
    hurwitz._CLASSES.clear()
    assert enumerate_cover_classes(full, tau) == first


def test_capped_call_that_raises_keeps_nothing(fresh_covers):
    full, _ = fully_mark(fig1_datum())
    with pytest.raises(ResourceError):
        count_covers(full, limit_tuples=5)
    assert hurwitz._CLASSES == {}
    # a datum that is not fully marked keeps no cover value either
    plain = fig1_datum()
    with pytest.raises(ValueError, match="fully marked"):
        count_covers(plain)
    assert hurwitz._CLASSES == {} and plain._cover is None
    # the oracle counts on its own, past the memo
    assert count_covers_orbit_stabilizer(full) == 4
    assert hurwitz._CLASSES == {} and hurwitz._TYPES == {}


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
    # nothing is kept for them, on the memo or on the datum
    assert len(hurwitz._CLASSES) == 1
    assert all(h._cover is None for h, _status in cases)


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
    # one validation per datum, the first time its cover value is asked
    # for; fully_mark's datum carries its value from the start
    assert calls == [sibling]


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


def test_a_target_that_is_its_own_representative_is_walked_once(fresh_covers, monkeypatch):
    # fig1's first point stratum is its orbit's representative: its
    # enumeration reads the masks of the validating pass that found it so;
    # the other two are walked once each and replay its kept classes
    real = trees._validate
    walks = []
    monkeypatch.setattr(trees, "_validate", lambda tree: walks.append(tree) or real(tree))
    full, _ = fully_mark(fig1_datum())
    strata = trees.enumerate_strata(4, 0)
    colours = hurwitz._colours(full)
    assert [trees.orbit_representative(tau, colours)[0] == tau for tau in strata] == [True, False, False]
    for tau in strata:
        walks.clear()
        enumerate_cover_classes(full, tau)
        assert walks == [tau]


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
               if trees.split_set(t) == {oracles.normalize_split(4, {3, 4})})
    types = enumerate_cover_types(full, tau)
    t3 = next(t for t in types if t.multiplicity == 3)
    t1 = next(t for t in types if t.multiplicity == 1)
    assert trees.split_set(t3.source_tree) == {oracles.normalize_split(8, {3, 4, 7, 8})}
    assert t3.node_data == ((oracles.normalize_split(8, {3, 4, 7, 8}), 3),)
    assert trees.split_set(t1.source_tree) == {
        oracles.normalize_split(8, s) for s in ({4, 7}, {5, 6}, {3, 5, 6, 8})
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
        if trees.split_set(tau) == {oracles.normalize_split(4, {3, 4})}:
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
            [(nodes, count)] = classes
            assert count == 1
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
    got = [sorted(node for nodes, _count in enumerate_cover_classes(h, t) for node in nodes)
           for t in (tau, backwards)]
    assert got[0] == got[1]
    assert len(hurwitz._CLASSES) == 2


def test_cover_types_refuse_a_repeated_node_split(monkeypatch, fresh_covers):
    # two nodes of one source curve never cut the same split; the types are
    # built from the classes _classes reads, on a miss of _TYPES
    real = hurwitz._classes

    def doubled(*args):
        return [(nodes[:1] + nodes, count) for nodes, count in real(*args)]

    monkeypatch.setattr(hurwitz, "_classes", doubled)
    tau = trees.enumerate_strata(5, 0)[0]
    with pytest.raises(AssertionError, match="the source tree has 2 edges for 3 nodes"):
        enumerate_cover_types(d1_datum(5), tau)
    # the types that raised are not kept; the classes they read are
    assert hurwitz._TYPES == {} and (hurwitz._cover_value(d1_datum(5)), tau) in hurwitz._CLASSES


def _type_fields(types):
    return [(t.source_tree, t.node_data, t.multiplicity, t.count) for t in types]


def test_kept_cover_types_tick_what_their_miss_ticked(fresh_covers, monkeypatch):
    # the types over a target are kept beside its classes: a hit ticks what
    # the miss ticked, so a cap one below that count raises and a cap at it
    # passes, on a miss and on a hit alike, and nothing is kept on a raise
    full, _ = fully_mark(d3_self5_datum())
    cover = hurwitz._cover_value(full)
    tau = trees.enumerate_strata(5, 1)[3]
    types = enumerate_cover_types(full, tau)
    used = hurwitz._TYPES[cover, tau][1]
    assert used == hurwitz._CLASSES[cover, tau][1] > 1
    assert type(types) is list and type(hurwitz._TYPES[cover, tau][0]) is tuple
    # a hit: a fresh list over the kept tuple, as the cap allows
    again = enumerate_cover_types(full, tau, used)
    assert again == types and again is not types
    again.clear()
    assert enumerate_cover_types(full, tau) == types
    with pytest.raises(ResourceError):
        enumerate_cover_types(full, tau, used - 1)
    # a miss of the types over kept classes, then a miss of both
    for memos in ((hurwitz._TYPES,), (hurwitz._TYPES, hurwitz._CLASSES)):
        for memo in memos:
            memo.clear()
        with pytest.raises(ResourceError):
            enumerate_cover_types(full, tau, used - 1)
        assert hurwitz._TYPES == {}
        assert _type_fields(enumerate_cover_types(full, tau, used)) == _type_fields(types)
        assert hurwitz._TYPES[cover, tau][1] == used
    # a self-map of the same covers, identified otherwise, builds no type
    built = []
    real = hurwitz.CoverType
    monkeypatch.setattr(hurwitz, "CoverType", lambda *a: built.append(a) or real(*a))
    twin = HurwitzData(full.a_marks, full.b_marks, full.d, full.f_map, full.br, full.rm,
                       full.forget_to, dict(zip(full.b_marks, reversed(full.forget_to))))
    report = degeneration_degree_check(twin, tau)
    assert report["ok"] and built == []
    assert report == degeneration_degree_check(full, tau)


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
        # degree 4 over the smooth target only: over a point stratum the
        # oracle takes about 7 s per datum
        (d4_total_datum(), [trees.trivial_tree(4)]),
        (HurwitzData(
            a_marks=["a1", "a2", "a3", "a4"],
            b_marks=["b1", "b2", "b3", "b4"],
            d=4,
            f_map={"a%d" % i: "b%d" % i for i in range(1, 5)},
            br={"b1": [1, 3], "b2": [1, 3], "b3": [1, 1, 2], "b4": [1, 1, 2]},
            rm={"a1": 3, "a2": 3, "a3": 2, "a4": 2},
        ), [trees.trivial_tree(4)]),
    ]
    for h, strata in cases:
        full, _ = fully_mark(h)
        for tau in strata:
            # each class glued once: a class met twice or missed shows as a
            # count off the oracle's
            classes = hurwitz._enumerate_cover_classes(full, tau, hurwitz._tuple_budget(None))
            assert classes == tuple(sorted(oracles.brute_cover_nodes(full, tau).items()))
            # representatives are glued from least-conjugate tuples only
            masks, _ = trees._validate(tau)
            for w in range(tau.num_vertices()):
                flags = tau.flag_masks(w, masks)
                for perms, _coset in hurwitz._least_tuples(full, flags, hurwitz._tuple_budget(None)):
                    assert perms == oracles.least_conjugate(perms)[0]


def test_class_nodes_match_their_key_and_target():
    # invariants the node splits are not computed from: the sheets over a
    # target edge are glued by the nodes over it, so their r sum to d; the
    # nodes are those the brute oracle reads off each class's source curve;
    # and the identity cover's node over edge e cuts tau's split e
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
            classes = hurwitz._enumerate_cover_classes(full, tau, hurwitz._tuple_budget(None))
            assert classes
            assert classes == tuple(sorted(oracles.brute_cover_nodes(full, tau).items()))
            for nodes, _count in classes:
                # each target edge by its split, read by definition
                r_over = {
                    oracles.normalize_split(tau.n, oracles.away_marks(tau, p, ch)): 0
                    for ch, p in tau.edges()
                }
                for side, r, e in nodes:
                    assert side == trees.split_of(n, side) and r >= 1
                    r_over[e] += r
                assert list(r_over.values()) == [full.d] * len(tau.edges())
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
