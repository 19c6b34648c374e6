"""Command line front end.

Subcommands cover stratum enumeration, homology presentations, filtration
dimensions, weight-reduction kernels, cover counting, pushforward matrices,
dynamical degrees, and filtration block structure.  Results go to standard
output as single-line JSON with sorted keys so repeated runs are
byte-identical; --out targets get an indented copy of the full dump.

Exit codes: 0 on success, 2 on invalid input (a machine-readable
{"error": ...} object on standard output, the message on standard error),
3 when a --limit-strata / --limit-tuples budget is exceeded.

`selftest` runs the acceptance suite, printing one line per criterion, and
exits nonzero if any criterion fails.  The criteria are also exposed as the
ACCEPTANCE tuple so the test suite can run them one by one.
"""

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import filtration, hassett, homology, hurwitz, linalg, pushforward, trees
from .trees import MarkedTree, ResourceError


# -- JSON helpers ------------------------------------------------------------


def frac_str(x):
    return str(Fraction(x))


def mat_strs(mat):
    return [[frac_str(x) for x in row] for row in mat]


def mat_floats(mat):
    return [[float(x) for x in row] for row in mat]


def _json_fraction(value, what):
    """value as a Fraction when it is a fraction string or a JSON integer,
    which a bool, a float, an array or an object is not; ValueError naming
    `what` otherwise."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s must be a fraction string or an integer, got %s" % (what, json.dumps(value)))


def matrix_from_json(obj):
    """Accept a bare 2-d array or a dump with a matrix field: an array of
    rows of one length, each an array of fraction strings or JSON integers.

    Dumps written by the pushforward command carry both the rectangular
    matrix and, when the datum closes up into a self-map, the square
    self-correspondence matrix; the square one is what the block and degree
    commands want, so it wins when present.
    """
    if isinstance(obj, dict):
        obj = obj.get("self_matrix", obj.get("matrix"))
        if obj is None:
            raise ValueError("matrix file needs a 'matrix' field")
    mat = tuple(
        tuple(_json_fraction(x, "a matrix entry") for x in trees._json_array(row, "a matrix row"))
        for row in trees._json_array(obj, "the matrix")
    )
    lengths = sorted({len(row) for row in mat})
    if len(lengths) > 1:
        raise ValueError("the matrix rows must have one length, got lengths %s" % lengths)
    return mat


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_out(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_hurwitz(path):
    """The datum of the JSON file `path`, validated once by fully marking it
    (hurwitz.fully_mark keeps the marking for the command's later calls and
    raises "invalid correspondence datum: ..." on an invalid datum)."""
    with open(path) as fh:
        obj = json.load(fh)
    h = hurwitz.HurwitzData.from_json_dict(obj)
    hurwitz.fully_mark(h)
    return h


def load_weights(source, n):
    """The built-in `dagger` weights, or a JSON array of fraction strings or
    JSON integers read from the file `source`."""
    if source == "dagger":
        return hassett.epsilon_dagger(n)
    with open(source) as fh:
        obj = json.load(fh)
    return tuple(_json_fraction(x, "a weight") for x in trees._json_array(obj, "the weights"))


def partition_key(lam):
    if not lam:
        return "0"
    return "+".join(str(p) for p in sorted(lam, reverse=True))


# -- subcommands ---------------------------------------------------------------


def cmd_strata(args):
    ts = trees.enumerate_strata(args.n, args.k, args.limit_strata)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "count": len(ts),
            "strata": [t.to_json_dict() for t in ts],
        }
    )
    return 0


def cmd_homology(args):
    if args.action == "dims":
        dims = homology.homology_dims(args.n, args.limit_strata)
        _emit({"k_dims": {str(k): r for k, r in sorted(dims.items())}})
        return 0
    if args.k is None:
        raise ValueError("homology basis needs --k")
    pres = homology.homology_basis(args.n, args.k, args.limit_strata)
    dump = {
        "n": pres.n,
        "k": pres.k,
        "rank": pres.rank,
        "strata": [t.to_json_dict() for t in pres.strata],
        "basis": list(pres.basis),
        "expansions": {
            str(i): {str(pres.basis[j]): str(x) for j, x in pres.reduce_index_vec({i: 1}).items()}
            for i in range(len(pres.strata)) if i not in pres.pos
        },
    }
    if args.out:
        _write_out(args.out, dump)
        _emit({"n": pres.n, "k": pres.k, "rank": pres.rank, "out": args.out})
    else:
        _emit(dump)
    return 0


def cmd_filtration(args):
    per_partition, below_dim, omega_dim = filtration.filtration_dims(
        args.n, args.k, args.limit_strata
    )
    out = {partition_key(lam): d for lam, d in per_partition.items()}
    out["<(k)"] = below_dim
    out["omega"] = omega_dim
    _emit(out)
    return 0


def cmd_hassett(args):
    eps = load_weights(args.weights, args.n)
    ker = hassett.reduction_kernel(args.n, args.k, eps, args.limit_strata)
    below = filtration.below_subspace(args.n, args.k, args.limit_strata)
    _emit({"kernel_dim": ker.dim(), "equals_lambda_less": below.equals(ker)})
    return 0


def cmd_hurwitz(args):
    h = load_hurwitz(args.data)
    full, deg_nu = hurwitz.fully_mark(h)
    if args.action == "count":
        _emit({"deg_pi_B": pushforward.pushforward_h0(h, args.limit_tuples), "deg_nu": deg_nu})
        return 0
    if not args.tau:
        raise ValueError("hurwitz types needs --tau")
    with open(args.tau) as fh:
        tau = MarkedTree.from_json_dict(json.load(fh))
    if tau.n != len(h.b_marks):
        raise ValueError(
            "tau has %d marks, the datum targets %d" % (tau.n, len(h.b_marks))
        )
    report = hurwitz.degeneration_degree_check(full, tau, args.limit_tuples)
    _emit(dict(report, tau=tau.to_json_dict()))
    return 0


def cmd_pushforward(args):
    if args.k != 1:
        raise ValueError("pushforward matrices are computed for --k 1 only")
    h = load_hurwitz(args.data)
    pm = pushforward.pushforward_h2(h, args.limit_tuples, args.limit_strata)
    rows, cols = pm.shape()
    dump = {
        "k": 1,
        "deg_nu": pm.deg_nu,
        "rows": rows,
        "cols": cols,
        "row_marks": list(pm.aprime),
        "col_marks": list(h.b_marks),
        "row_basis": [t.to_json_dict() for t in pm.target_pres.basis_trees()],
        "col_basis": [t.to_json_dict() for t in pm.source_pres.basis_trees()],
        "matrix": mat_strs(pm.matrix),
        "matrix_float": mat_floats(pm.matrix),
    }
    if h.identify is not None:
        sm = pushforward.self_correspondence_matrix(h, 1, args.limit_tuples, args.limit_strata)
        dump["self_matrix"] = mat_strs(sm)
        dump["self_matrix_float"] = mat_floats(sm)
    if args.out:
        _write_out(args.out, dump)
        _emit({"k": 1, "rows": rows, "cols": cols, "out": args.out})
    else:
        _emit(dump)
    return 0


def cmd_dyndeg(args):
    h = load_hurwitz(args.data)
    mat = pushforward.self_correspondence_matrix(
        h, args.k, args.limit_tuples, args.limit_strata
    )
    rep = pushforward.dynamical_degree(mat)
    _emit({"theta": rep.theta(), "method": rep.method})
    return 0


def cmd_blocks(args):
    with open(args.matrix) as fh:
        mat = matrix_from_json(json.load(fh))
    rep = pushforward.filtration_blocks(mat, args.n, args.k, args.limit_strata)
    _emit(
        {
            "lambda_dim": rep["lambda_dim"],
            "omega_dim": rep["omega_dim"],
            "lambda_block": mat_strs(rep["lambda_block"]),
            "lambda_block_float": mat_floats(rep["lambda_block"]),
            "omega_block": mat_strs(rep["omega_block"]),
            "omega_block_float": mat_floats(rep["omega_block"]),
        }
    )
    return 0


# -- built-in example data -----------------------------------------------------
#
# The selftest has to run from any directory, so the two worked example data
# and the degree-one datum are constructed here rather than read from files.
# data/*.json in the repository mirror these; a test pins them equal.


def _fig1_data():
    return hurwitz.HurwitzData(
        ("a1", "a2", "a3", "a4"),
        ("b1", "b2", "b3", "b4"),
        3,
        {"a1": "b1", "a2": "b2", "a3": "b3", "a4": "b3"},
        {"b1": (1, 2), "b2": (1, 2), "b3": (1, 2), "b4": (1, 2)},
        {"a1": 2, "a2": 2, "a3": 2, "a4": 1},
        ("a1", "a2", "a3", "a4"),
        {"b1": "a1", "b2": "a2", "b3": "a3", "b4": "a4"},
    )


def _d2_data():
    return hurwitz.HurwitzData(
        ("a1", "a2", "a3"),
        ("b1", "b2", "b3", "b4"),
        2,
        {"a1": "b1", "a2": "b2", "a3": "b3"},
        {"b1": (2,), "b2": (2,), "b3": (1, 1), "b4": (1, 1)},
        {"a1": 2, "a2": 2, "a3": 1},
        None,
        None,
    )


def _d1_data(n=5):
    a = tuple("a%d" % i for i in range(1, n + 1))
    b = tuple("b%d" % i for i in range(1, n + 1))
    return hurwitz.HurwitzData(
        a,
        b,
        1,
        {ai: bi for ai, bi in zip(a, b)},
        {bi: (1,) for bi in b},
        {ai: 1 for ai in a},
        a,
        {bi: ai for bi, ai in zip(b, a)},
    )


# -- acceptance criteria -------------------------------------------------------


def _crit_dimension_formula():
    budgets = {5: 10.0, 6: 10.0, 7: 10.0, 8: 300.0}
    parts = []
    for n in (5, 6, 7, 8):
        want = (2 ** n - n * n + n - 2) // 2
        t0 = time.perf_counter()
        rank = homology.homology_basis(n, n - 4).rank
        dt = time.perf_counter() - t0
        assert rank == want, "rank at N=%d is %d, the formula gives %d" % (n, rank, want)
        assert dt < budgets[n], "N=%d took %.1fs, budget %.0fs" % (n, dt, budgets[n])
        parts.append("N=%d:%d" % (n, rank))
    assert [p.split(":")[1] for p in parts] == ["5", "16", "42", "99"]
    return " ".join(parts)


def _crit_duality():
    ranks = []
    for n in (5, 6, 7):
        r2 = homology.homology_basis(n, 1).rank
        rtop = homology.homology_basis(n, n - 4).rank
        assert r2 == rtop, "H_2 rank %d vs top rank %d at N=%d" % (r2, rtop, n)
        ranks.append(str(r2))
    return "H_2 matches the top degree: " + " ".join(ranks)


def _crit_filtration_dims():
    oms = []
    bels = []
    for n in (5, 6, 7, 8):
        k = n - 4
        om = filtration.omega_quotient(n, k).dim()
        assert om == n, "omega dim %d at N=%d, want %d" % (om, n, n)
        bel = filtration.below_subspace(n, k).dim()
        want = (2 ** n - 2 - 2 * n - n * (n - 1)) // 2
        assert bel == want, "below dim %d at N=%d, want %d" % (bel, n, want)
        oms.append(str(om))
        bels.append(str(bel))
    return "omega " + " ".join(oms) + "; below " + " ".join(bels)


def _crit_stable_vertex():
    total = 0
    for n in range(4, 9):
        eps = hassett.epsilon_dagger(n)
        for k in range(0, n - 2):
            for t in trees.enumerate_strata(n, k):
                sv = hassett.stable_vertices(t, eps)
                assert len(sv) == 1, "N=%d tree %r has %d stable vertices" % (
                    n,
                    (t.parents, t.legs),
                    len(sv),
                )
                total += 1
    return "%d trees, exactly one stable vertex each" % total


def _crit_reduction_kernel():
    pairs = 0
    equalities = 0
    for n in (4, 5, 6, 7):
        eps = hassett.epsilon_dagger(n)
        for k in range(0, n - 2):
            ker = hassett.reduction_kernel(n, k, eps)
            below = filtration.below_subspace(n, k)
            assert below.is_subspace_of(ker), (
                "below escapes the kernel at (N=%d, k=%d)" % (n, k)
            )
            pairs += 1
            if 2 * k >= n - 3:
                assert below.equals(ker), (
                    "kernel dim %d != below dim %d at (N=%d, k=%d)"
                    % (ker.dim(), below.dim(), n, k)
                )
                equalities += 1
    return "containment at %d (N,k) pairs, equality at %d" % (pairs, equalities)


def _crit_relation_orthogonality():
    checked = 0
    for n in (4, 5, 6, 7):
        splits = trees.all_splits(n)
        for row in homology.km_relations(n, 1):
            for s in splits:
                tot = sum(
                    c * homology.intersection_pairing_h2(t, s) for t, c in row.items()
                )
                assert tot == 0, "a relation pairs to %s against %r at N=%d" % (
                    tot,
                    list(trees.marks_of(s)),
                    n,
                )
                checked += 1
    return "%d relation/split pairs all vanish" % checked


def _compose3(p, q):
    return tuple(p[q[i]] for i in range(3))


def _crit_cover_counts():
    t0 = time.perf_counter()
    full, deg_nu = hurwitz.fully_mark(_fig1_data())
    assert deg_nu == 1

    transpositions = [
        p
        for p in itertools.permutations(range(3))
        if sum(p[i] != i for i in range(3)) == 2
    ]
    quads = list(itertools.product(transpositions, repeat=4))
    assert len(quads) == 81, "expected 81 transposition quadruples"
    good = []
    for quad in quads:
        prod = (0, 1, 2)
        for p in quad:
            prod = _compose3(p, prod)
        if prod != (0, 1, 2):
            continue
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for p in quad:
                if p[x] not in seen:
                    seen.add(p[x])
                    frontier.append(p[x])
        if len(seen) == 3:
            good.append(quad)
    classes = set()
    for quad in good:
        best = None
        for g in itertools.permutations(range(3)):
            gi = [0] * 3
            for i in range(3):
                gi[g[i]] = i
            img = tuple(
                tuple(g[p[gi[i]]] for i in range(3)) for p in quad
            )
            if best is None or img < best:
                best = img
        classes.add(best)
    brute = len(classes)

    orbit = hurwitz.count_covers(full)
    stab = hurwitz.count_covers_orbit_stabilizer(full)
    assert brute == orbit == stab == 4, "figure-one counts %d/%d/%d, want 4" % (
        brute,
        orbit,
        stab,
    )

    full2, deg_nu2 = hurwitz.fully_mark(_d2_data())
    c2 = hurwitz.count_covers(full2)
    assert c2 == 2, "the labeled degree-2 count is %d, want 2 (not 4)" % c2
    s2 = hurwitz.count_covers_orbit_stabilizer(full2)
    assert s2 == 2, "the degree-2 stabilizer count is %d, want 2" % s2
    assert deg_nu2 == 2

    dt = time.perf_counter() - t0
    assert dt < 1.0, "cover counting took %.2fs, budget 1s" % dt
    return "figure-one 81 tuples -> 4 classes (brute = orbit = stabilizer); d=2 -> 2"


def _crit_degeneration_degrees():
    parts = []
    for name, h in (("figure-one", _fig1_data()), ("d=2", _d2_data())):
        full, _ = hurwitz.fully_mark(h)
        nb = len(h.b_marks)
        strata = trees.enumerate_strata(nb, nb - 4)
        for tau in strata:
            rep = hurwitz.degeneration_degree_check(full, tau)
            assert rep["ok"], "%s: %d != %d over %r" % (
                name,
                rep["total"],
                rep["expected"],
                (tau.parents, tau.legs),
            )
        parts.append("%s over %d strata" % (name, len(strata)))
    return "; ".join(parts)


def _crit_dynamical_degrees():
    fig = _fig1_data()
    m0 = pushforward.self_correspondence_matrix(fig, 0)
    r0 = pushforward.dynamical_degree(m0)
    assert r0.exact == 4, "theta_0 is %r, want 4" % r0.theta()
    m1 = pushforward.self_correspondence_matrix(fig, 1)
    r1 = pushforward.dynamical_degree(m1)
    assert r1.exact is not None and 1 <= r1.exact <= 4, (
        "theta_1 is %r, want it in [1, 4]" % r1.theta()
    )
    assert r1.exact == 1, "theta_1 is %r, the degeneration count fixed 1" % r1.theta()

    d1 = _d1_data(5)
    md = {k: pushforward.self_correspondence_matrix(d1, k) for k in (0, 1)}
    reports = [r0, r1]
    for k in (0, 1):
        rk = pushforward.dynamical_degree(md[k])
        assert rk.exact == 1, "degree-one theta_%d is %r, want 1" % (k, rk.theta())
        reports.append(rk)
    for rep in reports:
        assert rep.method == "exact_roots" and rep.value >= 0, (
            "dominant eigenvalue not certified real and nonnegative: %r" % rep
        )
    for m in (m0, m1, md[1]):
        base = float(pushforward.dynamical_degree(m).theta())
        sq = float(pushforward.dynamical_degree(linalg.mat_mul(m, m)).theta())
        assert abs(sq - base * base) <= 1e-9 * max(1.0, base * base), (
            "radius of the square is %r, square of the radius %r" % (sq, base * base)
        )
    return "theta_0 4, theta_1 1; d=1 gives 1 and 1; squaring consistent"


def _crit_forgetful_filtration():
    keep = tuple(range(1, 7))
    checked = 0
    for k in (0, 1, 2):
        pres7 = homology.homology_basis(7, k)
        pres6 = homology.homology_basis(6, k)
        for lam in filtration.partitions_of(k):
            if not filtration.realizable(7, k, lam):
                continue
            sub6 = filtration.lambda_subspace(6, k, lam)
            for t in pres7.strata:
                if not filtration.partition_leq(trees.induced_partition(t), lam):
                    continue
                img = homology.forget_vec({t: 1}, keep)
                if not img:
                    continue
                coords = pres6.reduce_tree_dict(img)
                assert sub6.contains(coords), (
                    "an image escapes level %s at k=%d" % (partition_key(lam), k)
                )
                checked += 1
    return "%d surviving generator images stay in their level" % checked


def _crit_determinism():
    def snapshot():
        full, deg_nu = hurwitz.fully_mark(_fig1_data())
        full2, deg_nu2 = hurwitz.fully_mark(_d2_data())
        pm = pushforward.pushforward_h2(_fig1_data())
        return json.dumps(
            {
                "dims": {
                    str(n): {
                        str(k): r for k, r in sorted(homology.homology_dims(n).items())
                    }
                    for n in (5, 6)
                },
                "fig1": [hurwitz.count_covers(full), deg_nu],
                "d2": [hurwitz.count_covers(full2), deg_nu2],
                "matrix": mat_strs(pm.matrix),
            },
            sort_keys=True,
        )

    first = snapshot()
    # the second snapshot computes the pushforward and its covers again
    # instead of reading the first one's from the memos
    for memo in (pushforward._PUSHFORWARDS, hurwitz._CLASSES, hurwitz._TYPES):
        memo.clear()
    second = snapshot()
    assert first == second, "repeated computation rendered different bytes"
    return "repeated renders byte-identical"


ACCEPTANCE = (
    ("dimension formula", _crit_dimension_formula),
    ("duality", _crit_duality),
    ("filtration dimensions", _crit_filtration_dims),
    ("unique stable vertex", _crit_stable_vertex),
    ("reduction kernel", _crit_reduction_kernel),
    ("relation orthogonality", _crit_relation_orthogonality),
    ("cover counts", _crit_cover_counts),
    ("degeneration degrees", _crit_degeneration_degrees),
    ("dynamical degrees", _crit_dynamical_degrees),
    ("forgetful filtration", _crit_forgetful_filtration),
    ("determinism", _crit_determinism),
)


def cmd_selftest(args):
    failures = 0
    for i, (name, fn) in enumerate(ACCEPTANCE, 1):
        try:
            detail = fn()
            sys.stdout.write("ok %02d %s: %s\n" % (i, name, detail))
        except Exception as e:
            failures += 1
            msg = str(e) or repr(e)
            sys.stdout.write("FAIL %02d %s: %s\n" % (i, name, msg))
    sys.stdout.write(
        "selftest: %d passed, %d failed\n" % (len(ACCEPTANCE) - failures, failures)
    )
    return 1 if failures else 0


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stdout.write(json.dumps({"error": message}, sort_keys=True) + "\n")
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(2)


def _common_flags(p, tuples=False):
    p.add_argument("--limit-strata", type=int, dest="limit_strata")
    if tuples:
        p.add_argument(
            "--limit-tuples", type=int, dest="limit_tuples",
            help="cap on the tuples each cover enumeration over one target tree "
            "tries, counted as if nothing were cached",
        )


def build_parser():
    parser = _Parser(prog="stratadyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("strata", help="enumerate boundary strata of one dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("homology", help="ranks or a full presentation")
    p.add_argument("action", choices=("dims", "basis"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    _common_flags(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("filtration", help="partition-filtration dimensions")
    p.add_argument("action", choices=("dims",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_filtration)

    p = sub.add_parser("hassett", help="weight-reduction kernel")
    p.add_argument("action", choices=("kernel",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--weights", required=True, help="'dagger' or a JSON file")
    _common_flags(p)
    p.set_defaults(func=cmd_hassett)

    p = sub.add_parser("hurwitz", help="cover counts and degeneration types")
    p.add_argument("action", choices=("count", "types"))
    p.add_argument("--data", required=True)
    p.add_argument("--tau", help="stratum JSON file (types only)")
    _common_flags(p, tuples=True)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("pushforward", help="curve-class pushforward matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out")
    _common_flags(p, tuples=True)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("dyndeg", help="dynamical degree of a self-map")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, choices=(0, 1), required=True)
    _common_flags(p, tuples=True)
    p.set_defaults(func=cmd_dyndeg)

    p = sub.add_parser("blocks", help="filtration block structure of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=cmd_selftest)

    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser of main, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    for name in ("limit_strata", "limit_tuples"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            parser.error("--%s must be >= 1" % name.replace("_", "-"))
    try:
        return args.func(args)
    except ResourceError as e:
        _emit({"error": str(e)})
        sys.stderr.write("error: %s\n" % e)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as e:
        msg = str(e) or type(e).__name__
        _emit({"error": msg})
        sys.stderr.write("error: %s\n" % msg)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
