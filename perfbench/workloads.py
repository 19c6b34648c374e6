"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload is a closed loop with one client: an operation is issued only
after the previous one returned.  `setup` prepares a freshly imported package
(the time users pay before their first answer), `make_batch` derives one
fixed batch of operations from the seed, and every operation carries a check
that runs after the batch, outside the timed region.

Why these three:

* build-cold: every `stratadyn` process pays the stratum and presentation
  build again; load sits on trees, homology.km_relations and
  linalg.RowSpace.add/rref.
* covers-dynamics: Hurwitz covers, pushforwards and characteristic
  polynomials on small (n <= 6) presentations built during set-up, so a
  change to the homology build shows no gain here and a change to cover
  enumeration shows none in the other two.
* queries-warm: the read path against cached presentations, next to the
  write path of build-cold.

n = 8 at k in {1, 2, 3} is left out of build-cold only because one such
build takes longer than a whole run (k = 3 about 96 s, k = 1 over 10 min).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_FILES = ("fig1", "d2", "d1_self")

# Stratum counts per (n, k): trivalent trees are (2n-5)!!, one-edge strata
# 2^(n-1) - n - 1; the rest are the hand-derived tables of the test suite.
STRATA_COUNTS = {
    (5, 0): 15, (5, 1): 10, (5, 2): 1,
    (6, 0): 105, (6, 1): 105, (6, 2): 25, (6, 3): 1,
    (7, 0): 945, (7, 1): 1260, (7, 2): 490, (7, 3): 56, (7, 4): 1,
    (8, 0): 10395, (8, 4): 119, (8, 5): 1,
}


def h2_rank(n):
    """Rank of H_2 of the n-mark space: 2^(n-1) - C(n,2) - 1."""
    return 2 ** (n - 1) - n * (n - 1) // 2 - 1


def expected_rank(n, k):
    """Ranks the presentations must reproduce: 1 at both ends, the H_2
    formula at k = 1 and, by duality, at k = n - 4; the n = 7 middle rank is
    the published Poincare polynomial coefficient."""
    if k in (0, n - 3):
        return 1
    if k in (1, n - 4):
        return h2_rank(n)
    return {(7, 2): 127}[(n, k)]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Op:
    """One operation of a batch and the check of its result."""

    __slots__ = ("kind", "fn", "check")

    def __init__(self, kind, fn, check):
        self.kind = kind
        self.fn = fn
        self.check = check  # (result) -> None if right, else a message


class Batch:
    __slots__ = ("ops", "inputs")

    def __init__(self, ops, inputs):
        self.ops = ops
        self.inputs = inputs  # JSON-able description, digested for the report


def relabel(lib, tree, perm):
    """The same stratum with mark m renamed perm[m - 1]; not canonical."""
    legs = [0] * tree.n
    for mk, v in enumerate(tree.legs, start=1):
        legs[perm[mk - 1] - 1] = v
    return lib.trees.MarkedTree(tree.n, tree.parents, tuple(legs))


def random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def expect(ok, message):
    return None if ok else message


def sequence(kind, steps):
    """One operation that runs `steps` in order and checks each result."""
    def run():
        return [step.fn() for step in steps]

    def check(results):
        for step, result in zip(steps, results):
            msg = step.check(result)
            if msg is not None:
                return "%s: %s" % (step.kind, msg)
        return None

    return Op(kind, run, check)


class Workload:
    """A run sets up `setup_repeats` times, then makes `batches(seconds)`
    batches.  The count comes from a nominal batch time measured on the
    baseline machine rather than from the clock, so every run of a workload
    does the same work, whatever the machine's speed at the moment."""

    setup_repeats = 3
    fresh_per_batch = False  # set up again before every batch after the first
    nominal_batch_s = 1.0
    min_batches = 1

    def batches(self, seconds):
        return max(self.min_batches, round(seconds / self.nominal_batch_s))


# -- build-cold -----------------------------------------------------------------


class BuildCold(Workload):
    name = "build-cold"
    setup_repeats = 31  # a set-up is only the fresh import here, so take many
    fresh_per_batch = True  # every batch starts from empty caches
    nominal_batch_s = 31.0  # so a 20 s run makes one batch

    PRESENTATIONS = [(n, k) for n in (5, 6, 7) for k in range(n - 2)] + [(8, 0), (8, 4), (8, 5)]
    FILTRATIONS = [(n, k) for n in (5, 6, 7) for k in range(n - 2)]

    def setup(self, lib, seed):
        return {}

    def make_batch(self, lib, state, seed, index):
        """One operation per mark count, as a cold process answering the
        `homology`, `filtration` and `hassett` commands for one n would do.
        Finer operations put the median latency on a 0.1 s step that a
        short slowdown of a shared machine could double.  The table runs in
        a fixed order: the order decides which caches are alive during the
        n = 8 build, so a seeded order would move peak memory from seed to
        seed.  The seed picks the relabelled strata the checks use."""
        rng = random.Random("build-cold:%d:%d" % (seed, index))
        results = {}
        relabels = {}
        steps = {}
        for n, k in self.PRESENTATIONS:
            picks = [(rng.randrange(STRATA_COUNTS[(n, k)]), random_perm(rng, n)) for _ in range(8)]
            relabels["%d,%d" % (n, k)] = picks
            steps.setdefault(n, {}).setdefault("build", []).append((k, picks))
        for n, k in self.FILTRATIONS:
            steps.setdefault(n, {}).setdefault("filtration", []).append(k)
        ops = []
        for n in sorted(steps):
            parts = []
            if "build" in steps[n]:
                parts.append(self._presentations_op(lib, n, steps[n]["build"], results))
            if "filtration" in steps[n]:
                ks = steps[n]["filtration"]
                parts += [self._filtration_op(lib, n, ks), self._kernel_op(lib, n, ks)]
            ops.append(sequence("cold-n%d" % n, parts))
        return Batch(ops, {"builds": self.PRESENTATIONS, "filtrations": self.FILTRATIONS,
                           "relabels": relabels})

    @staticmethod
    def _presentations_op(lib, n, ks, results):
        def run():
            out = []
            for k, _picks in ks:
                strata = lib.trees.enumerate_strata(n, k)
                pres = lib.homology.homology_basis(n, k)
                results[(n, k)] = pres.rank
                out.append((strata, pres))
            return out

        def check(out):
            for (k, picks), (strata, pres) in zip(ks, out):
                if len(strata) != STRATA_COUNTS[(n, k)] or len(pres.strata) != len(strata):
                    return "strata(%d,%d): %d listed, %d presented" % (n, k, len(strata), len(pres.strata))
                known = set(strata)
                for i, perm in picks:
                    if lib.trees.canonical_form(relabel(lib, strata[i], perm)) not in known:
                        return "a relabelled stratum of (%d,%d) is missing" % (n, k)
                if pres.rank != expected_rank(n, k):
                    return "rank(%d,%d) = %d" % (n, k, pres.rank)
                dual = results.get((n, n - 3 - k))
                if dual is not None and dual != pres.rank:
                    return "duality fails at (%d,%d)" % (n, k)
            return None

        return Op("presentations", run, check)

    @staticmethod
    def _filtration_op(lib, n, ks):
        def check_one(k, result):
            per_lam, below, omega = result
            rank = expected_rank(n, k)
            if per_lam.get((k,) if k else ()) != rank:
                return "top filtration level at (%d,%d) is %r" % (n, k, per_lam)
            if below + omega != rank:
                return "below %d + omega %d != rank at (%d,%d)" % (below, omega, n, k)
            if k == n - 4 and (omega != n or below != (2 ** n - 2 - 2 * n - n * (n - 1)) // 2):
                return "filtration dims at (%d,%d): below %d omega %d" % (n, k, below, omega)
            return None

        def check(out):
            return next((m for m in map(check_one, ks, out) if m is not None), None)

        return Op("filtration", lambda: [lib.filtration.filtration_dims(n, k) for k in ks], check)

    @staticmethod
    def _kernel_op(lib, n, ks):
        eps = lib.hassett.epsilon_dagger(n)

        def check_one(k, ker):
            below = lib.filtration.below_subspace(n, k)
            if not below.is_subspace_of(ker):
                return "below escapes the kernel at (%d,%d)" % (n, k)
            if 2 * k >= n - 3 and ker.dim() != below.dim():
                return "kernel dim %d != below dim %d at (%d,%d)" % (ker.dim(), below.dim(), n, k)
            return None

        def check(out):
            return next((m for m in map(check_one, ks, out) if m is not None), None)

        return Op("kernel", lambda: [lib.hassett.reduction_kernel(n, k, eps) for k in ks], check)


# -- covers-dynamics ------------------------------------------------------------


PROFILES = {
    # kind -> branching profiles over n_b target marks, total branching 2d - 2
    "d2": lambda n_b: [(2,), (2,)] + [(1, 1)] * (n_b - 2),
    "d3-simple": lambda n_b: [(1, 2)] * 4 + [(1, 1, 1)] * (n_b - 4),
    "d3-total": lambda n_b: [(3,), (3,)] + [(1, 1, 1)] * (n_b - 2),
    "d3-mixed": lambda n_b: [(3,), (1, 2), (1, 2)] + [(1, 1, 1)] * (n_b - 3),
}


def random_hurwitz(lib, rng, kind, n_b, with_identify):
    """A valid Hurwitz datum with the profiles of `kind` over n_b target marks.

    The profiles go to the targets in a fixed order, and one preimage of
    the largest ramification over each target carries a source mark (the
    rest are added by `fully_mark`).  A self-map retains exactly those marks
    and the seed picks how they are identified with the targets.  Data that
    differ only by relabelling marks cost different amounts to enumerate,
    so the seed varies only the identification, which changes the self-map
    and not the covers counted.
    """
    profiles = PROFILES[kind](n_b)
    d = sum(profiles[0])
    b_marks = ["b%d" % i for i in range(1, n_b + 1)]
    marked = [(b, max(parts)) for b, parts in zip(b_marks, profiles)]
    a_marks = ["a%d" % i for i in range(1, n_b + 1)]
    f_map = {a: b for a, (b, _r) in zip(a_marks, marked)}
    rm = {a: r for a, (_b, r) in zip(a_marks, marked)}
    br = {b: p for b, p in zip(b_marks, profiles) if p != (1,) * d}
    forget_to = identify = None
    if with_identify:
        forget_to = list(a_marks)
        targets = list(a_marks)
        rng.shuffle(targets)
        identify = dict(zip(b_marks, targets))
    h = lib.hurwitz.HurwitzData(a_marks, b_marks, d, f_map, br, rm, forget_to, identify)
    res = lib.hurwitz.validate(h)
    if not res.ok:
        raise AssertionError("generated an invalid datum: %s" % res.reason)
    return h


class CoversDynamics(Workload):
    name = "covers-dynamics"
    setup_repeats = 9
    nominal_batch_s = 14.0  # so a 20 s run makes one batch

    # (profile kind, target marks, self-map?) per seeded datum.  With the
    # three data files, five data are cheaper and five dearer than the ten
    # degree-2 five-mark self-maps, so the median request is the median of
    # those ten, whatever their seeded cost.  Degree 3 over 5 marks
    # has no self-map: its k = 1 matrix enumerates covers over point strata
    # of the 5-mark space, about 21 s each.
    SEEDED = (
        (("d2", 4, True),) * 3
        + (("d2", 5, True),) * 10
        + (("d3-simple", 4, True), ("d3-total", 4, True), ("d3-mixed", 4, True))
        + (("d3-simple", 5, False),)
    )

    def setup(self, lib, seed):
        for n in (4, 5, 6):
            for k in (0, 1):
                lib.homology.homology_basis(n, k)
        return {
            "targets": {n: (lib.trees.enumerate_strata(n, 1), lib.trees.enumerate_strata(n, 0))
                        for n in (4, 5)},
        }

    def make_batch(self, lib, state, seed, index):
        rng = random.Random("covers-dynamics:%d:%d" % (seed, index))
        data = []
        for name in DATA_FILES:
            with open(os.path.join(ROOT, "data", name + ".json")) as fh:
                data.append((name, lib.hurwitz.HurwitzData.from_json_dict(json.load(fh))))
        for j, (kind, n_b, with_identify) in enumerate(self.SEEDED):
            data.append(("seeded-%d-%s-n%d" % (j, kind, n_b),
                         random_hurwitz(lib, rng, kind, n_b, with_identify)))
        # a seeded order spreads the data that set the median over the whole
        # batch, so no few seconds of the machine's speed decide it
        rng.shuffle(data)
        ops = [self._datum_op(lib, state, name, h) for name, h in data]
        return Batch(ops, [[name, h.to_json_dict()] for name, h in data])

    @staticmethod
    def _datum_op(lib, state, name, h):
        """One request: every step for one datum, in order; the latency of a
        whole datum is what a caller waits for, and it keeps the median on
        the degree-2 five-mark self-maps instead of between step kinds."""
        return sequence("datum", CoversDynamics._datum_steps(lib, state, name, h))

    @staticmethod
    def _datum_steps(lib, state, name, h):
        hz = lib.hurwitz
        n_b = len(h.b_marks)
        ctx = {}

        def mark():
            ctx["full"], ctx["deg_nu"] = hz.fully_mark(h)
            return ctx["deg_nu"]

        def count():
            ctx["count"] = hz.count_covers(ctx["full"])
            return ctx["count"]

        ops = [
            Op("fully_mark", mark, lambda deg: expect(deg >= 1, "%s: marking degree %r" % (name, deg))),
            Op("count_covers", count, lambda c: expect(
                c >= 1 and (name != "d2" or c == 2), "%s: %d covers" % (name, c))),
            Op("count_covers_orbit_stabilizer",
               lambda: hz.count_covers_orbit_stabilizer(ctx["full"]),
               lambda c: expect(c == ctx.get("count"), "%s: orbit-stabilizer count %d != %r"
                                % (name, c, ctx.get("count")))),
        ]
        curves, points = state["targets"][n_b]
        for tau in curves + (points if n_b == 4 else []):
            ops.append(Op(
                "degeneration_degree_check",
                lambda tau=tau: hz.degeneration_degree_check(ctx["full"], tau),
                lambda rep: expect(rep["ok"], "%s: degeneration %d != %d"
                                   % (name, rep["total"], rep["expected"])),
            ))
        if h.identify is None:
            return ops
        known = {"fig1": {0: 4, 1: 1}, "d1_self": {0: 1, 1: 1}}.get(name, {})
        for k in (0, 1):
            ops += CoversDynamics._self_map_ops(lib, name, h, k, ctx, known.get(k))
        return ops

    @staticmethod
    def _self_map_ops(lib, name, h, k, ctx, known_theta):
        pf = lib.pushforward
        n = len(h.b_marks)
        slot = {}

        def matrix():
            slot["mat"] = pf.self_correspondence_matrix(h, k)
            return slot["mat"]

        def check_matrix(mat):
            if k == 0 and mat != ((Fraction(ctx.get("count", -1), ctx.get("deg_nu", 1)),),):
                return "%s: k=0 matrix %r vs count %r" % (name, mat, ctx.get("count"))
            return None

        def check_degree(rep):
            if known_theta is not None and rep.exact != known_theta:
                return "%s: theta_%d = %r, want %d" % (name, k, rep.theta(), known_theta)
            return expect(rep.value >= 0, "%s: negative degree %r" % (name, rep))

        def check_blocks(rep):
            rank = len(slot["mat"])
            return expect(rep["lambda_dim"] + rep["omega_dim"] == rank,
                          "%s: blocks %d + %d != %d" % (name, rep["lambda_dim"], rep["omega_dim"], rank))

        return [
            Op("self_correspondence_matrix", matrix, check_matrix),
            Op("dynamical_degree", lambda: pf.dynamical_degree(slot["mat"]), check_degree),
            Op("filtration_blocks", lambda: pf.filtration_blocks(slot["mat"], n, k), check_blocks),
        ]


# -- queries-warm ---------------------------------------------------------------


class QueriesWarm(Workload):
    name = "queries-warm"
    nominal_batch_s = 2.8  # so a 20 s run makes seven batches, 3500 queries
    min_batches = 4  # at least 2000 queries in any run

    # Fixed shares in every batch of 500, so every seed puts the median among
    # class reductions and the 99th percentile among the slow `dyndeg --k 1`
    # calls (7 in 500, more than 1%).
    MIX = (
        ("reduce", 360), ("forget_reduce", 40), ("solve", 25),
        ("lambda_member", 30), ("stable_vertices", 30),
        ("cli_strata", 2), ("cli_basis", 2), ("cli_count", 2),
        ("cli_dyndeg_slow", 7), ("cli_dyndeg", 2),
    )
    max_n = 7  # queries touch the spaces with max_n - 1 and max_n marks

    def spaces(self):
        return [(n, k) for n in (self.max_n - 1, self.max_n) for k in (1, 2)]

    def setup(self, lib, seed):
        pres = {(n, k): lib.homology.homology_basis(n, k)
                for n in range(3, self.max_n + 1) for k in range(n - 2)}
        lambdas = {}
        for n, k in self.spaces():
            for lam in lib.filtration.partitions_of(k):
                if lib.filtration.realizable(n, k, lam):
                    lambdas[(n, k, lam)] = lib.filtration.lambda_subspace(n, k, lam)
        eps = {n: lib.hassett.epsilon_dagger(n) for n in (self.max_n - 1, self.max_n)}
        return {"pres": pres, "lambdas": lambdas, "eps": eps}

    def make_batch(self, lib, state, seed, index):
        rng = random.Random("queries-warm:%d:%d" % (seed, index))
        state.setdefault("fresh_lambdas", {})  # rebuilt levels that checks compare against
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        ops, inputs = [], []
        for kind in kinds:
            op, desc = getattr(self, "_" + kind)(lib, state, rng)
            ops.append(op)
            inputs.append([kind] + desc)
        return Batch(ops, inputs)

    @staticmethod
    def _pick(lib, state, rng, n, k):
        pres = state["pres"][(n, k)]
        i = rng.randrange(len(pres.strata))
        perm = random_perm(rng, n)
        return pres, relabel(lib, pres.strata[i], perm), [n, k, i, perm]

    def _reduce(self, lib, state, rng):
        n, k = rng.choice(self.spaces())
        pres = state["pres"][(n, k)]
        vec, desc = {}, [n, k]
        for _ in range(rng.randint(1, 6)):
            _p, t, d = self._pick(lib, state, rng, n, k)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            vec[t] = vec.get(t, 0) + c
            desc.append(d[2:] + [c])

        def check(coords):
            canon = {}
            for t, c in vec.items():
                tc = lib.trees.canonical_form(t)
                canon[tc] = canon.get(tc, 0) + c
            return expect(coords == lib.homology.class_reduce(pres, canon),
                          "relabelled reduce differs at (%d,%d)" % (n, k))

        return Op("reduce", lambda: lib.homology.class_reduce(pres, vec), check), desc

    def _forget_reduce(self, lib, state, rng):
        n, k = self.max_n, rng.choice((1, 2))
        _p, t, desc = self._pick(lib, state, rng, n, k)
        drop = rng.randint(1, n)
        keep = [m for m in range(1, n + 1) if m != drop]
        low = state["pres"][(n - 1, k)]

        def run():
            return lib.homology.class_reduce(low, lib.homology.forget_vec({t: 1}, keep))

        def check(coords):
            img = lib.homology.forget_vec({lib.trees.canonical_form(t): 1}, keep)
            return expect(coords == lib.homology.class_reduce(low, img),
                          "forget then reduce differs at k=%d" % k)

        return Op("forget_reduce", run, check), desc + [drop]

    def _solve(self, lib, state, rng):
        n = rng.choice((self.max_n - 1, self.max_n))
        pres = state["pres"][(n, 1)]
        j = rng.randrange(pres.rank)
        curve = pres.strata[pres.basis[j]]

        def run():
            pairings = {s: lib.homology.intersection_pairing_h2(curve, s)
                        for s in lib.trees.all_splits(n)}
            return lib.homology.solve_class_from_pairings(pres, pairings)

        return Op("solve", run, lambda coords: expect(
            coords == {j: 1}, "solving basis curve %d at n=%d gave %r" % (j, n, coords))), [n, j]

    def _lambda_member(self, lib, state, rng):
        n, k = rng.choice(self.spaces())
        lams = sorted(lam for (nn, kk, lam) in state["lambdas"] if (nn, kk) == (n, k))
        lam = rng.choice(lams)
        sub = state["lambdas"][(n, k, lam)]
        pres, t, desc = self._pick(lib, state, rng, n, k)

        def run():
            return sub.contains(lib.homology.class_reduce(pres, {t: 1}))

        def check(inside):
            if lib.filtration.partition_leq(lib.trees.induced_partition(t), lam):
                return expect(inside, "generator outside its level %r" % (lam,))
            key = (n, k, lam)
            if key not in state["fresh_lambdas"]:
                state["fresh_lambdas"][key] = lib.filtration.lambda_subspace(n, k, lam)
            fresh = state["fresh_lambdas"][key]
            return expect(inside == fresh.contains(pres.reduce_tree_dict({t: 1})),
                          "membership in level %r differs from a fresh build" % (lam,))

        return Op("lambda_member", run, check), desc + [list(lam)]

    def _stable_vertices(self, lib, state, rng):
        n = rng.choice((self.max_n - 1, self.max_n))
        _p, t, desc = self._pick(lib, state, rng, n, rng.randrange(n - 2))
        eps = state["eps"][n]
        return Op("stable_vertices", lambda: lib.hassett.stable_vertices(t, eps),
                  lambda sv: expect(len(sv) == 1, "%d stable vertices" % len(sv))), desc

    @staticmethod
    def _cli_op(lib, kind, argv, check):
        """`argv` names data files relative to the repository root."""
        full_argv = [os.path.join(ROOT, a) if a.startswith("data/") else a for a in argv]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.main(full_argv)
            return rc, buf.getvalue()

        def check_all(result):
            rc, out = result
            if rc != 0:
                return "stratadyn %s exited %d: %s" % (" ".join(argv), rc, out.strip())
            return check(json.loads(out))

        return Op(kind, run, check_all), argv

    def _cli_strata(self, lib, state, rng):
        n = rng.choice((5, 6))
        k = rng.randrange(n - 2)
        want = STRATA_COUNTS[(n, k)]
        return self._cli_op(lib, "cli_strata", ["strata", "--n", str(n), "--k", str(k)],
                            lambda obj: expect(obj["count"] == want, "strata count %r" % obj["count"]))

    def _cli_basis(self, lib, state, rng):
        n = rng.choice((5, 6))
        k = rng.randrange(n - 2)
        want = expected_rank(n, k)
        return self._cli_op(lib, "cli_basis", ["homology", "basis", "--n", str(n), "--k", str(k)],
                            lambda obj: expect(obj["rank"] == want, "basis rank %r" % obj["rank"]))

    def _cli_count(self, lib, state, rng):
        name = rng.choice(DATA_FILES)
        want = {"fig1": {"deg_nu": 1, "deg_pi_B": 4}, "d2": {"deg_nu": 2, "deg_pi_B": 1},
                "d1_self": {"deg_nu": 1, "deg_pi_B": 1}}[name]
        return self._cli_op(lib, "cli_count", ["hurwitz", "count", "--data", "data/%s.json" % name],
                            lambda obj: expect(obj == want, "%s count %r" % (name, obj)))

    def _dyndeg(self, lib, kind, name, k):
        want = {("fig1", 0): 4, ("fig1", 1): 1}.get((name, k), 1)
        return self._cli_op(lib, kind, ["dyndeg", "--data", "data/%s.json" % name, "--k", str(k)],
                            lambda obj: expect(obj == {"method": "exact_roots", "theta": want},
                                               "%s dyndeg k=%d: %r" % (name, k, obj)))

    def _cli_dyndeg_slow(self, lib, state, rng):
        return self._dyndeg(lib, "cli_dyndeg_slow", "fig1", 1)

    def _cli_dyndeg(self, lib, state, rng):
        name, k = rng.choice((("fig1", 0), ("d1_self", 0), ("d1_self", 1)))
        return self._dyndeg(lib, "cli_dyndeg", name, k)


WORKLOADS = {w.name: w for w in (BuildCold(), CoversDynamics(), QueriesWarm())}
