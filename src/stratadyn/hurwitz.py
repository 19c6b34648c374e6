"""Hurwitz data and admissible covers over stratum trees.

A Hurwitz datum records a branched-cover setup: source marks A over target
marks B (via F), a degree d, a branching partition br(b) of d over each
target mark, and local ramification rm(a) for each source mark.  Covers of a
nodal target (a stratum tree of the B-mark space) are encoded by monodromy:
one permutation of the d sheets per target-vertex flag, multiplying to the
identity in flag order, with leg permutations of cycle type br(b); marks
label cycles of matching length, and the fibers over each target edge are
glued by a length-preserving bijection of cycles.  Two covers are the same
labeled cover when per-vertex sheet relabelings carry one to the other, and
only connected covers whose component graph is a tree (genus zero) count.

A class is glued from its least candidate only: the least encoding
(conjugated flag permutations, then relabeled mark cycles, then relabeled
edge matchings) over all (d!)^|V| per-vertex relabelings.  A relabeling of
one vertex's sheets conjugates only that vertex's flag-permutation tuple,
so only tuples that are their own least simultaneous conjugate are kept,
each with its centraliser; such a tuple starts with the least permutation
of its class, so only those tuples are built, and each is scanned over
that permutation's centraliser.  Each mark's cycle likewise depends on one
vertex's relabeling, so the least labeling is the per-vertex least one: at
each vertex only the labelings least in their centraliser orbit are kept,
each with its stabiliser.  The edge matchings, which couple two vertices,
are then searched over the product of the stabilisers only, and not at all
when every stabiliser is trivial, so no class is met twice.  This is the
gluing of per-vertex orbit representatives along the edges used in
tropical Hurwitz counting (Cavalieri-Johnson-Markwig, arXiv 0804.0579).

A candidate's source graph (one component per orbit at each target vertex,
one edge per matched cycle pair) is walked once, by `_tree_walk`: with one
edge fewer than components, it is a tree when the walk reaches every
component.  When a class is glued, `_node_sides` ORs the marks up that walk
and gives each of its nodes the split of the marks (as a_marks positions)
on its far side, its ramification r and the split of the target edge it
lies over, as `trees.split_of` masks; the class keeps these nodes, sorted,
and nothing else of its components, so they do not depend on how tau's
vertices are numbered.  Classes with the same nodes are counted as one
(nodes, count) pair as they are glued.  `enumerate_cover_types` builds
the canonical tree cut by the node splits with `trees.tree_from_splits`,
once per cover type (Keel, Trans. AMS 330, 1992: a stratum is fixed by its
splits), for the degeneration report; the pushforward reads the pairs
alone, over one-edge targets.

The classes over a target tree are kept once per process in `_CLASSES`,
keyed by the tree and the six fields the enumeration reads (a_marks,
b_marks, d, f_map, br, rm), through the same `trees.Budget.replay` that
keeps strata and presentations: the classes are built on the first call
only, and a later call ticks the tuple budget the first one used.  The
covers depend on the Hurwitz space alone, so the self-maps of one datum,
which differ only in forget_to and identify, share them.  A datum is a
read-only value that keeps its cover value, and fully_mark's result, on
itself: `fully_mark` validates its input once and hands back one marked
datum that carries its cover value from the start, and any other datum is
validated once, on its first enumeration, so one that is not fully marked
raises every time.  Counts, the degeneration check and the pushforward
all read the one kept tuple of pairs.  The cover types over a target are
kept the same way, beside its classes, in `_TYPES`.  A test that counts
work done inside the enumeration must clear `_CLASSES` and `_TYPES`
itself.

The classes are enumerated once per orbit of targets under the datum's
mark symmetries.  Each target mark is coloured by its branching and the
sorted ramifications over it (`_colours`); a permutation pi_B of the
target marks that keeps colours, with the pi_A that carries each fibre
onto the image fibre in (ramification, a_marks position) order, keeps F,
br and rm, so it carries the classes over a tree one to one onto those
over its image, each node (side, r, e) to (pi_A side, r, pi_B e).  On a
miss the tree is validated (`trees._validate`) and relabelled to one
canonical tree of its orbit (`trees._orbit_representative`, from that
pass), no search over the group made.  A tree that is its own
representative is enumerated from the same pass, so it is walked once.
Any other's representative pairs are enumerated, or replayed when kept,
relabelled and kept under the tree too, with the representative's
ticks.  That is what a direct enumeration over the tree ticks on the data
the tests pin, though the flag order can move a few ticks either way (f^2
of the period-5 portrait: two of its 25 one-edge targets, by about 1%).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import index
from types import MappingProxyType

from . import trees


class HurwitzData:
    """A branched-cover datum, read-only.

    a_marks, b_marks: tuples of distinct string labels.
    d: covering degree.
    f_map: {a: b} target of each source mark.
    br: {b: ascending partition of d}; missing entries mean unbranched.
    rm: {a: ramification index}.
    forget_to: optional tuple of retained source marks.
    identify: optional {b: a} bijection onto the retained marks, for
        composing the correspondence with itself.

    The mappings are read-only views (types.MappingProxyType).  d, the br
    parts and the rm values are read as ints by operator.index, so a float
    or a string raises TypeError instead of being truncated.  Two slots are
    filled on first need: `_cover`, the datum's cover value once it is
    known to be fully marked (_cover_value), and `_marked`, fully_mark's
    (datum, degree).
    """

    __slots__ = ("a_marks", "b_marks", "d", "f_map", "br", "rm", "forget_to", "identify",
                 "_cover", "_marked")

    def __init__(self, a_marks, b_marks, d, f_map, br, rm, forget_to=None, identify=None):
        self.a_marks = tuple(str(a) for a in a_marks)
        self.b_marks = tuple(str(b) for b in b_marks)
        self.d = index(d)
        self.f_map = MappingProxyType({str(a): str(b) for a, b in f_map.items()})
        self.br = MappingProxyType({str(b): tuple(sorted(map(index, parts))) for b, parts in br.items()})
        self.rm = MappingProxyType({str(a): index(r) for a, r in rm.items()})
        self.forget_to = None if forget_to is None else tuple(str(a) for a in forget_to)
        self.identify = None if identify is None else MappingProxyType(
            {str(b): str(a) for b, a in identify.items()})
        self._cover = self._marked = None

    def branching(self, b):
        return self.br.get(b, tuple([1] * self.d))

    def marks_over(self, b):
        return [a for a in self.a_marks if self.f_map[a] == b]

    def to_json_dict(self):
        out = {
            "A": list(self.a_marks),
            "B": list(self.b_marks),
            "d": self.d,
            "F": dict(self.f_map),
            "br": {b: list(p) for b, p in self.br.items()},
            "rm": dict(self.rm),
        }
        if self.forget_to is not None:
            out["forget_to"] = list(self.forget_to)
        if self.identify is not None:
            out["identify"] = dict(self.identify)
        return out

    @staticmethod
    def from_json_dict(dd):
        """Decode to_json_dict's encoding.  Raises ValueError naming the
        first of A, B, d, F and rm that is missing, and unless F, br, rm and
        identify are objects (identify may be null), A, B, forget_to (unless
        null) and each br entry arrays, and d, the br parts and the rm values
        JSON integers."""
        if not isinstance(dd, dict):
            raise ValueError("a datum must be an object")
        for name in ("A", "B", "d", "F", "rm"):
            if name not in dd:
                raise ValueError("a datum needs the field %s" % name)
        for name in ("F", "br", "rm", "identify"):
            value = dd.get(name, {})
            if not isinstance(value, dict) and not (name == "identify" and value is None):
                raise ValueError("%s must be an object keyed by mark" % name)
        forget_to = dd.get("forget_to")
        br = dd.get("br", {})
        return HurwitzData(
            trees._json_array(dd["A"], "A"),
            trees._json_array(dd["B"], "B"),
            trees._json_int(dd["d"], "d"),
            dd["F"],
            {b: [trees._json_int(x, "a part of br[%s]" % b)
                 for x in trees._json_array(parts, "br[%s]" % b)] for b, parts in br.items()},
            {a: trees._json_int(r, "rm[%s]" % a) for a, r in dd["rm"].items()},
            None if forget_to is None else trees._json_array(forget_to, "forget_to"),
            dd.get("identify"),
        )


class ValidationResult:
    __slots__ = ("status", "reason")

    def __init__(self, status, reason=None):
        self.status = status
        self.reason = reason

    @property
    def ok(self):
        return self.status != "invalid"

    def __repr__(self):
        if self.reason:
            return "ValidationResult(%r, %r)" % (self.status, self.reason)
        return "ValidationResult(%r)" % self.status


def validate(h):
    """Check the two cover conditions; classify plain vs fully marked.

    Condition 1: the total branching sum_b (d - #parts(br(b))) equals 2d-2,
    so a connected cover has genus zero.  Condition 2: over each target mark
    the source-mark ramifications form a submultiset of the branching; with
    equality everywhere the datum is fully marked.
    """
    if len(set(h.a_marks)) != len(h.a_marks):
        return ValidationResult("invalid", "duplicate source marks")
    if len(set(h.b_marks)) != len(h.b_marks):
        return ValidationResult("invalid", "duplicate target marks")
    if set(h.a_marks) & set(h.b_marks):
        return ValidationResult("invalid", "source and target marks must be disjoint")
    if h.d < 1:
        return ValidationResult("invalid", "degree must be positive")
    if len(h.b_marks) < 3:
        return ValidationResult("invalid", "need at least 3 target marks")
    if set(h.f_map) != set(h.a_marks):
        return ValidationResult("invalid", "F must be defined exactly on the source marks")
    for a, b in h.f_map.items():
        if b not in h.b_marks:
            return ValidationResult("invalid", "F(%s)=%s is not a target mark" % (a, b))
    for b in h.br:
        if b not in h.b_marks:
            return ValidationResult("invalid", "branching over unknown mark %s" % b)
    for b in h.b_marks:
        parts = h.branching(b)
        if sum(parts) != h.d or any(p < 1 for p in parts):
            return ValidationResult("invalid", "br(%s)=%r is not a partition of %d" % (b, parts, h.d))
    if set(h.rm) != set(h.a_marks):
        return ValidationResult("invalid", "rm must be defined exactly on the source marks")
    total = sum(h.d - len(h.branching(b)) for b in h.b_marks)
    if total != 2 * h.d - 2:
        return ValidationResult(
            "invalid", "total branching %d != 2d-2 = %d" % (total, 2 * h.d - 2)
        )
    fully = True
    over = _ramifications(h)
    for b in h.b_marks:
        want = h.branching(b)
        missing = _missing_parts(over[b], want)
        if missing is None:
            return ValidationResult(
                "invalid", "marks over %s exceed its branching: %r vs %r"
                % (b, dict(Counter(over[b])), dict(Counter(want)))
            )
        if missing:
            fully = False
    if h.forget_to is not None:
        if len(set(h.forget_to)) != len(h.forget_to) or not set(h.forget_to) <= set(h.a_marks):
            return ValidationResult("invalid", "forget_to must be distinct source marks")
    if h.identify is not None:
        kept = set(h.forget_to) if h.forget_to is not None else set(h.a_marks)
        if set(h.identify) != set(h.b_marks):
            return ValidationResult("invalid", "identify must be defined exactly on the target marks")
        vals = list(h.identify.values())
        if len(set(vals)) != len(vals) or not set(vals) <= kept:
            return ValidationResult("invalid", "identify must be a bijection onto the retained marks")
        if len(vals) != len(kept):
            return ValidationResult("invalid", "identify must cover all retained marks")
    return ValidationResult("fully_marked" if fully else "plain")


def fully_mark(h):
    """Label every unmarked branch point; returns (datum, relabeling degree).

    Over each target mark the missing parts of br(b) get fresh marks named
    a(b,r), primed on repetition; the degree of the labeling cover is the
    product over (b, r) of (number of added marks with that pair)!.

    The first call validates h, builds the marked datum and keeps the pair
    on h, and every later call returns that same pair.  The marked datum
    carries its cover value from the start (_cover_value): it is fully
    marked by construction, since h is valid and exactly the missing parts
    of each br(b) are marked.  A call that raises keeps nothing.
    """
    if h._marked is not None:
        return h._marked
    res = validate(h)
    if not res.ok:
        raise ValueError("invalid correspondence datum: %s" % res.reason)
    new_a = list(h.a_marks)
    f_map = dict(h.f_map)
    rm = dict(h.rm)
    deg = 1
    over = _ramifications(h)
    for b in h.b_marks:
        missing = _missing_parts(over[b], h.branching(b))
        for r, group in itertools.groupby(missing):
            count = len(list(group))
            for j in range(count):
                name = "a(%s,%d)" % (b, r) + "'" * j
                if name in new_a or name in h.b_marks:
                    raise ValueError("generated mark name %s collides" % name)
                new_a.append(name)
                f_map[name] = b
                rm[name] = r
            deg *= factorial(count)
    forget = h.forget_to if h.forget_to is not None else tuple(h.a_marks)
    full = HurwitzData(new_a, h.b_marks, h.d, f_map, h.br, rm, forget, h.identify)
    full._cover = _cover_fields(full)
    h._marked = full, deg
    return h._marked


def _ramifications(h):
    """{target mark: the ramifications of the source marks over it, in
    a_marks order}, gathered in one pass over the source marks."""
    over = {b: [] for b in h.b_marks}
    for a in h.a_marks:
        over[h.f_map[a]].append(h.rm[a])
    return over


def _missing_parts(have, want):
    """The parts of the ascending partition `want` that the ramifications
    `have` leave unmatched, ascending, or None when `have` is not a
    submultiset of `want`.  Both are walked as sorted lists: a ramification
    below the next unmatched part matches no later part."""
    have = sorted(have)
    missing = []
    i = 0
    for part in want:
        if i < len(have) and have[i] == part:
            i += 1
        else:
            missing.append(part)
    return missing if i == len(have) else None


# -- permutations ------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_pool(d):
    """(all permutations of range(d), {cycle type: tuple of perms}), both in
    lexicographic order."""
    all_p = tuple(itertools.permutations(range(d)))
    by_type = {}
    for p in all_p:
        by_type.setdefault(_cycle_type(p), []).append(p)
    return all_p, {t: tuple(v) for t, v in by_type.items()}


def _class_size(d, ctype):
    """The number of permutations of range(d) with cycle type ctype:
    d!/z, z = prod over lengths i of i^m * m! (m cycles of length i)."""
    return factorial(d) // prod(i ** m * factorial(m) for i, m in Counter(ctype).items())


@lru_cache(maxsize=None)
def _centraliser(g):
    """The permutations commuting with g, in lexicographic order (the
    identity first), built from g's cycles: each maps every cycle onto a
    cycle of the same length, rotated.  Kept per g; the callers pass only
    the least permutation of each cycle type, so once per (d, cycle type)."""
    by_len = {}
    for cyc in _cycles(g):
        by_len.setdefault(len(cyc), []).append(cyc)
    per_len = [
        [
            [(x, onto[(t + shift) % ln]) for cyc, onto, shift in zip(cycs, targets, shifts)
             for t, x in enumerate(cyc)]
            for targets in itertools.permutations(cycs)
            for shifts in itertools.product(range(ln), repeat=len(cycs))
        ]
        for ln, cycs in by_len.items()
    ]
    out = []
    for combo in itertools.product(*per_len):
        hh = [0] * len(g)
        for chunk in combo:
            for x, y in chunk:
                hh[x] = y
        out.append(tuple(hh))
    return tuple(sorted(out))


def _cycles(p):
    """The cycles of p, each starting at its least sheet, in the order of
    those sheets: the scan meets each cycle first at its minimum."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def _cycle_type(p):
    return tuple(sorted(len(c) for c in _cycles(p)))


def _compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _conj(hh, g):
    """h g h^-1 as a sheet relabeling of g."""
    hinv = _inverse(hh)
    return tuple(hh[g[hinv[i]]] for i in range(len(g)))


def _cycle_image(hh, cyc):
    """The cycle relabeled by h, in canonical min-first rotation."""
    img = [hh[x] for x in cyc]
    k = img.index(min(img))
    return tuple(img[k:] + img[:k])


class _CycleImages(dict):
    """cycle -> its image under one relabeling hh (_cycle_image), each
    computed on its first read."""

    __slots__ = ("hh",)

    def __init__(self, hh):
        super().__init__()
        self.hh = hh

    def __missing__(self, cyc):
        img = self[cyc] = _cycle_image(self.hh, cyc)
        return img


# -- labeled covers over a stratum tree --------------------------------------


def _leg_mark(h, f):
    """The target mark of the flag with mark bitmask f when it is a leg (one
    bit), None for an edge (both sides of a split hold at least two marks)."""
    return None if f & f - 1 else h.b_marks[f.bit_length() - 2]


def _combinations(h, flags):
    """The number of flag-permutation combinations at a target vertex with
    flag masks `flags`: one permutation per flag but the last, of its
    branching cycle type on a leg and any on an edge.  Counted from class
    sizes, so no permutation is listed."""
    d = h.d
    count = 1
    for f in flags[:-1]:
        b = _leg_mark(h, f)
        count *= factorial(d) if b is None else _class_size(d, h.branching(b))
    return count


def _completions(h, flags, opts, first):
    """The tuples (first, *combo, last) over every combo in the product of
    opts, the options of flags[1:-1], whose product in flag order is the
    identity and whose last permutation has its flag's cycle type."""
    b = _leg_mark(h, flags[-1])
    out = []
    for combo in itertools.product(*opts):
        prod = first
        for g in combo:
            prod = _compose(prod, g)
        last = _inverse(prod)
        if b is not None and _cycle_type(last) != h.branching(b):
            continue
        out.append((first, *combo, last))
    return out


def _flag_options(h, flags):
    """Each flag's permutations: its branching class on a leg, all of S_d
    on an edge, in lexicographic order."""
    all_p, by_type = _perm_pool(h.d)
    return [all_p if b is None else by_type[h.branching(b)]
            for b in (_leg_mark(h, f) for f in flags)]


def _local_assignments(h, flags, limit):
    """All flag-permutation tuples at a target vertex with flag masks `flags`
    (MarkedTree.flag_masks): product in flag order is the identity, leg flags
    carry their branching cycle type.  Ticks once per combination tried
    (_combinations), all before any permutation is listed."""
    limit.tick(_combinations(h, flags))
    opts = _flag_options(h, flags[:-1])
    return [perms for first in opts[0] for perms in _completions(h, flags, opts[1:], first)]


def _least_tuples(h, flags, limit):
    """The flag-permutation tuples at a target vertex (_local_assignments)
    that are their own least simultaneous conjugate, each with its
    centraliser in lexicographic order, the identity first; in the order
    _local_assignments lists them.

    A tuple's least conjugate starts with the least permutation L of its
    first permutation's class, and the relabelings reaching L are C(L), the
    centraliser of L.  So a kept tuple starts with L, and its least conjugate
    and centraliser come from a scan of C(L) (_centraliser) alone: the
    tuple is kept when no element of C(L) makes it smaller, and its
    centraliser is the elements of C(L) that fix it.  Only the tuples
    starting with some L are built.

    Conjugating a whole tuple carries the tuples starting with g one to one
    onto those starting with any conjugate of g, so a scan of every tuple
    over all of S_d would meet |class(L)| tuples for each one built here.
    Each built tuple ticks what those scans would: d! * |class(L)|.  The
    budget so counts more than is done, and still bounds it."""
    d = h.d
    _all_p, by_type = _perm_pool(d)
    opts = _flag_options(h, flags[1:-1])
    b = _leg_mark(h, flags[0])
    types = by_type if b is None else [h.branching(b)]
    out = []
    for least, ctype in sorted((by_type[t][0], t) for t in types):
        centraliser = _centraliser(least)
        scans = factorial(d) * _class_size(d, ctype)
        for perms in _completions(h, flags, opts, least):
            limit.tick(scans)
            coset = _centraliser_if_least(perms, centraliser)
            if coset is not None:
                out.append((perms, coset))
    return out


def _centraliser_if_least(perms, centraliser):
    """The elements of `centraliser` (that of perms[0], the identity first)
    fixing every permutation of perms, or None when one of them conjugates
    the tuple to a smaller one.  Each relabeling is compared permutation by
    permutation, and the first one it moves decides it."""
    coset = [centraliser[0]]
    rest = perms[1:]
    for hh in centraliser[1:]:
        for g in rest:
            img = _conj(hh, g)
            if img != g:
                if img < g:
                    return None
                break
        else:
            coset.append(hh)
    return coset


def _bijections(xs, x_len, ys, limit):
    """Every bijection from xs onto the sequences ys that keeps lengths
    (x_len(x) == len(y)), as a list of (x, y) pairs: lengths ascending, xs
    in their given order within a length, the ys of one length running
    through their permutations.  Ticks once per bijection; [] when the length
    profiles differ."""
    by_len_x = {}
    for x in xs:
        by_len_x.setdefault(x_len(x), []).append(x)
    by_len_y = {}
    for y in ys:
        by_len_y.setdefault(len(y), []).append(y)
    if {l: len(v) for l, v in by_len_x.items()} != {l: len(v) for l, v in by_len_y.items()}:
        return []
    per_len = [
        [list(zip(by_len_x[ln], perm)) for perm in itertools.permutations(by_len_y[ln])]
        for ln in sorted(by_len_x)
    ]
    out = []
    for combo in itertools.product(*per_len):
        limit.tick()
        out.append([pair for chunk in combo for pair in chunk])
    return out


def _vertex_labelings(h, flags, perms, limit):
    """All ways to attach the marks over a vertex's legs (its flag masks
    `flags`) to cycles of the leg permutations, length-preserving and
    bijective per length."""
    per_flag = []
    for pos, f in enumerate(flags):
        b = _leg_mark(h, f)
        if b is None:
            continue
        marks = h.marks_over(b)
        bijections = _bijections(marks, h.rm.__getitem__, _cycles(perms[pos]), limit)
        if not bijections:
            return []
        per_flag.append([{a: (pos, c) for a, c in pairs} for pairs in bijections])
    out = []
    for combo in itertools.product(*per_flag):
        merged = {}
        for assign in combo:
            merged.update(assign)
        out.append(merged)
    return out


def _edge_matchings(gc, gp, limit):
    """Length-preserving bijections between the cycles of two permutations."""
    return [tuple(sorted(pairs)) for pairs in _bijections(_cycles(gc), len, _cycles(gp), limit)]


def _orbits(perms, d):
    """(the orbit of each sheet, the number of orbits) of the group the
    permutations generate, orbits numbered by their least sheets."""
    at = [-1] * d
    count = 0
    for s in range(d):
        if at[s] < 0:
            at[s] = count
            reached = [s]
            for x in reached:
                for g in perms:
                    y = g[x]
                    if at[y] < 0:
                        at[y] = count
                        reached.append(y)
            count += 1
    return at, count


def _tree_walk(num, edges):
    """(up, order) of a walk from vertex 0 over the graph on range(num) with
    the (i, j, r, e) edges when the graph is a tree, None otherwise: up[x] is
    the vertex x was reached from (-1 for vertex 0), and order lists the
    vertices as reached.  With num - 1 edges the graph is a tree exactly when
    the walk reaches every vertex, so a cycle needs no test of its own."""
    if len(edges) != num - 1:
        return None
    adj = [[] for _ in range(num)]
    for i, j, _r, _e in edges:
        adj[i].append(j)
        adj[j].append(i)
    up = [None] * num
    up[0] = -1
    order = [0]
    for x in order:
        for y in adj[x]:
            if up[y] is None:
                up[y] = x
                order.append(y)
    return (up, order) if len(order) == num else None


def _least_labelings(h, flags, perms, centraliser, limit):
    """The labelings at a vertex with flag masks `flags` (_vertex_labelings)
    least in their orbit under the centraliser of its tuple, each as
    (labeling, its stabiliser there), the stabiliser as one _CycleImages
    table per element, in the same order."""
    legs = {_leg_mark(h, f) for f in flags}
    order = [a for a in h.a_marks if h.f_map[a] in legs]
    out = []
    for labeling in _vertex_labelings(h, flags, perms, limit):
        stabiliser = _stabiliser_if_least([labeling[a][1] for a in order], centraliser, limit)
        if stabiliser is not None:
            out.append((labeling, [_CycleImages(hh) for hh in stabiliser]))
    return out


def _stabiliser_if_least(cycles, coset, limit):
    """The relabelings in coset fixing every cycle, or None when one of them
    maps the sequence of cycles to a smaller one.

    In turn each cycle narrows the coset to the relabelings reaching its
    least image; the sequence is least when every cycle is already that
    image, and is rejected at the first cycle a relabeling makes smaller.
    The coset's first element is the identity, which maps each cycle to
    itself and is never evaluated.
    """
    for cyc in cycles:
        narrowed = coset[:1]
        for hh in coset[1:]:
            limit.tick()
            img = _cycle_image(hh, cyc)
            if img < cyc:
                return None
            if img == cyc:
                narrowed.append(hh)
        coset = narrowed
    return coset


def _least_matchings(matchings, edge_list, stabilisers, limit):
    """Whether no relabeling in the product of the stabilisers makes the
    edge matchings smaller.  Each stabiliser is a list of _CycleImages
    tables, one per element, so a cycle's image under an element is
    computed once for every matching and labeling combination that reads
    it.  The product's first element is the identity, which is skipped;
    with every stabiliser trivial, or no edge, nothing is evaluated.  Each
    relabeling is encoded edge by edge, and the first edge whose image
    differs decides it: smaller rejects the matchings, larger moves on to
    the next relabeling."""
    if not matchings:
        return True
    relabelings = itertools.product(*stabilisers)
    next(relabelings)
    for rls in relabelings:
        limit.tick()
        for (c, p), pairs in zip(edge_list, matchings):
            at_c, at_p = rls[c], rls[p]
            enc = tuple(sorted((at_c[x], at_p[y]) for x, y in pairs))
            if enc != pairs:
                if enc < pairs:
                    return False
                break
    return True


# (cover value, tau) -> ((nodes, count) per distinct node tuple, ticks), kept
# once per process
_CLASSES = {}
# (cover value, tau) -> (the sorted CoverType tuple over tau, ticks), kept
# beside the classes; cleared wherever _CLASSES is
_TYPES = {}


def _cover_value(h):
    """The fields the enumeration reads (a_marks, b_marks, d, f_map, br,
    rm) as one hashable value, shared by data that differ only in forget_to
    or identify.

    The value is kept on the datum.  A datum fully_mark built carries it
    from the start; any other is validated on its first call, and kept
    only when fully marked, so one that is not raises ValueError on every
    call, whatever its siblings."""
    if h._cover is None:
        res = validate(h)
        if res.status != "fully_marked":
            raise ValueError("cover enumeration requires a fully marked datum (%s)" % res.status)
        h._cover = _cover_fields(h)
    return h._cover


def _cover_fields(h):
    """_cover_value's value, with the mappings as sorted item tuples."""
    return (h.a_marks, h.b_marks, h.d, tuple(sorted(h.f_map.items())),
            tuple(sorted(h.br.items())), tuple(sorted(h.rm.items())))


def _tuple_budget(limit_tuples):
    return trees.Budget(limit_tuples, "cover enumeration exceeded %s tuples" % limit_tuples)


def enumerate_cover_classes(h, tau, limit_tuples=None):
    """The labeled-cover classes of the datum over the target tree tau,
    grouped by their nodes.

    Requires a fully marked datum; tau is a stratum tree on |B| marks, mark i
    standing for b_marks[i-1].  Returns a tuple of (nodes, count) pairs
    sorted by nodes, one per distinct node tuple, count the number of
    classes with those nodes.  nodes lists each source node as (split mask
    over a_marks positions, r, split mask of the target edge it lies over),
    sorted (_node_sides).

    The result is kept per (cover value, tau): data that differ only in
    forget_to or identify share it.  Every call returns the kept tuple.
    The datum is checked once per object (_cover_value), and tau on each
    miss, before any cover work; a malformed tree raises the
    validating pass's ValueError and keeps nothing.  On a miss the classes
    are those over tau's orbit representative under the colour-keeping
    relabellings of the target marks (_orbit_classes), enumerated under the
    caller's `limit_tuples` or replayed when kept, then relabelled; both
    the representative and tau are kept, tau with the representative's
    ticks.  A call that raises keeps no classes, and a hit ticks what the
    miss ticked, so the cap behaves as if nothing were cached.  See
    _enumerate_cover_classes.
    """
    return _classes(h, _cover_value(h), tau, _tuple_budget(limit_tuples))


def _classes(h, cover, tau, limit):
    """The kept pairs of enumerate_cover_classes over tau, enumerated or
    replayed under the caller's budget `limit`."""
    return limit.replay(_CLASSES, (cover, tau), _orbit_classes, h, cover, tau)


def _orbit_classes(h, cover, tau, limit):
    """The pairs of enumerate_cover_classes over tau, read off its orbit
    representative's (see the module docstring): tau is validated first,
    and when it is its own representative its pairs are enumerated from
    that pass's masks; otherwise the representative's pairs, kept under
    (cover, representative), are enumerated or replayed under `limit` and
    relabelled, each node (side, r, e) to (pi_A side, r, pi_B e)."""
    if tau.n != len(h.b_marks):
        raise ValueError("target tree has %d marks, datum has %d" % (tau.n, len(h.b_marks)))
    masks, order = trees._validate(tau)
    rep, to_rep = trees._orbit_representative(tau, _colours(h), masks, order)
    if rep == tau:
        return _enumerate_cover_classes(h, tau, limit, masks)
    pairs = limit.replay(_CLASSES, (cover, rep), _enumerate_cover_classes, h, rep)
    # pi_B and pi_A as tables from the representative's marks and positions
    b_to = {}
    a_to = {}
    fibres = _fibres(h)
    for mark, image in enumerate(to_rep, start=1):
        b_to[image] = mark
        for x, y in zip(fibres[image - 1], fibres[mark - 1]):
            a_to[x] = y
    sides = _Relabelled(a_to)
    edges = _Relabelled(b_to)
    return tuple(sorted(
        (tuple(sorted((sides[side], r, edges[e]) for side, r, e in nodes)), count)
        for nodes, count in pairs
    ))


def _colours(h):
    """Each target mark's colour: its branching and the sorted
    ramifications of the source marks over it."""
    over = _ramifications(h)
    return [(h.branching(b), tuple(sorted(over[b]))) for b in h.b_marks]


def _fibres(h):
    """The a_marks positions (from 1) over each target mark, in
    (ramification, position) order."""
    fibres = {b: [] for b in h.b_marks}
    for pos, a in enumerate(h.a_marks, start=1):
        fibres[h.f_map[a]].append((h.rm[a], pos))
    return [[pos for _r, pos in sorted(fibres[b])] for b in h.b_marks]


class _Relabelled(dict):
    """split -> the split its marks cut once mark m is renamed to[m], a
    bijection of all the marks (trees.project_split), each computed on its
    first read."""

    __slots__ = ("to",)

    def __init__(self, to):
        super().__init__()
        self.to = to

    def __missing__(self, split):
        image = self[split] = trees.project_split(split, self.to)
        return image


def _enumerate_cover_classes(h, tau, limit, masks=None):
    """The (nodes, count) pairs of enumerate_cover_classes, counted as each
    class is glued.

    A class is glued from its least candidate only: the least encoding
    (per target vertex its flag-permutation tuple, each mark's flag
    position and cycle, per target edge its sorted (child cycle, parent
    cycle) matchings) over every per-vertex sheet relabeling.  Only the
    local tuples equal to their least conjugate are kept, each with its
    centraliser (_least_tuples).  Per kept tuple, only the labelings least
    in their centraliser orbit are kept, each with its stabiliser
    (_least_labelings).  Over a product of these, a matching is kept only
    when no relabeling in the product of the stabilisers makes it smaller
    (_least_matchings).  Mark entries and vertex tuples each depend on one
    vertex's relabeling, so the least encoding is the per-vertex least one:
    each class is glued exactly once, as by the full search.

    Each target vertex's flag list is read from one walk of tau
    (trees._validate, or the subtree `masks` of a caller's walk) and passed
    to the per-vertex helpers (_least_tuples, _least_labelings), and each
    target edge's split is read from the same walk.  Each candidate's
    source graph is walked once (_tree_walk): the edge count and the walk
    are the tree test, made before the matching search, and a kept class's
    nodes are read along the same walk (_node_sides).

    The budget ticks once per flag-permutation combination at a vertex,
    all of them before any permutation is listed (_combinations), per glued
    candidate, per mark labeling and per edge matching built or tried, d!
    per local tuple for the conjugacy scan, and once per non-identity
    relabeling evaluated in the labeling-orbit and stabiliser searches.
    The combinations and scans are those of a search over every local tuple
    and all of S_d, though only the tuples starting with a least
    permutation are built and scanned, over its centraliser (_least_tuples):
    the budget counts more than is done, and so still bounds it.

    The datum is fully marked (_cover_value has validated it), tau is a
    valid tree on its target marks (_orbit_classes has checked it), and
    only the datum's cover fields are read.
    """
    d = h.d
    num_w = len(tau.parents)
    if masks is None:
        masks, _ = trees._validate(tau)
    flag_lists = [tau.flag_masks(w, masks) for w in range(num_w)]
    for flags in flag_lists:
        limit.tick(_combinations(h, flags))
    # keep each vertex's tuples that are their own least conjugate, with the
    # centraliser
    locals_per_w = []
    centraliser = {}
    for flags in flag_lists:
        kept = _least_tuples(h, flags, limit)
        centraliser.update(kept)
        locals_per_w.append([perms for perms, _coset in kept])
    n = len(h.a_marks)
    b_index = {b: i for i, b in enumerate(h.b_marks)}
    mark_vertex = [tau.legs[b_index[h.f_map[a]]] for a in h.a_marks]

    # target edges with their flag positions on each side (the child sees
    # every mark outside its subtree, the parent the child's subtree) and
    # their splits
    everything = (1 << tau.n + 1) - 2
    edge_list = tau.edges()
    edge_pos = [
        (flag_lists[c].index(everything ^ masks[c]), flag_lists[p].index(masks[c]))
        for c, p in edge_list
    ]
    edge_split = [trees.split_of(tau.n, masks[c]) for c, _p in edge_list]

    counts = Counter()
    labelings = {}  # (vertex, its tuple) -> (_least_labelings, ticks)
    matchings_of = {}  # (child, parent) edge permutations -> (_edge_matchings, ticks)

    for vertex_perms in itertools.product(*locals_per_w):
        limit.tick()
        ok = True
        for (c, p), (posc, posp) in zip(edge_list, edge_pos):
            if _cycle_type(vertex_perms[c][posc]) != _cycle_type(vertex_perms[p][posp]):
                ok = False
                break
        if not ok:
            continue
        labeling_sets = [
            limit.replay(labelings, (w, perms), _least_labelings,
                         h, flag_lists[w], perms, centraliser[perms])
            for w, perms in enumerate(vertex_perms)
        ]
        if any(not ls for ls in labeling_sets):
            continue
        matching_sets = []
        for (c, p), (posc, posp) in zip(edge_list, edge_pos):
            gc, gp = vertex_perms[c][posc], vertex_perms[p][posp]
            matching_sets.append(limit.replay(matchings_of, (gc, gp), _edge_matchings, gc, gp))
        if any(not ms for ms in matching_sets):
            continue

        # source components, one per orbit at each vertex, and the
        # component of each sheet
        num_comps = 0
        comp_at = []
        for perms in vertex_perms:
            at, count = _orbits(perms, d)
            comp_at.append([num_comps + i for i in at])
            num_comps += count

        for labeling_combo in itertools.product(*labeling_sets):
            labeling = {}
            for assign, _stabiliser in labeling_combo:
                labeling.update(assign)
            stabilisers = [stabiliser for _assign, stabiliser in labeling_combo]
            for matchings in itertools.product(*matching_sets):
                limit.tick()
                # source graph: one edge per matched cycle pair
                src_edges = [
                    (comp_at[c][cy1[0]], comp_at[p][cy2[0]], len(cy1), e)
                    for (c, p), e, pairs in zip(edge_list, edge_split, matchings)
                    for cy1, cy2 in pairs
                ]
                walk = _tree_walk(num_comps, src_edges)
                if walk is None:
                    continue  # disconnected or with a cycle
                if not _least_matchings(matchings, edge_list, stabilisers, limit):
                    continue
                comp_marks = [0] * num_comps
                for pos, (a, w) in enumerate(zip(h.a_marks, mark_vertex), start=1):
                    comp_marks[comp_at[w][labeling[a][1][0]]] |= 1 << pos
                counts[_node_sides(n, comp_marks, src_edges, walk)] += 1
    return tuple(sorted(counts.items()))


def count_covers(h, limit_tuples=None):
    """Number of labeled covers of a smooth generic target (full datum)."""
    classes = enumerate_cover_classes(h, trees.trivial_tree(len(h.b_marks)), limit_tuples)
    return sum(count for _nodes, count in classes)


def count_covers_orbit_stabilizer(h, limit_tuples=None):
    """Smooth-target count again, via the stabilizer sum over raw
    configurations: the sum over transitive flag-permutation tuples and
    their mark labelings of each labeling's stabiliser in the tuple's
    centraliser, over d!.  Independent of the least-candidate search; the
    datum is checked as the enumeration checks it (_cover_value), once per
    object.

    No labeling is listed.  On the smooth target every flag is a leg, and a
    labeling is a length-keeping bijection from the marks over each leg
    onto all the cycles of its permutation, so every cycle carries a mark
    and every labeling's stabiliser is the set of centraliser elements that
    fix each cycle.  A tuple has prod over legs of prod over lengths l of
    m_l! labelings (m_l cycles of length l): every tuple gives each leg its
    branching type, and the datum is fully marked, so the ramifications of
    the marks over a leg are that type, and the count is one constant of
    the datum.

    The centraliser of a transitive tuple is semiregular, so an element is
    fixed by its image c(0) of sheet 0.  One walk of sheet 0's orbit tests
    transitivity and gives the at most d candidates, each read along the
    walk (c(g x) = g c(x)) and kept when it commutes with every
    permutation; no scan of S_d is made.  A kept element maps each cycle
    onto a cycle of the same permutation, so it fixes the cycle when it
    keeps the cycle's first sheet in it.

    The budget ticks as the labeling lists did: once per flag-permutation
    combination (_local_assignments), then per tuple, leg by leg, once per
    bijection of the leg's marks onto its cycles."""
    _cover_value(h)
    tau = trees.trivial_tree(len(h.b_marks))
    limit = _tuple_budget(limit_tuples)
    d = h.d
    flags = tau.flag_masks(0, trees._validate(tau)[0])
    local = _local_assignments(h, flags, limit)
    # each leg's bijection count: prod over lengths l of m_l!
    per_leg = [prod(factorial(m) for m in Counter(h.branching(_leg_mark(h, f))).values())
               for f in flags]
    labelings = prod(per_leg)
    cycles_of = {}  # permutation -> its cycles, each as (first sheet, sheets)
    stab_total = 0
    for perms in local:
        for count in per_leg:
            limit.tick(count)
        # walk sheet 0's orbit: each sheet y after it with the sheet x and
        # permutation g that reached it, y = g x
        reached = [0]
        came = [None] * d
        came[0] = ()
        for x in reached:
            for g in perms:
                y = g[x]
                if came[y] is None:
                    came[y] = (x, g)
                    reached.append(y)
        if len(reached) != d:
            continue
        cycles = []
        for g in perms:
            if g not in cycles_of:
                cycles_of[g] = [(cyc[0], frozenset(cyc)) for cyc in _cycles(g)]
            cycles += cycles_of[g]
        fixing = 1  # the identity, c(0) = 0
        for image in range(1, d):
            c = [image] * d
            for y in reached[1:]:
                x, g = came[y]
                c[y] = g[c[x]]
            if (all(c[g[x]] == g[c[x]] for g in perms for x in range(d))
                    and all(c[first] in cyc for first, cyc in cycles)):
                fixing += 1
        stab_total += labelings * fixing
    total = factorial(d)
    if stab_total % total:
        raise AssertionError("stabilizer sum %d not divisible by %d" % (stab_total, total))
    return stab_total // total


# -- cover types --------------------------------------------------------------


class CoverType:
    """Isomorphism type of labeled covers over a fixed target tree.

    source_tree is the stable tree on the source marks (positions in
    a_marks); node_data lists (split mask, r) per source node, as nodes;
    multiplicity is the product of the node ramifications; count the number
    of labeled-cover classes of this type.
    """

    __slots__ = ("source_tree", "node_data", "multiplicity", "count")

    def __init__(self, source_tree, node_data, multiplicity, count):
        self.source_tree = source_tree
        self.node_data = node_data
        self.multiplicity = multiplicity
        self.count = count


def _node_sides(n, comp_marks, comp_edges, walk):
    """Each node of a source curve as (split mask, r, e), sorted.

    comp_marks holds the mask of the marks (1..n) on each component and
    comp_edges the (i, j, r, e) nodes between components, r the ramification
    and e the split of the target edge the node lies over, passed through;
    they form a tree, and walk is its (up, order) from _tree_walk.  A node's
    split cuts off the marks on its far side: the masks below each component
    are ORed up the walk, last reached first.
    """
    up, order = walk
    below = list(comp_marks)
    for x in reversed(order[1:]):
        below[up[x]] |= below[x]
    nodes = [
        (trees.split_of(n, below[j] if up[j] == i else below[i]), r, e)
        for i, j, r, e in comp_edges
    ]
    return tuple(sorted(nodes))


def enumerate_cover_types(h, tau, limit_tuples=None):
    """Group the labeled-cover classes over tau by isomorphism type: classes
    with the same node data have the same source tree, the canonical tree cut
    by the node splits.  Two nodes of one curve never share a split.  A
    type's node data are ordered by the marks of each split.

    The types are kept per (cover value, tau) in `_TYPES`, beside the
    classes and through the same Budget.replay, so data that share their
    covers build each source tree once, and a hit ticks what the miss
    ticked.  Every call returns a fresh list over the kept tuple."""
    limit = _tuple_budget(limit_tuples)
    cover = _cover_value(h)
    return list(limit.replay(_TYPES, (cover, tau), _cover_types, h, cover, tau))


def _cover_types(h, cover, tau, limit):
    """The sorted CoverType tuple of enumerate_cover_types, from the kept
    classes over tau (_classes) under `limit`."""
    counts = Counter()
    for nodes, count in _classes(h, cover, tau, limit):
        counts[tuple((side, r) for side, r, _e in nodes)] += count
    n = len(h.a_marks)
    types = []
    for projected, count in counts.items():
        node_data = tuple(sorted(projected, key=lambda x: trees.marks_of(x[0])))
        source = trees.tree_from_splits(n, [side for side, _r in node_data])
        if source.codim() < len(node_data):
            raise AssertionError(
                "the source tree has %d edges for %d nodes" % (source.codim(), len(node_data))
            )
        mult = prod(r for _side, r in node_data)
        types.append(CoverType(source, node_data, mult, count))
    types.sort(key=lambda t: (trees.tree_sort_key(t.source_tree), t.node_data))
    return tuple(types)


def degeneration_degree_check(h, tau, limit_tuples=None):
    """Over any stratum tree the multiplicity-weighted class count must equal
    the smooth-target count.  Returns a report dict; ok=False flags a bug."""
    types = enumerate_cover_types(h, tau, limit_tuples)
    total = sum(t.multiplicity * t.count for t in types)
    expected = count_covers(h, limit_tuples)
    return {
        "expected": expected,
        "total": total,
        "ok": total == expected,
        "types": [
            {
                "source": t.source_tree.to_json_dict(),
                "nodes": [{"side": list(trees.marks_of(side)), "r": r} for side, r in t.node_data],
                "count": t.count,
                "multiplicity": t.multiplicity,
                "codim": t.source_tree.codim(),
            }
            for t in types
        ],
    }
