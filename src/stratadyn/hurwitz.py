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

A class is keyed by its least encoding (conjugated flag permutations, then
relabeled mark cycles, then relabeled edge matchings) over all (d!)^|V|
per-vertex relabelings, and only the one candidate equal to its key is
glued.  A relabeling of one vertex's sheets conjugates only that vertex's
flag-permutation tuple, so only tuples that are their own least simultaneous
conjugate are kept, each with its centraliser.  Each mark's cycle likewise
depends on one vertex's relabeling, so the least labeling is the per-vertex
least one: at each vertex only the labelings least in their centraliser
orbit are kept, each with its stabiliser.  The edge matchings, which couple
two vertices, are then searched over the product of the stabilisers only,
and not at all when every stabiliser is trivial.  The key is read off the
candidate, and no class is met twice.  This is the gluing of per-vertex
orbit representatives along the edges used in tropical Hurwitz counting
(Cavalieri-Johnson-Markwig, arXiv 0804.0579).

A class is its (key, nodes) pair.  When a class is glued, `_node_sides`
gives each of its nodes the split of the marks (as a_marks positions) on
its far side, its ramification r and the split of the target edge it lies
over, as `trees.split_of` masks; the class keeps these nodes, sorted, and
nothing else of its components, so they do not depend on how tau's
vertices are numbered.  `enumerate_cover_types` builds the canonical tree
cut by the node splits with `trees.tree_from_splits`, once per cover type
(Keel, Trans. AMS 330, 1992: a stratum is fixed by its splits), and the
pushforward reads each type's curve from there.

The classes over a target tree are kept once per process in `_CLASSES`,
keyed by the tree and the six fields the enumeration reads (a_marks,
b_marks, d, f_map, br, rm), through the same `trees.Budget.replay` that
keeps strata and presentations: the classes are built on the first call
only, and a later call ticks the tuple budget the first one used.  The
covers depend on the Hurwitz space alone, so the self-maps of one datum,
which differ only in forget_to and identify, share them.  Each distinct
datum is validated once per process, when its key is made (`_VALUES`), and
a datum that is not fully marked raises every time.  The classes are kept
marshalled, and every call returns a new list of the (key, nodes) pairs
read from them.  Counts, the degeneration check and the pushforward all
read the kept classes.  A test that counts work done inside the
enumeration, or calls of `validate`, must clear `_CLASSES`, `_VALUES` and
`_COVERS` itself.
"""

from __future__ import annotations

import itertools
import marshal
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import trees


class HurwitzData:
    """Immutable branched-cover datum.

    a_marks, b_marks: tuples of distinct string labels.
    d: covering degree.
    f_map: {a: b} target of each source mark.
    br: {b: ascending partition of d}; missing entries mean unbranched.
    rm: {a: ramification index}.
    forget_to: optional tuple of retained source marks.
    identify: optional {b: a} bijection onto the retained marks, for
        composing the correspondence with itself.
    """

    __slots__ = ("a_marks", "b_marks", "d", "f_map", "br", "rm", "forget_to", "identify")

    def __init__(self, a_marks, b_marks, d, f_map, br, rm, forget_to=None, identify=None):
        self.a_marks = tuple(str(a) for a in a_marks)
        self.b_marks = tuple(str(b) for b in b_marks)
        self.d = int(d)
        self.f_map = {str(a): str(b) for a, b in f_map.items()}
        self.br = {str(b): tuple(sorted(int(x) for x in parts)) for b, parts in br.items()}
        self.rm = {str(a): int(r) for a, r in rm.items()}
        self.forget_to = None if forget_to is None else tuple(str(a) for a in forget_to)
        self.identify = None if identify is None else {str(b): str(a) for b, a in identify.items()}

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
        """Decode to_json_dict's encoding; F, br, rm and identify must be
        objects (identify may be null), or ValueError is raised."""
        for name in ("F", "br", "rm", "identify"):
            value = dd[name] if name in dd else {}
            if not isinstance(value, dict) and not (name == "identify" and value is None):
                raise ValueError("%s must be an object keyed by mark" % name)
        return HurwitzData(
            dd["A"],
            dd["B"],
            dd["d"],
            dd["F"],
            dd.get("br", {}),
            dd["rm"],
            dd.get("forget_to"),
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
    for b in h.b_marks:
        have = Counter(h.rm[a] for a in h.marks_over(b))
        want = Counter(h.branching(b))
        if have - want:
            return ValidationResult(
                "invalid", "marks over %s exceed its branching: %r vs %r" % (b, dict(have), dict(want))
            )
        if want - have:
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
    """
    res = validate(h)
    if not res.ok:
        raise ValueError("cannot fully mark an invalid datum: %s" % res.reason)
    new_a = list(h.a_marks)
    f_map = dict(h.f_map)
    rm = dict(h.rm)
    deg = 1
    for b in h.b_marks:
        have = Counter(h.rm[a] for a in h.marks_over(b))
        want = Counter(h.branching(b))
        missing = want - have
        for r in sorted(missing):
            count = missing[r]
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
    chk = validate(full)
    if chk.status != "fully_marked":
        raise AssertionError("full marking failed: %s" % chk.reason)
    return full, deg


# -- permutations ------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_pool(d):
    """(all permutations of range(d), {cycle type: tuple of perms})."""
    all_p = tuple(itertools.permutations(range(d)))
    by_type = {}
    for p in all_p:
        by_type.setdefault(_cycle_type(p), []).append(p)
    return all_p, {t: tuple(v) for t, v in by_type.items()}


def _cycles(p):
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


def _canon_cycle(cyc):
    k = cyc.index(min(cyc))
    return tuple(cyc[k:] + cyc[:k])


# -- labeled covers over a stratum tree --------------------------------------


def _leg_mark(h, f):
    """The target mark of the flag with mark bitmask f when it is a leg (one
    bit), None for an edge (both sides of a split hold at least two marks)."""
    return None if f & f - 1 else h.b_marks[f.bit_length() - 2]


def _local_assignments(h, flags, limit):
    """All flag-permutation tuples at a target vertex with flag masks `flags`
    (MarkedTree.flag_masks): product in flag order is the identity, leg flags
    carry their branching cycle type."""
    all_p, by_type = _perm_pool(h.d)
    opts = []
    for f in flags[:-1]:
        b = _leg_mark(h, f)
        opts.append(all_p if b is None else by_type.get(h.branching(b), ()))
    out = []
    ident = tuple(range(h.d))
    for combo in itertools.product(*opts):
        limit.tick()
        prod = ident
        for g in combo:
            prod = _compose(prod, g)
        last = _inverse(prod)
        b = _leg_mark(h, flags[-1])
        if b is not None and _cycle_type(last) != h.branching(b):
            continue
        out.append(combo + (last,))
    return out


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
        per_flag.append([{a: (pos, _canon_cycle(c)) for a, c in pairs} for pairs in bijections])
    out = []
    for combo in itertools.product(*per_flag):
        merged = {}
        for assign in combo:
            merged.update(assign)
        out.append(merged)
    return out


def _edge_matchings(gc, gp, limit):
    """Length-preserving bijections between the cycles of two permutations."""
    return [
        tuple(sorted((_canon_cycle(a), _canon_cycle(b)) for a, b in pairs))
        for pairs in _bijections(_cycles(gc), len, _cycles(gp), limit)
    ]


class UnionFind:
    """Disjoint sets over range(n), with path halving on find."""

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Put a's root under b's root; False when they share a root already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _orbits(perms, d):
    uf = UnionFind(d)
    for g in perms:
        for i in range(d):
            uf.union(i, g[i])
    groups = {}
    for i in range(d):
        groups.setdefault(uf.find(i), []).append(i)
    return [frozenset(v) for v in sorted(groups.values())]


def _least_conjugate(perms, all_p):
    """The least simultaneous conjugate of a flag-permutation tuple, and the
    relabelings reaching it (one coset of the tuple's centraliser)."""
    best = None
    coset = []
    for hh in all_p:
        enc = tuple(_conj(hh, g) for g in perms)
        if best is None or enc < best:
            best = enc
            coset = [hh]
        elif enc == best:
            coset.append(hh)
    return best, coset


def _least_labelings(h, flags, perms, centraliser, limit):
    """The labelings at a vertex with flag masks `flags` (_vertex_labelings)
    least in their orbit under the centraliser of its tuple, each as
    (labeling, its stabiliser there)."""
    legs = {_leg_mark(h, f) for f in flags}
    order = [a for a in h.a_marks if h.f_map[a] in legs]
    out = []
    for labeling in _vertex_labelings(h, flags, perms, limit):
        stabiliser = _stabiliser_if_least([labeling[a][1] for a in order], centraliser, limit)
        if stabiliser is not None:
            out.append((labeling, stabiliser))
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
    edge matchings smaller.  The product's first element is the identity,
    which is skipped; with every stabiliser trivial, or no edge, nothing is
    evaluated.  Each relabeling is encoded edge by edge, and the first edge
    whose image differs decides it: smaller rejects the matchings, larger
    moves on to the next relabeling."""
    if not matchings:
        return True
    relabelings = itertools.product(*stabilisers)
    next(relabelings)
    for rls in relabelings:
        limit.tick()
        for (c, p), pairs in zip(edge_list, matchings):
            enc = tuple(sorted(
                (_cycle_image(rls[c], x), _cycle_image(rls[p], y)) for x, y in pairs
            ))
            if enc != pairs:
                if enc < pairs:
                    return False
                break
    return True


# (cover value, tau) -> (marshalled (key, nodes) per class, ticks), kept once
# per process.
# Marshalled, an entry is one bytes object about a tenth the size of its
# classes as objects, and the allocator keeps no small objects alive for it.
_CLASSES = {}
# datum value of a fully marked datum -> its cover value
_VALUES = {}
# cover value -> the one copy of it the keys of _CLASSES and _VALUES share
_COVERS = {}


def _cover_value(h):
    """The fields the enumeration reads (a_marks, b_marks, d, f_map, br,
    rm) as one hashable value, shared by data that differ only in forget_to
    or identify.

    The datum is validated on the first call with its value (all eight
    fields), and only a fully marked one is kept; any other raises
    ValueError on every call, whatever its siblings."""
    value = (
        h.a_marks, h.b_marks, h.d,
        tuple(sorted(h.f_map.items())), tuple(sorted(h.br.items())), tuple(sorted(h.rm.items())),
        h.forget_to, None if h.identify is None else tuple(sorted(h.identify.items())),
    )
    cover = _VALUES.get(value)
    if cover is None:
        res = validate(h)
        if res.status != "fully_marked":
            raise ValueError("cover enumeration requires a fully marked datum (%s)" % res.status)
        cover = _VALUES[value] = _COVERS.setdefault(value[:6], value[:6])
    return cover


def _tuple_budget(limit_tuples):
    return trees.Budget(limit_tuples, "cover enumeration exceeded %s tuples" % limit_tuples)


def enumerate_cover_classes(h, tau, limit_tuples=None):
    """All labeled-cover classes of the datum over the target tree tau.

    Requires a fully marked datum; tau is a stratum tree on |B| marks, mark i
    standing for b_marks[i-1].  Returns one (key, nodes) pair per class,
    sorted by key.  key is the class's least candidate: (per target vertex
    its flag-permutation tuple, each mark's (mark, flag position, cycle) in
    a_marks order, per target edge its sorted (child cycle, parent cycle)
    matchings); another candidate of the class numbers its sheets and
    components differently, but builds the same source curve.  nodes lists
    each source node as (split mask over a_marks positions, r, split mask
    of the target edge it lies over), sorted by the first split's marks,
    then r (_node_sides).

    The result is kept per (cover value, tau): data that differ only in
    forget_to or identify share it, and tau is itself and not its canonical
    form since the keys use its vertex numbering.  Every call returns a new
    list read from the kept pairs, so a caller may change it freely.  The
    datum is validated once per distinct value (_cover_value), and the
    classes are built only on a miss, under the caller's `limit_tuples`; a
    call that raises keeps no classes, and a hit ticks what the miss ticked,
    so the cap behaves as if nothing were cached.  See
    _enumerate_cover_classes.
    """
    limit = _tuple_budget(limit_tuples)
    kept = limit.replay(_CLASSES, (_cover_value(h), tau), _enumerate_cover_classes, h, tau)
    return list(marshal.loads(kept))


def _enumerate_cover_classes(h, tau, limit):
    """The (key, nodes) pairs of enumerate_cover_classes, marshalled.

    The key is the least encoding (flag permutations, mark labeling, edge
    matchings) over every per-vertex sheet relabeling, and only the one
    candidate equal to its key is glued.  Each local tuple is scanned once
    (_least_conjugate); only those equal to their least conjugate are kept,
    each with its centraliser.  Per kept tuple, only the labelings least in
    their centraliser orbit are kept, each with its stabiliser
    (_least_labelings).  Over a product of these, a matching is kept only
    when no relabeling in the product of the stabilisers makes it smaller
    (_least_matchings).  Mark entries and vertex tuples each depend on one
    vertex's relabeling, so the least encoding is the per-vertex least one
    and the candidate kept is its class's key: keys, classes and their
    order equal those of the full search.  A key met twice is a bug and
    raises AssertionError.

    Each target vertex's flag list is built once and passed to the
    per-vertex helpers (_local_assignments, _least_labelings), and each
    target edge's split is read from the same subtree_masks pass.  A
    class's nodes are read off its components and source edges once, here
    (_node_sides).

    The budget ticks once per flag-permutation combination tried at a
    vertex, per glued candidate, per mark labeling and per edge matching
    built or tried, d! per local tuple for the conjugacy scan, and once per
    non-identity relabeling evaluated in the labeling-orbit and stabiliser
    searches.

    The datum is fully marked (_cover_value has validated it), and only its
    cover fields are read.
    """
    if tau.n != len(h.b_marks):
        raise ValueError("target tree has %d marks, datum has %d" % (tau.n, len(h.b_marks)))
    d = h.d
    all_p, _ = _perm_pool(d)
    num_w = len(tau.parents)
    masks, _ = tau.subtree_masks()
    flag_lists = [tau.flag_masks(w, masks) for w in range(num_w)]
    # keep each vertex's tuples that are their own least conjugate, with the
    # centraliser (the coset _least_conjugate returns for such a tuple, the
    # identity first as in all_p)
    locals_per_w = []
    centraliser = {}
    for w in range(num_w):
        kept = []
        for perms in _local_assignments(h, flag_lists[w], limit):
            limit.tick(len(all_p))
            best, coset = _least_conjugate(perms, all_p)
            if best == perms:
                kept.append(perms)
                centraliser[perms] = coset
        locals_per_w.append(kept)
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

    reps = {}
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
        for w in range(num_w):
            at = [0] * d
            for orb in _orbits(vertex_perms[w], d):
                for s in orb:
                    at[s] = num_comps
                num_comps += 1
            comp_at.append(at)

        for labeling_combo in itertools.product(*labeling_sets):
            labeling = {}
            for assign, _stabiliser in labeling_combo:
                labeling.update(assign)
            stabilisers = [stabiliser for _assign, stabiliser in labeling_combo]
            enc_label = tuple((a, *labeling[a]) for a in h.a_marks)
            for matchings in itertools.product(*matching_sets):
                limit.tick()
                # source graph: one edge per matched cycle pair
                uf = UnionFind(num_comps)
                acyclic = True
                src_edges = []
                for (c, p), e, pairs in zip(edge_list, edge_split, matchings):
                    for cy1, cy2 in pairs:
                        i1 = comp_at[c][cy1[0]]
                        i2 = comp_at[p][cy2[0]]
                        src_edges.append((i1, i2, len(cy1), e))
                        if not uf.union(i1, i2):
                            acyclic = False
                            break
                    if not acyclic:
                        break
                if not acyclic:
                    continue
                if len(src_edges) != num_comps - 1:
                    continue  # disconnected
                if not _least_matchings(matchings, edge_list, stabilisers, limit):
                    continue
                key = (vertex_perms, enc_label, matchings)
                if key in reps:
                    raise AssertionError("cover class keyed twice: %r" % (key,))
                comp_marks = [0] * num_comps
                for pos, (a, w) in enumerate(zip(h.a_marks, mark_vertex), start=1):
                    comp_marks[comp_at[w][labeling[a][1][0]]] |= 1 << pos
                reps[key] = _node_sides(n, comp_marks, src_edges)
    return marshal.dumps(tuple((k, reps[k]) for k in sorted(reps)))


def count_covers(h, limit_tuples=None):
    """Number of labeled covers of a smooth generic target (full datum)."""
    classes = enumerate_cover_classes(h, trees.trivial_tree(len(h.b_marks)), limit_tuples)
    return len(classes)


def count_covers_orbit_stabilizer(h, limit_tuples=None):
    """Smooth-target count again, via the stabilizer sum over raw
    configurations; independent of the canonical-key dedup.  The datum is
    checked as the enumeration checks it (_cover_value), once per value."""
    _cover_value(h)
    tau = trees.trivial_tree(len(h.b_marks))
    limit = _tuple_budget(limit_tuples)
    d = h.d
    all_p, _ = _perm_pool(d)
    flags = tau.flag_masks(0, tau.subtree_masks()[0])
    stab_total = 0
    for perms in _local_assignments(h, flags, limit):
        for labeling in _vertex_labelings(h, flags, perms, limit):
            if len(_orbits(perms, d)) != 1:
                continue
            stab = 0
            for hh in all_p:
                if all(_conj(hh, g) == g for g in perms) and all(
                    _cycle_image(hh, cyc) == cyc for (_pos, cyc) in labeling.values()
                ):
                    stab += 1
            stab_total += stab
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


def _node_sides(n, comp_marks, comp_edges):
    """Each node of a source curve as (split mask, r, e), sorted by the
    split's marks, then r.

    comp_marks holds the mask of the marks (1..n) on each component and
    comp_edges the (i, j, r, e) nodes between components, r the ramification
    and e the split of the target edge the node lies over, passed through;
    they form a tree, and a node's split cuts off the marks on its far
    side.  One pass ORs the masks below each component with the tree rooted
    at component 0.
    """
    adj = [[] for _ in comp_marks]
    for i, j, _r, _e in comp_edges:
        adj[i].append(j)
        adj[j].append(i)
    up = [-1] * len(comp_marks)
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != up[x]:
                up[y] = x
                order.append(y)
    below = list(comp_marks)
    for x in reversed(order[1:]):
        below[up[x]] |= below[x]
    nodes = [
        (trees.split_of(n, below[j] if up[j] == i else below[i]), r, e)
        for i, j, r, e in comp_edges
    ]
    return tuple(sorted(nodes, key=lambda x: (trees.marks_of(x[0]), x[1])))


def enumerate_cover_types(h, tau, limit_tuples=None):
    """Group the labeled-cover classes over tau by isomorphism type: classes
    with the same node data have the same source tree, the canonical tree cut
    by the node splits.  Two nodes of one curve never share a split."""
    counts = Counter(
        tuple((side, r) for side, r, _e in nodes)
        for _key, nodes in enumerate_cover_classes(h, tau, limit_tuples)
    )
    n = len(h.a_marks)
    types = []
    for node_data, count in counts.items():
        source = trees.tree_from_splits(n, [side for side, _r in node_data])
        if source.codim() < len(node_data):
            raise AssertionError(
                "the source tree has %d edges for %d nodes" % (source.codim(), len(node_data))
            )
        mult = prod(r for _side, r in node_data)
        types.append(CoverType(source, node_data, mult, count))
    types.sort(key=lambda t: (trees.tree_sort_key(t.source_tree), t.node_data))
    return types


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
