"""Dual trees of boundary strata of genus-zero stable marked curves.

A stratum of the moduli space of stable genus-zero curves with marks 1..n is
encoded by its dual tree: vertices are components, edges are nodes, legs are
marks.  Stability means every vertex has valence (legs + incident edges) at
least 3.  A vertex of valence val carries val - 3 moduli, so

    dim = sum of (val - 3),   codim = number of edges,   dim + codim = n - 3,

and valences() reads every vertex's valence in one pass.

Trees are stored as (n, parents, legs): vertices are 0..m-1, parents[i] is the
parent index (-1 for the root), legs[i-1] is the vertex carrying mark i.  Two
encodings describe the same stratum iff their split sets are equal, and so
iff their canonical forms are.

A stratum is also fixed by its set of pairwise-compatible splits, the mark
bipartitions cut by its edges (Keel, Trans. AMS 330, 1992).  A split is one
int in every module, the mark bitmask (bit m for mark m) of its side without
mark 1: split_of, the one normaliser, names it from a mask of either side,
and marks_of reads its marks out.  Derived strata (gluing small trees into
vertices, forgetting marks) are computed on split sets and built by
tree_from_splits, and so are the source curves of the cover types of the
degeneration report (`hurwitz.enumerate_cover_types`).  The split-set
cores, substitution_splits and project_splits, are public:
glue_substitution and forget_pushforward are them plus the trees at either
end, and the pushforward traces cover nodes to retained-mark divisors and
renames target divisors (project_split) on split sets, building no tree.
enumerate_strata searches split sets as integer bitmasks, growing each set
by AND-ing per-split compatibility masks.  A tree is read through one
pass, _validate, which also checks it: the parent pointers are checked
once per distinct tuple and kept with an order of the vertices from the
leaves up (_parent_order), then one pass over the legs checks them and
sets each mark's bit, the vertices with fewer than 3 edges count their
legs from those bits, and the bits are ORed up the edges into the marks
at and under each vertex, on any valid encoding, canonical or not.  Every
reader of an edge's side reads these masks, so a malformed tree raises
the pass's error wherever it is read.  split_set, the one split reader,
names the edges' sides from them, and flag_masks, the one flag reader,
lists the flags at a vertex as mark bitmasks read from them, in the one
flag order: legs by mark, then edges by their least far-side mark (the
far sides at a vertex are disjoint, so this is the order of their sorted
mark sets).  A caller that reads a tree's splits and flags, or several
of its vertices, makes the pass once and reads them all from its masks.
The tests check the pass against readers by definition (adjacency, the
marks beyond an edge) kept with their oracles.  The curve classes of the
homology pairing route and the reduction image types of hassett are keyed
by these masks.

The canonical encoding is rooted at the centroid (no component of more
than m/2 vertices once it is removed; two adjacent ones at most) with the
least subcode "(marks;children's subcodes in order)", and places the
vertices in preorder with children sorted by subcode.  One builder makes
it, from splits, in two steps.  The downward pass hangs the splits in
increasing size, so a new split's children are exactly the current top
splits it contains, and gives each vertex its sorted children, its
subtree's size and preorder, and a short sibling key: the subcode's prefix
"(;" * d + "(" + marks + ";", read along the least-child path down to the
first vertex carrying marks.  The key decides every comparison the
canonical form makes.  Sibling subtrees carry disjoint marks, so their
keys differ before either ends: mark lists with different first marks
differ within both, and where d differs the smaller one puts a digit
against ";".  The two centroids are adjacent, so their least-child paths
reach different first marked vertices, or the same one at values of d
that differ by one.  The finishing step, _finish, takes the records of
the top splits, those inside no other, which hang below the vertex of
mark 1: it finds the centroid from their subtree sizes before building
anything, builds a record only for each vertex on the path it re-roots
and for the root, settles a twin centroid by key, and places the vertices
by splicing the kept preorders.  No subcode is built whole, and no
record only to be thrown away: the vertex of mark 1 is built once, hung
below the path or as the root.  It makes the MarkedTree from the int
tuples it built, coercing and validating nothing again.
tree_from_splits runs both steps once, and canonical_form is
tree_from_splits of the tree's split set.  enumerate_strata runs the
downward pass as its search adds each split, so a subtree's record serves
every set that shares it, and only the finishing step runs per stratum.

split_set, the validated frozenset of a tree's splits, is the one key of a
stratum: a lookup of a stratum (a presentation's index, the pushforward's
images) reads its split set and builds no tree.

orbit_representative picks one stratum per orbit under the mark
permutations that keep a colouring of the marks, by the same centroid
rooting with subtrees coded by their legs' colours: each colour's marks go
to the legs in code order, so no permutation is searched.  The cover
enumeration (`hurwitz.enumerate_cover_classes`) enumerates over the
representative and relabels.

enumerate_strata keeps its full result per (n, k) for the life of the
process, so each stratum is built once per process however many callers ask
(a presentation, its relations, the `strata` command).  Every call
gets a fresh list over the same immutable trees.

Every result the package keeps per process answers a capped call through
one Budget: strata here (one tick per stratum), presentations in homology
(one tick per stratum they enumerate, through _strata) and cover classes in
hurwitz (one tick per tuple tried).  Budget.replay computes a miss under
the caller's budget and keeps it only when the cap holds, and a hit ticks
what the miss ticked, so a cap counts as if nothing were kept: a kept
(n, k) longer than the cap raises at once, building nothing.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import index, sub


class ResourceError(RuntimeError):
    """Raised when an enumeration or a presentation exceeds a size limit."""


class Budget:
    """The work one capped call may do: `tick` counts it and raises
    ResourceError(message) once the count passes `cap` (None: no cap)."""

    def __init__(self, cap, message):
        self.cap = cap
        self.message = message
        self.used = 0

    def tick(self, amount=1):
        self.used += amount
        if self.cap is not None and self.used > self.cap:
            raise ResourceError(self.message)

    def replay(self, cache, key, fn, *args):
        """fn(*args, self) memoised in `cache` under `key`.  A hit ticks what
        the first call ticked, so the budget counts as if nothing were
        cached; a call that raises keeps nothing."""
        hit = cache.get(key)
        if hit is None:
            before = self.used
            hit = cache[key] = (fn(*args, self), self.used - before)
        else:
            self.tick(hit[1])
        return hit[0]


class MarkedTree:
    """Immutable dual tree of a boundary stratum.

    Parameters
    ----------
    n : number of marks; marks are 1..n.
    parents : tuple of parent indices, -1 for the single root.
    legs : tuple of length n, legs[i-1] = vertex index carrying mark i.

    Each is read as ints by operator.index, so a float or a string raises
    TypeError instead of being truncated or parsed.  The tree is not
    validated here (_validate).
    """

    __slots__ = ("n", "parents", "legs", "_hash")

    def __init__(self, n, parents, legs):
        self.n = index(n)
        self.parents = tuple(map(index, parents))
        self.legs = tuple(map(index, legs))
        self._hash = hash((self.n, self.parents, self.legs))

    def __eq__(self, other):
        return (
            isinstance(other, MarkedTree)
            and self.n == other.n
            and self.parents == other.parents
            and self.legs == other.legs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "MarkedTree(n=%d, parents=%r, legs=%r)" % (self.n, self.parents, self.legs)

    # -- basic structure -------------------------------------------------

    def num_vertices(self):
        return len(self.parents)

    def edges(self):
        """Edges as (child, parent) pairs, one per non-root vertex."""
        return [(i, p) for i, p in enumerate(self.parents) if p >= 0]

    def valences(self):
        """The valence of every vertex, from one pass over parents and legs."""
        val = [0] * len(self.parents)
        for i, p in enumerate(self.parents):
            if p >= 0:
                val[i] += 1
                val[p] += 1
        for v in self.legs:
            val[v] += 1
        return val

    def dim(self):
        return sum(self.valences()) - 3 * len(self.parents)

    def codim(self):
        return len(self.parents) - 1

    def flag_masks(self, v, masks):
        """The flags at v as mark bitmasks, read from the subtree masks
        `masks` of this tree (_validate), in the one flag order: legs by
        mark, then edges by their least far-side mark.  The far sides are
        disjoint, so that mark, the lowest set bit, orders them fully.  A
        leg's mask has one bit, an edge's at least two."""
        out = [1 << mark for mark, u in enumerate(self.legs, start=1) if u == v]
        edges = [masks[u] for u, p in enumerate(self.parents) if p == v]
        if self.parents[v] >= 0:
            edges.append(((1 << self.n + 1) - 2) ^ masks[v])
        edges.sort(key=lambda mask: mask & -mask)
        return out + edges

    def to_json_dict(self):
        """Stratum encoding: {"n": N, "parents": [...], "legs": {"1": vertex}}."""
        return {
            "n": self.n,
            "parents": list(self.parents),
            "legs": {str(m): v for m, v in enumerate(self.legs, start=1)},
        }

    @staticmethod
    def from_json_dict(d):
        """Decode to_json_dict's encoding.  Raises ValueError naming the
        first of n, parents and legs that is missing, and unless d is an
        object, n, the parents array's entries and the leg object's vertices
        are JSON integers, the leg object's keys are marks 1..n spelled as
        str(m) does (so not " 1", "+2", "03" or "1_0"), it places each mark
        exactly once and the tree is stable."""
        if not isinstance(d, dict):
            raise ValueError("a stratum must be an object")
        for name in ("n", "parents", "legs"):
            if name not in d:
                raise ValueError("a stratum needs the field %s" % name)
        n = _json_int(d["n"], "n")
        parents = [_json_int(p, "a parent") for p in _json_array(d["parents"], "parents")]
        if not isinstance(d["legs"], dict):
            raise ValueError("legs must be an object {mark: vertex}")
        marks = {str(m): m for m in range(1, n + 1)}
        legs = [None] * n
        for mark, v in d["legs"].items():
            m = marks.get(mark)
            if m is None or legs[m - 1] is not None:
                raise ValueError("bad leg table entry for mark %r" % mark)
            legs[m - 1] = _json_int(v, "the vertex of mark %s" % mark)
        if None in legs:
            raise ValueError("leg table must cover marks 1..%d" % n)
        tree = MarkedTree(n, parents, legs)
        _validate(tree)
        return tree


def _marked_tree(n, parents, legs):
    """The MarkedTree of the int `n` and int tuples `parents` and `legs`,
    taken as they are: _finish builds them, so nothing is coerced or
    validated again."""
    tree = object.__new__(MarkedTree)
    tree.n = n
    tree.parents = parents
    tree.legs = legs
    tree._hash = hash((n, parents, legs))
    return tree


def _json_int(value, what):
    """value when it is a JSON integer, which a bool, a float or a string
    is not; ValueError naming `what` otherwise."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %s" % (what, json.dumps(value)))
    return value


def _json_array(value, what):
    """value when it is a JSON array; ValueError naming `what` otherwise."""
    if type(value) is not list:
        raise ValueError("%s must be an array, got %s" % (what, json.dumps(value)))
    return value


def trivial_tree(n):
    return MarkedTree(n, (-1,), tuple(0 for _ in range(n)))


def _validate(tree):
    """Raise ValueError unless tree is a stable tree with legs 1..n placed;
    return (masks, order): the marks at and under each vertex as bitmasks,
    bit m for mark m, on any valid encoding, canonical or not (the side the
    edge above a vertex cuts off, and every mark at the root), and its
    non-root vertices, each listed after every vertex below it.

    The one validating pass, and the one walk that builds subtree masks:
    every reader of an edge's side or a vertex's flags reads them here, so
    a malformed tree raises this pass's error.  The parent pointers are
    checked once per distinct tuple (_parent_order), and every relabelling
    of a stratum's marks shares them.  One pass over the legs then checks
    them and sets each mark's bit at its vertex, the vertices with fewer
    than 3 edges count their legs from those bits, and the bits are ORed up
    the edges in that order, so no walk runs from each mark to the root.
    """
    parents = tree.parents
    m = len(parents)
    if m < 1:
        raise ValueError("tree needs at least one vertex")
    n = tree.n
    if n < 3:
        raise ValueError("need at least 3 marks, got %d" % n)
    order, short, _edges = _parent_order(parents)
    if len(tree.legs) != n:
        raise ValueError("legs tuple must have length n")
    masks = [0] * m
    for mark, v in enumerate(tree.legs, start=1):
        if not (0 <= v < m):
            raise ValueError("mark %d attached to missing vertex %d" % (mark, v))
        masks[v] |= 1 << mark
    for v, need in short:
        if masks[v].bit_count() < need:
            valence = 3 - need + masks[v].bit_count()
            raise ValueError("vertex %d has valence %d < 3" % (v, valence))
    for v in order:
        masks[parents[v]] |= masks[v]
    return masks, order


@lru_cache(maxsize=None)
def _parent_order(parents):
    """The checked parent pointers of a tree: (its non-root vertices, each
    after every vertex below it; each vertex with fewer than 3 edges, in
    order, with the count of legs it needs to be stable; every vertex's
    edge count).  Raises ValueError unless there is one root and every
    other pointer is in range, not to itself and on a path to the root; a
    tuple that raises is not kept, so it raises on every call."""
    m = len(parents)
    roots = [i for i, p in enumerate(parents) if p == -1]
    if len(roots) != 1:
        raise ValueError("tree must have exactly one root, found %d" % len(roots))
    edges = [0] * m
    for i, p in enumerate(parents):
        if p == -1:
            continue
        if not (0 <= p < m):
            raise ValueError("parent index %d out of range at vertex %d" % (p, i))
        if p == i:
            raise ValueError("vertex %d is its own parent" % i)
        edges[i] += 1
        edges[p] += 1
    # walk up from each vertex, marking the path (-1) until it meets a
    # vertex of known depth; meeting the path itself is a cycle
    depth = [None] * m
    depth[roots[0]] = 0
    for i in range(m):
        path = []
        v = i
        while depth[v] is None:
            depth[v] = -1
            path.append(v)
            v = parents[v]
        if depth[v] < 0:
            raise ValueError("parent pointers contain a cycle through %d" % i)
        d = depth[v]
        for v in reversed(path):
            d += 1
            depth[v] = d
    order = sorted((v for v in range(m) if parents[v] != -1), key=depth.__getitem__, reverse=True)
    return tuple(order), tuple((v, 3 - e) for v, e in enumerate(edges) if e < 3), tuple(edges)


def _vertex(marks, head, kids):
    """The downward-pass record of a vertex carrying the sorted `marks`,
    whose subcode opens with `head` = "(marks;", over its children's records.

    A record is (key, kids, pre, back, marks, head): the sibling key; the
    children's records sorted by key; the marks of every vertex of the
    subtree in preorder, children in key order; for each preorder position,
    how many places back its parent sits (0 at the subtree's top); and the
    vertex's own marks and head.  The key is the subcode read along the
    least-child path up to the first mark, "(;" * d + "(" + marks + ";".
    """
    kids.sort()
    pre = [marks]
    back = [0]
    for kid in kids:
        at = len(pre)
        pre += kid[2]
        back += kid[3]
        back[at] = at
    return (head if marks else head + kids[0][0]), kids, pre, back, marks, head


def _finish(n, tops, labels):
    """The canonical MarkedTree of the tree whose splits inside no other are
    `tops`, (side, record) pairs of the downward pass, under the vertex of
    mark 1.

    Walks from the vertex of mark 1 to the centroid by the tops' subtree
    sizes, builds a record only for each vertex it re-roots, hung below
    the next, settles a twin centroid by key, and places the vertices by
    splicing the kept preorders under the root.
    """
    covered = 0
    m = 1
    for side, rec in tops:
        covered |= side
        m += len(rec[2])
    marks, head = labels[((1 << n + 1) - 2) & ~covered]
    kids = [rec for _side, rec in tops]
    while True:
        heavy = None
        for kid in kids:
            if 2 * len(kid[2]) >= m:
                heavy = kid
                break
        if heavy is None or 2 * len(heavy[2]) == m:
            break
        # the walk moves into the child holding more than half; the vertex
        # it leaves, hung below that child, holds less, so it never turns back
        up = _vertex(marks, head, [u for u in kids if u is not heavy])
        marks, head, kids = heavy[4], heavy[5], heavy[1] + [up]
    if heavy is not None:
        # a twin centroid: the one of lesser key is the root.  A vertex
        # without marks has at least two children, in either rooting.  A key
        # is "(;" * depth + "(" + marks + ";", and a mark sorts before ";",
        # so a deeper key is the greater.  Hung below its twin, this vertex
        # keys no less than it does as the root (its children less the
        # twin); where that key would be the twin's least child, the twin's
        # key, one level deeper than it or than a greater child, exceeds
        # this vertex's with or without it, and the twin loses.  So the
        # twin's key over its own children decides
        rest = [u for u in kids if u is not heavy]
        key = heavy[5] if heavy[4] else heavy[5] + heavy[1][0][0]
        if key < (head if marks else head + min(u[0] for u in kids)):
            kids = heavy[1] + [_vertex(marks, head, rest)]
            marks, head = heavy[4], heavy[5]
    root = _vertex(marks, head, kids)
    back = root[3]
    back[0] = 1  # the root's own list: its parent reads -1
    legs = [0] * n
    for j, at in enumerate(root[2]):
        for mark in at:
            legs[mark - 1] = j
    return _marked_tree(n, tuple(map(sub, range(m), back)), tuple(legs))


def split_set(tree):
    """The key of the stratum `tree` encodes: the frozenset of its splits,
    as split_of masks.  Two encodings, canonical or not, describe the same
    stratum iff their split sets are equal.  Raises ValueError on unstable
    or malformed input.  Reads the splits off the one validating pass
    (_validate), so the tree is walked once."""
    masks, order = _validate(tree)
    n = tree.n
    return frozenset([split_of(n, masks[v]) for v in order])


def canonical_form(tree):
    """Canonical encoding of a stratum: centroid-rooted, children code-sorted.

    It is the tree cut by the split set, built by tree_from_splits.  Raises
    ValueError on unstable or malformed input.  Two trees encode the same
    stratum iff their canonical forms are equal componentwise; the
    canonical form is relabeling-invariant in the vertex indices.
    """
    return tree_from_splits(tree.n, split_set(tree))


def tree_sort_key(tree):
    return (tree.n, len(tree.parents), tree.parents, tree.legs)


def orbit_representative(tree, colours):
    """One tree per orbit of strata under the mark permutations that keep
    `colours` (mark m's at colours[m - 1]), and the relabelling carrying
    `tree` onto it: (rep, to_rep), mark m of tree becoming mark
    to_rep[m - 1] of rep.

    The tree is rooted at its centroid (of two, the one of lesser code),
    each subtree coded by its legs' sorted colours and its children's sorted
    codes.  Each colour's marks are handed out least first in code order:
    the vertices in preorder, children by code, each vertex's legs by
    colour.  rep is the tree cut by the relabelled splits
    (tree_from_splits).  A code fixes its subtree up to the relabellings
    kept, so siblings or legs that tie can go in either order and rep
    depends on the orbit alone; no permutation is searched.  Raises
    ValueError on a malformed tree (_validate).
    """
    return _orbit_representative(tree, colours, *_validate(tree))


def _orbit_representative(tree, colours, masks, order):
    """orbit_representative of a tree already through the validating pass,
    read from that pass's (masks, order), so a caller that goes on to read
    the tree's flags walks it once."""
    parents = tree.parents
    m = len(parents)
    adj = [[] for _ in range(m)]
    size = [1] * m
    heaviest = [0] * m  # the largest subtree below v
    for v in order:
        p = parents[v]
        adj[v].append(p)
        adj[p].append(v)
        size[p] += size[v]
        heaviest[p] = max(heaviest[p], size[v])
    legs_at = [[] for _ in range(m)]
    for mark, v in enumerate(tree.legs, start=1):
        legs_at[v].append(mark)

    def rooted(root):
        """(the code of the tree rooted at root, each vertex's children in
        code order, root)."""
        up = [None] * m
        up[root] = -1
        seq = [root]
        for x in seq:
            for y in adj[x]:
                if up[y] is None:
                    up[y] = x
                    seq.append(y)
        code = [None] * m
        kids = [[] for _ in range(m)]
        for x in reversed(seq):
            kids[x].sort(key=code.__getitem__)
            code[x] = (sorted(colours[mark - 1] for mark in legs_at[x]),
                       [code[y] for y in kids[x]])
            if up[x] >= 0:
                kids[up[x]].append(x)
        return code[root], kids, root

    _code, kids, root = min(rooted(v) for v in range(m)
                            if 2 * max(heaviest[v], m - size[v]) <= m)
    pool = {}
    for mark in range(tree.n, 0, -1):
        pool.setdefault(colours[mark - 1], []).append(mark)
    to_rep = [0] * tree.n
    stack = [root]
    while stack:
        x = stack.pop()
        for mark in sorted(legs_at[x], key=lambda mark: colours[mark - 1]):
            to_rep[mark - 1] = pool[colours[mark - 1]].pop()
        stack += reversed(kids[x])
    moved = []
    for v in order:
        mask = 0
        for mark in marks_of(masks[v]):
            mask |= 1 << to_rep[mark - 1]
        moved.append(mask)
    return tree_from_splits(tree.n, moved), tuple(to_rep)


# -- splits and enumeration ----------------------------------------------


def split_of(n, mask):
    """The split with one side the mark bitmask `mask` (bit m for mark m),
    named by the mask of its side without mark 1.  Raises ValueError on bit
    0 or a bit above n."""
    full = (1 << n + 1) - 2
    if mask < 0 or mask & ~full:
        raise ValueError("split mask %#x has bits outside marks 1..%d" % (mask, n))
    return mask ^ full if mask & 2 else mask


def marks_of(mask):
    """The marks of a mark bitmask (bit m for mark m), in increasing order."""
    marks = []
    while mask:
        low = mask & -mask
        marks.append(low.bit_length() - 1)
        mask ^= low
    return tuple(marks)


def all_splits(n):
    """All splits of {1..n} with both sides of size >= 2, sorted by (size,
    sorted marks) of their sides without mark 1."""
    return sorted((b << 2 for b in range(1 << n - 1) if 2 <= b.bit_count() <= n - 2),
                  key=lambda s: (s.bit_count(), marks_of(s)))


def tree_from_splits(n, splits):
    """Assemble the stratum whose edges cut exactly the given splits.

    `splits` are masks of either side, pairwise compatible, with both sides
    of size >= 2.  Named by split_of, they nest or are disjoint: each split
    is a vertex below the smallest split containing it (below the vertex of
    mark 1 when none does), and each mark sits at the smallest split
    containing it.  Every vertex is then stable.  The splits are hung in
    increasing size, as enumerate_strata adds them.  Returns a canonical
    MarkedTree, and raises ValueError on any other input.
    """
    labels = _Labels()
    tops = []
    for s in sorted({split_of(n, s) for s in splits}, key=int.bit_count):
        if not 2 <= s.bit_count() <= n - 2:
            raise ValueError("split %r has a side with fewer than 2 marks" % list(marks_of(s)))
        tops = _hang(tops, s, labels)
    return _finish(n, tops, labels)


class _Labels(dict):
    """Mark bitmask -> (its sorted marks, the subcode head "(marks;")."""

    def __missing__(self, mask):
        marks = marks_of(mask)
        self[mask] = label = marks, "(%s;" % ",".join(map(str, marks))
        return label


def _hang(tops, side, labels):
    """Add the vertex of the split `side`, a mark bitmask at least as large
    as every split before it, to the forest `tops` of (side, record) pairs
    of the splits inside no other; its children are the tops it contains,
    and its marks those of `side` under none of them.  Returns the new tops,
    and raises ValueError when `side` crosses a top.
    """
    inside = []
    outside = []
    below = 0
    for t in tops:
        common = t[0] & side
        if common == t[0]:
            inside.append(t[1])
            below |= common
        elif common:
            raise ValueError("split %r is not compatible with the others" % list(labels[side][0]))
        else:
            outside.append(t)
    outside.append((side, _vertex(*labels[side & ~below], inside)))
    return outside


_STRATA = {}  # (n, k) -> (tuple of every stratum, its count), kept once per process


def enumerate_strata(n, k, limit=None):
    """All iso classes of dimension-k strata of the n-mark space.

    Enumerates pairwise-compatible sets of n-3-k splits (each set is one
    stratum, so no isomorphism dedup is needed) and assembles each tree.
    Splits are bitmasks of their sides, and each carries the mask of the
    later splits compatible with it, so a set grows by AND-ing masks.
    Results are sorted deterministically.  `limit` caps the count and raises
    ResourceError beyond it, after limit + 1 trees.

    The result is kept per (n, k), and every call returns a new list over
    the kept trees, so a caller may change its list freely.  A kept (n, k)
    is checked against `limit` without building anything; a call that
    raises keeps nothing.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not (0 <= k <= n - 3):
        raise ValueError("k must be between 0 and n-3, got %d" % k)
    return list(_strata(n, k, Budget(limit, "stratum enumeration exceeded limit %s" % limit)))


def _strata(n, k, budget):
    """The kept tuple of the (n, k) strata, ticking `budget` once per
    stratum whether or not they were kept before."""
    return budget.replay(_STRATA, (n, k), _enumerate, n, k)


def _enumerate(n, k, budget):
    """The sorted strata of enumerate_strata, ticking `budget` once per
    stratum built.  Each chosen split's record is made once as the search
    adds it, and each full set is finished from the records of its top
    splits under the vertex of mark 1.  A split's compatibility mask is
    made when the search first picks it, so a capped call that stops early
    pays for the splits it reached only."""
    codim = n - 3 - k
    masks = all_splits(n)
    compat = [None] * len(masks)  # i -> mask of the later splits compatible with i
    labels = _Labels()
    out = []

    def grow(cand, tops, need):
        if not need:
            out.append(_finish(n, tops, labels))
            budget.tick()
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            mask = compat[i]
            if mask is None:
                # normalised sides never contain mark 1, so two splits are
                # compatible exactly when their sides are nested or disjoint
                a = masks[i]
                mask = compat[i] = sum(
                    1 << j for j in range(i + 1, len(masks)) if a & masks[j] in (0, a, masks[j])
                )
            grow(cand & mask, _hang(tops, masks[i], labels), need - 1)

    grow((1 << len(masks)) - 1, [], codim)
    if len(set(out)) != len(out):
        raise AssertionError("duplicate canonical form in enumeration")
    out.sort(key=_stratum_key)
    return tuple(out)


def _stratum_key(tree):
    """The order of (tree.parents, tree.legs), and so of tree_sort_key,
    among the strata of one (n, k), as bytes that sort by memcmp.  They
    all have the m = n - 2 - k vertices, the root first, and every entry
    after the root's -1 is a vertex below m, one byte each: an enumeration
    with m > 256 puts 256 splits in every stratum and never finishes."""
    return bytes(tree.parents[1:] + tree.legs)


def induced_partition(tree):
    """Partition of dim(tree): the positive per-vertex moduli counts, sorted."""
    return tuple(sorted(val - 3 for val in tree.valences() if val > 3))


# -- forgetting marks ------------------------------------------------------


def forget_pushforward(tree, keep):
    """Image stratum under forgetting all marks outside `keep`, or None.

    Returns the canonical image tree with the kept marks renumbered 1..|keep|
    order-preservingly, or None when the class dies (project_splits).
    Raises ValueError on a bad `keep` or a malformed tree (split_set).
    """
    keep = sorted(set(keep))
    if len(keep) < 3:
        raise ValueError("need at least 3 marks kept")
    if not set(keep) <= set(range(1, tree.n + 1)):
        raise ValueError("keep must be a subset of the marks 1..%d" % tree.n)
    renum = {mk: i for i, mk in enumerate(keep, start=1)}
    image = project_splits(tree.n, split_set(tree), renum)
    return None if image is None else tree_from_splits(len(keep), image)


def project_splits(n, splits, renum):
    """Splits of the image of a stratum of the n-mark space under forgetting
    the marks outside `renum`, or None when the class dies.

    The image's splits are the nonzero project_split of each split.
    Forgetting one mark contracts one edge when the mark sits on a trivalent
    vertex and lowers the image dimension otherwise, so the class survives
    exactly when n - |renum| splits are lost.
    """
    image = {project_split(s, renum) for s in splits}
    image.discard(0)
    if len(splits) - len(image) != n - len(renum):
        return None
    return image


def project_split(split, renum):
    """The split `split` traces on the marks `renum` keeps, each renumbered
    renum[mark] in the image, or 0 when a side keeps fewer than 2 marks."""
    m = len(renum)
    side = 0
    for mark in marks_of(split):
        if mark in renum:
            side |= 1 << renum[mark]
    return split_of(m, side) if 2 <= side.bit_count() <= m - 2 else 0


# -- gluing small trees into vertices ----------------------------------------


def glue_substitution(host, subs):
    """Replace each vertex v of `host` by the tree subs[v] on its flag set.

    Returns the canonical tree cut by the host's splits and those of the
    small trees (substitution_splits), with dim = dim(host) - sum of
    md(host, v) + sum of dim(subs[v]).
    """
    masks, order = _validate(host)
    splits = {split_of(host.n, masks[v]) for v in order}
    for v, small in subs.items():
        splits |= substitution_splits(host.n, host.flag_masks(v, masks), small)
    return tree_from_splits(host.n, splits)


def substitution_splits(n, blocks, small):
    """The new splits of the n marks cut by a small tree glued into a vertex
    whose flags carry the mark bitmasks `blocks`, in flag_masks order.

    The small tree has marks 1..len(blocks) corresponding positionally to
    the flags, so each of its splits names a union of the flag blocks, the
    sum of their disjoint masks.
    """
    if small.n != len(blocks):
        raise ValueError(
            "small tree has %d marks but vertex has valence %d" % (small.n, len(blocks))
        )
    return {split_of(n, sum(blocks[i - 1] for i in marks_of(s))) for s in split_set(small)}
