"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's main code paths: strata are
regenerated by one-edge refinement sequences instead of split systems, or by
a pairwise compatibility search instead of bitmasks; canonical forms come
from a centroid search from every vertex; subset conditions are checked by
full enumeration instead of meet-in-the-middle; characteristic polynomials
come from Faddeev-LeVerrier instead of a Hessenberg reduction; curve-class
pushforward columns come from the covers over the three degenerations of
each basis curve, grouped by cover type and paired through psi classes
(`pushforward_matrix_reference`), instead of from divisor pullbacks over
one-edge targets; row spaces
are eliminated over Fractions instead of fraction-free integers; stable
vertices sum Fraction flag weights instead of integer subtree sums, or
integer sums from a walk up from each mark (`stable_vertices_two_walks`)
instead of along the validating pass; and cover counts come from raw tuple
enumeration.  The oracles assemble their trees
themselves, from per-vertex flag lists (`assemble`), rather than through the
library's split-set builder, and read a vertex's flags from the adjacency
and away_marks definitions (`flags_by_definition`) rather than from the
library's flag reader; these readers by definition (`adjacency`, `legs_at`,
`valence`, `away_marks`) read the parent pointers and never the library's
validating pass (`trees._validate`).  They keep splits as mark sets
(`all_splits_reference`, `splits_by_definition`) where the library keeps
bitmasks, and hand a split to the library through `normalize_split`.
Sturm chains come from Fraction remainders (`sturm_chain_reference`)
instead of integer pseudo-remainders, and the largest real root bisects
from the Cauchy bound counting on the whole chain at every point
(`largest_real_root_reference`) instead of skipping the points above
Fujiwara's bound and counting on the squarefree part once one root is left.
A tree's split set is validated by the walk over its parent pointers that
trees._validate made before it kept them per tuple, then read from the
away_marks definition (`split_set_reference`), instead of from one memoised
pass.
A curve's pairing with a divisor tests the split against the four flag
blocks (`pairing_by_blocks`) instead of reading a row kept per curve, and a
datum's ramifications are compared with its branching as Counters
(`validate_reference`, `fully_mark_reference`) instead of as sorted lists.
The smooth-target stabiliser sum lists every labelling of every tuple and
finds each transitive tuple's centraliser by a scan of S_d
(`count_covers_orbit_stabilizer_reference`), instead of counting the
labellings and reading the centraliser off sheet 0's image.
The k = 1 self-correspondence matrix is the pushforward matrix times the
matrix of the identify relabelling, whose columns rename each basis curve's
splits and look the image up in the presentation (`relabel_matrix`,
`self_matrix_reference`), instead of the pullback table read with its
target divisors renamed.
Expected values frozen in the tests were computed with these oracles (or by
hand) before the corresponding library code was written.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from stratadyn import homology, hurwitz, linalg, pushforward, trees


def assemble(n, vertices):
    """Build a MarkedTree from per-vertex flag lists.

    A flag is ('leg', mark) or ('edge', other_vertex); edges may be listed on
    one or both endpoints.
    """
    m = len(vertices)
    adj = [set() for _ in range(m)]
    legs = [0] * n
    for vi, flags in enumerate(vertices):
        for f in flags:
            if f[0] == "leg":
                legs[f[1] - 1] = vi
            else:
                adj[vi].add(f[1])
                adj[f[1]].add(vi)
    parents = [-2] * m
    parents[0] = -1
    stack = [0]
    seen = {0}
    while stack:
        x = stack.pop()
        for u in adj[x]:
            if u not in seen:
                seen.add(u)
                parents[u] = x
                stack.append(u)
    if len(seen) != m:
        raise ValueError("flag lists do not describe a connected tree")
    return trees.MarkedTree(n, tuple(parents), tuple(legs))


def flags_by_definition(t, v):
    """The flags at v of t from the adjacency and away_marks definitions, in
    the one flag order: ('leg', mark) by mark, then ('edge', neighbour, its
    far-side marks) by their sorted marks."""
    legs = [("leg", mark) for mark in legs_at(t)[v]]
    edges = sorted((("edge", u, away_marks(t, v, u)) for u in adjacency(t)[v]),
                   key=lambda f: sorted(f[2]))
    return legs + edges


def flag_marksets_by_definition(t, v):
    """The mark sets of flags_by_definition(t, v), {mark} for a leg."""
    return [frozenset([f[1]]) if f[0] == "leg" else f[2] for f in flags_by_definition(t, v)]


def refine_at(t, v, away):
    """Split vertex v of t, moving the flags with indices in `away` to a new
    vertex joined to v by a fresh edge.  Independent of glue_substitution."""
    adj = adjacency(t)
    at = legs_at(t)
    flags = flags_by_definition(t, v)
    m = len(t.parents)
    vertices = [[] for _ in range(m + 1)]
    for u in range(m):
        if u == v:
            continue
        for mk in at[u]:
            vertices[u].append(("leg", mk))
        for w in adj[u]:
            if w != v:
                vertices[u].append(("edge", w))
    for i, f in enumerate(flags):
        tgt = m if i in away else v
        if f[0] == "leg":
            vertices[tgt].append(("leg", f[1]))
        else:
            vertices[tgt].append(("edge", f[1]))
    vertices[v].append(("edge", m))
    return trees.canonical_form(assemble(t.n, vertices))


def one_edge_refinements(t):
    """All strata obtained from t by splitting one vertex once."""
    out = set()
    for v in range(len(t.parents)):
        val = valence(t, v)
        if val < 4:
            continue
        idxs = list(range(val))
        for r in range(2, val - 1):
            for away in itertools.combinations(idxs[1:], r):
                out.add(refine_at(t, v, set(away)))
    return out


def strata_counts_by_refinement(n):
    """Counts of strata per dimension via refinement sequences + canonical
    dedup (breadth-first by codimension).  The enumeration oracle."""
    level = {trees.canonical_form(trees.trivial_tree(n))}
    counts = {n - 3: 1}
    codim = 1
    while True:
        nxt = set()
        for t in level:
            nxt |= one_edge_refinements(t)
        if not nxt:
            break
        counts[n - 3 - codim] = len(nxt)
        level = nxt
        codim += 1
    return counts


def km_relations_reference(n, k):
    """Every four-point relation among k-dim stratum classes: all quadruples
    of flags at every vertex of valence >= 4, with all three pairwise
    differences of their pairing sums.  The library's `km_relations` keeps a
    spanning subset of these rows."""
    if not (0 <= k <= n - 3):
        raise ValueError("k must be between 0 and n-3")
    if k == n - 3:
        return []
    strata = trees.enumerate_strata(n, k)
    index = {t: i for i, t in enumerate(strata)}
    by_splits = {splits_by_definition(t): t for t in strata}
    rows = []
    for sigma in trees.enumerate_strata(n, k + 1):
        base = splits_by_definition(sigma)
        for v, val in enumerate(sigma.valences()):
            if val < 4:
                continue
            blocks = flag_marksets_by_definition(sigma, v)
            for quad in itertools.combinations(range(val), 4):
                rest = [f for f in range(val) if f not in quad]
                i1, i2, i3, i4 = quad
                sums = []
                for a, b in ((i1, i2), (i1, i3), (i1, i4)):
                    acc = {}
                    for r in range(len(rest) + 1):
                        for d1 in itertools.combinations(rest, r):
                            side = blocks[a].union(blocks[b], *(blocks[f] for f in d1))
                            t = by_splits[base | {side_without_one(n, side)}]
                            acc[t] = acc.get(t, 0) + 1
                    sums.append(acc)
                for x in range(3):
                    for y in range(x + 1, 3):
                        row = linalg.axpy(dict(sums[x]), -1, sums[y])
                        if row:
                            rows.append(row)
    # dedup by sign-normalised index vector
    seen = {}
    for row in rows:
        items = sorted((index[t], c) for t, c in row.items())
        if items[0][1] < 0:
            items = [(i, -c) for i, c in items]
        seen.setdefault(tuple(items), row)
    return [seen[key] for key in sorted(seen)]


def relation_presentation(n, k):
    """The presentation of H_{2k} from the four-point relations alone: the
    relation rows are eliminated with maximal-index pivots and the non-pivot
    strata form the basis.  Independent of the pairing route the library
    takes for k = 0 and 1."""
    strata = trees.enumerate_strata(n, k)
    index = {t: i for i, t in enumerate(strata)}
    rows = []
    for row in km_relations_reference(n, k):
        rows.append({index[t]: Fraction(c) for t, c in row.items()})
    space = RowSpaceReference(pivot="max")
    for r in rows:
        space.add(r)
    rr = space.rref()
    pivots = set(rr)
    basis = [i for i in range(len(strata)) if i not in pivots]
    pos = {b: j for j, b in enumerate(basis)}
    int_expr = {}
    for p, row in rr.items():
        # the rational row -row[col] over the lcm of its denominators
        den = lcm(*(val.denominator for col, val in row.items() if col != p))
        int_expr[p] = den, {
            pos[col]: -val.numerator * (den // val.denominator)
            for col, val in row.items() if col != p
        }
    return homology.HomologyPresentation(n, k, strata, basis, int_expr)


def expressions(pres):
    """Each non-basis stratum's expression over the basis as rationals,
    {stratum idx: {basis pos: Fraction}}, read off `int_expr` one entry at a
    time."""
    return {
        i: {j: Fraction(x, den) for j, x in row.items()}
        for i, (den, row) in pres.int_expr.items()
    }


def reduce_index_vec_reference(pres, vec):
    """HomologyPresentation.reduce_index_vec by plain Fraction expansion:
    each coefficient times its basis unit or its expression row, summed."""
    out = {}
    for i, c in vec.items():
        c = Fraction(c)
        if not c:
            continue
        if i in pres.pos:
            row = {pres.pos[i]: Fraction(1)}
        else:
            den, ints = pres.int_expr[i]
            row = {j: Fraction(x, den) for j, x in ints.items()}
        for j, e in row.items():
            nv = out.get(j, Fraction(0)) + c * e
            if nv:
                out[j] = nv
            else:
                out.pop(j, None)
    return out


def validate_tree_reference(tree):
    """trees._validate as it was before it memoised the parent pointers:
    raise ValueError unless tree is a stable tree with legs 1..n placed."""
    parents = tree.parents
    m = len(parents)
    if m < 1:
        raise ValueError("tree needs at least one vertex")
    if tree.n < 3:
        raise ValueError("need at least 3 marks, got %d" % tree.n)
    roots = [i for i, p in enumerate(parents) if p == -1]
    if len(roots) != 1:
        raise ValueError("tree must have exactly one root, found %d" % len(roots))
    valence = [0] * m
    for i, p in enumerate(parents):
        if p == -1:
            continue
        if not (0 <= p < m):
            raise ValueError("parent index %d out of range at vertex %d" % (p, i))
        if p == i:
            raise ValueError("vertex %d is its own parent" % i)
        valence[i] += 1
        valence[p] += 1
    # walk up from each vertex, marking the path (1) until it meets a vertex
    # known to reach the root (2); meeting the path itself is a cycle
    state = [0] * m
    state[roots[0]] = 2
    for i in range(m):
        path = []
        v = i
        while not state[v]:
            state[v] = 1
            path.append(v)
            v = parents[v]
        if state[v] == 1:
            raise ValueError("parent pointers contain a cycle through %d" % i)
        for v in path:
            state[v] = 2
    if len(tree.legs) != tree.n:
        raise ValueError("legs tuple must have length n")
    for mark, v in enumerate(tree.legs, start=1):
        if not (0 <= v < m):
            raise ValueError("mark %d attached to missing vertex %d" % (mark, v))
        valence[v] += 1
    for v in range(m):
        if valence[v] < 3:
            raise ValueError("vertex %d has valence %d < 3" % (v, valence[v]))


def split_set_reference(tree):
    """trees.split_set as two walks: the validation above, then the splits
    read from the away_marks definition (splits_by_definition)."""
    validate_tree_reference(tree)
    return frozenset(normalize_split(tree.n, side) for side in splits_by_definition(tree))


def pairing_by_blocks(tree, split):
    """homology.intersection_pairing_h2 as it read one split at a time,
    before it read one row per curve: -1 when a side of the split is one of
    the four flag blocks at the 4-valent vertex, +1 when a side is the union
    of two of them, 0 otherwise."""
    trees._validate(tree)
    if tree.dim() != 1:
        raise ValueError("pairing requires a 1-dimensional stratum")
    side = trees.split_of(tree.n, split)
    if not (2 <= side.bit_count() <= tree.n - 2):
        raise ValueError("not a 2-sided split with both sides of size >= 2")
    blocks = homology.curve_blocks(tree)
    other = ((1 << tree.n + 1) - 2) ^ side
    if side in blocks or other in blocks:
        return -1
    for s in (side, other):
        for b1, b2 in itertools.combinations(blocks, 2):
            if s == b1 | b2:
                return 1
    return 0


class RowSpaceReference:
    """Row space over Fractions with pivot-normalised rows: the elimination
    linalg.RowSpace did before it went fraction-free, kept as its oracle.
    Explicit zero entries are dropped on entry (the vector convention says
    vectors never store them)."""

    def __init__(self, pivot="min"):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self.pivot_fn = min if pivot == "min" else max
        self._min = pivot == "min"
        self.rows = {}  # pivot column -> row with pivot coefficient 1

    def dim(self):
        return len(self.rows)

    def residual(self, vec):
        v = {c: Fraction(x) for c, x in vec.items() if x}
        while True:
            hits = [c for c in v if c in self.rows]
            if not hits:
                return v
            p = self.pivot_fn(hits)
            c = v.pop(p)
            for col, val in self.rows[p].items():
                if col == p:
                    continue
                nv = v.get(col, 0) - c * val
                if nv:
                    v[col] = nv
                else:
                    v.pop(col, None)

    def contains(self, vec):
        return not self.residual(vec)

    def add(self, vec):
        v = self.residual(vec)
        if not v:
            return None
        p = self.pivot_fn(v)
        c = v[p]
        self.rows[p] = {col: val / c for col, val in v.items()}
        return p

    def rref(self):
        order = sorted(self.rows, reverse=self._min)
        done = {}
        for p in order:
            v = {c: val for c, val in self.rows[p].items() if c != p}
            while True:
                hits = [q for q in v if q in done]
                if not hits:
                    break
                q = hits[0]
                c = v.pop(q)
                for col, val in done[q].items():
                    if col == q:
                        continue
                    nv = v.get(col, 0) - c * val
                    if nv:
                        v[col] = nv
                    else:
                        v.pop(col, None)
            row = {p: Fraction(1)}
            row.update(v)
            done[p] = row
        return done


def side_without_one(n, side):
    """The side of the split cut by the mark set `side` that leaves out
    mark 1, as a mark set."""
    side = frozenset(side)
    return frozenset(range(1, n + 1)) - side if 1 in side else side


def adjacency(t):
    """The neighbours of each vertex of t, read from the parent pointers."""
    adj = [[] for _ in t.parents]
    for i, p in enumerate(t.parents):
        if p >= 0:
            adj[i].append(p)
            adj[p].append(i)
    return adj


def legs_at(t):
    """The marks at each vertex of t, in increasing order."""
    at = [[] for _ in t.parents]
    for mark, v in enumerate(t.legs, start=1):
        at[v].append(mark)
    return at


def valence(t, v):
    """The legs and edges at the vertex v of t, counted one vertex at a
    time."""
    deg = sum(1 for p in t.parents if p == v) + (1 if t.parents[v] >= 0 else 0)
    return deg + sum(1 for u in t.legs if u == v)


def away_marks(t, v, u):
    """The marks reachable from the neighbour u of v once the edge (v, u)
    is cut: the definition of an edge's side, by a search over adjacency."""
    adj = adjacency(t)
    stack = [u]
    seen = {v, u}
    comp = {u}
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in seen:
                seen.add(x)
                comp.add(x)
                stack.append(x)
    return frozenset(m for m, w in enumerate(t.legs, start=1) if w in comp)


def normalize_split(n, marks):
    """The split with one side the mark set `marks`, as the library's
    split_of mask; the way a mark set is handed to the library."""
    return trees.split_of(n, sum(1 << mark for mark in set(marks)))


def splits_by_definition(t):
    """The splits of t from the away_marks definition, as the mark sets of
    their sides without mark 1."""
    return frozenset(side_without_one(t.n, away_marks(t, p, c)) for c, p in t.edges())


def all_splits_reference(n):
    """Every split of the marks 1..n with both sides of size >= 2, as the
    mark set of its side without mark 1, sorted by (size, sorted marks)."""
    sides = [frozenset(c) for r in range(2, n - 1) for c in itertools.combinations(range(2, n + 1), r)]
    return sorted(sides, key=lambda s: (len(s), sorted(s)))


def splits_compatible(a, b):
    """Normalised sides never contain mark 1, so two splits are compatible
    exactly when their sides are nested or disjoint."""
    return a <= b or b <= a or not (a & b)


def _component_size(adj, removed, start):
    stack = [start]
    seen = {removed, start}
    cnt = 1
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                cnt += 1
                stack.append(u)
    return cnt


def canonical_form_reference(tree):
    """The canonical form by brute force: the centroids are found by a
    search from every vertex, each candidate root's subcode is built
    recursively, and vertices are placed in recursive preorder.  Assumes a
    valid stable tree."""
    m = len(tree.parents)
    if m == 1:
        return trees.MarkedTree(tree.n, (-1,), tuple(0 for _ in range(tree.n)))
    adj = adjacency(tree)
    at = legs_at(tree)

    best = None
    cents = []
    for v in range(m):
        worst = max(_component_size(adj, v, u) for u in adj[v])
        if best is None or worst < best:
            best = worst
            cents = [v]
        elif worst == best:
            cents.append(v)

    def subcode(v, parent, cache):
        marks = ",".join(str(x) for x in sorted(at[v]))
        kids = sorted(subcode(u, v, cache) for u in adj[v] if u != parent)
        c = "(" + marks + ";" + "".join(kids) + ")"
        cache[(v, parent)] = c
        return c

    candidates = []
    for r in cents:
        cache = {}
        candidates.append((subcode(r, -1, cache), r, cache))
    candidates.sort(key=lambda t: t[0])
    _, root, cache = candidates[0]

    parents = []
    legs = [0] * tree.n
    counter = [0]

    def place(v, parent_old, parent_new):
        idx = counter[0]
        counter[0] += 1
        parents.append(parent_new)
        for mark in at[v]:
            legs[mark - 1] = idx
        kids = sorted((u for u in adj[v] if u != parent_old), key=lambda u: cache[(u, v)])
        for u in kids:
            place(u, v, idx)

    place(root, -1, -1)
    return trees.MarkedTree(tree.n, tuple(parents), tuple(legs))


def assemble_from_splits(n, splits):
    """The (uncanonical) tree cut by compatible normalised splits: one
    vertex per side below the smallest side containing it, the root holding
    mark 1, and each mark on the smallest side containing it."""
    sides = list(splits)

    def home(marks):
        around = [i for i, o in enumerate(sides) if marks < o]
        return 1 + min(around, key=lambda i: len(sides[i])) if around else 0

    vertices = [[] for _ in range(len(sides) + 1)]
    for i, s in enumerate(sides):
        vertices[i + 1].append(("edge", home(s)))
    for mark in range(1, n + 1):
        vertices[home(frozenset([mark]))].append(("leg", mark))
    return assemble(n, vertices)


def enumerate_strata_reference(n, k):
    """All dimension-k strata of the n-mark space: pairwise-compatible sets
    of n-3-k splits grown one split at a time, each set assembled and
    canonicalised by canonical_form_reference, sorted by tree_sort_key."""
    codim = n - 3 - k
    splits = all_splits_reference(n)
    out = []
    chosen = []

    def grow(start):
        if len(chosen) == codim:
            out.append(canonical_form_reference(assemble_from_splits(n, chosen)))
            return
        for i in range(start, len(splits)):
            if all(splits_compatible(c, splits[i]) for c in chosen):
                chosen.append(splits[i])
                grow(i + 1)
                chosen.pop()

    grow(0)
    out.sort(key=trees.tree_sort_key)
    return out


def strata_count_by_rooted_trees(n, k):
    """The number of k-dim strata of the n-mark space, counted without
    building any: rooted at mark 1, a stratum is a tree on the leaves
    2..n with n - 2 - k internal vertices, each with at least two children.
    r(L, i) counts such trees on L labelled leaves with i internal vertices
    and f(L, i) forests of them, split by the tree of the least leaf."""

    @lru_cache(maxsize=None)
    def r(leaves, inner):
        if leaves == 1:
            return int(inner == 0)
        # the root's children are a forest of at least two trees
        return f(leaves, inner - 1) - r(leaves, inner - 1) if inner > 0 else 0

    @lru_cache(maxsize=None)
    def f(leaves, inner):
        if leaves == 0:
            return int(inner == 0)
        return sum(
            comb(leaves - 1, s - 1) * r(s, j) * f(leaves - s, inner - j)
            for s in range(1, leaves + 1)
            for j in range(inner + 1)
        )

    return r(n - 1, n - 2 - k)


def random_stable_tree(rng, n, num_edges=None):
    """A uniform-ish random stratum: grow a random compatible split set of
    mark sets, handed to the library through normalize_split."""
    splits = all_splits_reference(n)
    rng.shuffle(splits)
    if num_edges is None:
        num_edges = rng.randint(0, n - 3)
    chosen = []
    for s in splits:
        if len(chosen) == num_edges:
            break
        if all(splits_compatible(s, c) for c in chosen):
            chosen.append(s)
    return trees.tree_from_splits(n, [normalize_split(n, s) for s in chosen])


def relabel_vertices(t, perm):
    """Rebuild t with vertex indices permuted (same stratum, new encoding)."""
    adj = adjacency(t)
    at = legs_at(t)
    m = len(t.parents)
    vertices = [[] for _ in range(m)]
    for v in range(m):
        for mk in at[v]:
            vertices[perm[v]].append(("leg", mk))
        for u in adj[v]:
            vertices[perm[v]].append(("edge", perm[u]))
    return assemble(t.n, vertices)


def relabel_marks(t, perm):
    """Rebuild t with mark m renamed perm[m], perm a bijection of 1..n (the
    renamed stratum, in t's vertex encoding, so not canonical in general)."""
    legs = [0] * t.n
    for mk, v in enumerate(t.legs, start=1):
        legs[perm[mk] - 1] = v
    return trees.MarkedTree(t.n, t.parents, tuple(legs))


def forget_by_contraction(t, keep):
    """Image stratum under forgetting the marks outside `keep`, or None.

    Forgets one mark at a time, highest first, renumbering the marks above
    it down by one.  A trivalent vertex losing its leg is contracted: with
    one edge its other leg moves to the neighbour, with two edges the
    neighbours are joined.  A vertex of valence 4 or more losing a leg
    lowers the image dimension, so the class dies.  Independent of the
    split projection forget_pushforward uses.
    """
    keep = set(keep)
    for drop in sorted(set(range(1, t.n + 1)) - keep, reverse=True):
        v = t.legs[drop - 1]
        if valence(t, v) >= 4:
            return None
        adj = adjacency(t)
        at = legs_at(t)
        others = [u for u in range(len(t.parents)) if u != v]
        new = {u: i for i, u in enumerate(others)}
        vertices = [[] for _ in others]
        for u in others:
            vertices[new[u]] += [("leg", mk if mk < drop else mk - 1) for mk in at[u]]
            vertices[new[u]] += [("edge", new[w]) for w in adj[u] if w != v]
        if len(adj[v]) == 1:
            (mk,) = [mk for mk in at[v] if mk != drop]
            vertices[new[adj[v][0]]].append(("leg", mk if mk < drop else mk - 1))
        else:
            a, b = adj[v]
            vertices[new[a]].append(("edge", new[b]))
        t = assemble(t.n - 1, vertices)
    return trees.canonical_form(t)


def glued_class_reference(splitvals, t_g, v_hat, mod_vertices, p_a, keep, mult,
                          limit_strata=None):
    """Column of one glued class of the degree-2 pushforward, by whole trees.

    Solves the vertex class in its small space, then for each basis
    coordinate builds the glued source tree (the small stratum at v_hat,
    points at the other moduli vertices) with glue_substitution, forgets
    down to `keep` from that tree's own splits with forget_pushforward, and
    reduces the image with class_reduce, which validates and canonicalises
    it again.  Summed over a column's cover types and source vertices and
    divided by the marking degree, it must give the pushforward's column,
    which builds no vertex space and no glued tree.
    """
    small = homology.homology_basis(valence(t_g, v_hat), 1, limit_strata)
    coords = homology.solve_class_from_pairings(
        small, {s: Fraction(w) for s, w in splitvals.items()}
    )
    col = {}
    for pos, c in sorted(coords.items()):
        subs = {
            u: trees.enumerate_strata(valence(t_g, u), 0)[0] for u in mod_vertices if u != v_hat
        }
        subs[v_hat] = small.strata[small.basis[pos]]
        img = trees.forget_pushforward(trees.glue_substitution(t_g, subs), keep)
        if img is None:
            continue
        for i, x in homology.class_reduce(p_a, {img: 1}).items():
            col[i] = col.get(i, 0) + mult * c * x
    return {i: x for i, x in col.items() if x}


def pushforward_matrix_reference(h, limit_tuples=None):
    """The curve-class pushforward matrix of h, column by column by the
    projection formula over cover types.

    Each target basis curve tau is degenerated three ways at its 4-valent
    vertex, and the covers over each degeneration smooth back to a cover
    type over tau on their old nodes (column_pairings_reference).  Each
    type is a family of source curves moving at one source vertex v_hat at
    a time; pushed along phi, which glues v_hat's vertex space into the
    source curve and forgets down to the retained marks, a flag split of
    the vertex space pairs at the split its union of flag blocks traces on
    the retained marks, and a flag block that traces a split there pairs
    minus psi of its flag (psi_pairing).  The pairings, weighted by the
    type's multiplicity and summed over types and source vertices, fix the
    column, solved once in the retained-mark presentation and over the
    marking degree.
    """
    full, deg_nu = hurwitz.fully_mark(h)
    aprime = [a for a in full.a_marks if a in set(full.forget_to)]
    renum = {full.a_marks.index(a) + 1: i for i, a in enumerate(aprime, start=1)}
    p_b = homology.homology_basis(len(full.b_marks), 1)
    p_a = homology.homology_basis(len(aprime), 1)
    columns = []
    for tau in p_b.basis_trees():
        pairs = {}
        for t, vertex_blocks, by_vertex in column_pairings_reference(full, tau, limit_tuples):
            mult = t.multiplicity
            for v_hat, splitvals in by_vertex.items():
                blocks = vertex_blocks[v_hat]
                for split, w in splitvals.items():
                    side = sum(blocks[p - 1] for p in trees.marks_of(split))
                    image = trees.project_split(side, renum)
                    if image:
                        pairs[image] = pairs.get(image, 0) + mult * w
                for i, b in enumerate(blocks, start=1):
                    image = trees.project_split(b, renum)
                    if image:
                        j, k = [p for p in (1, 2, 3) if p != i][:2]
                        psi = psi_pairing(len(blocks), splitvals, i, j, k)
                        pairs[image] = pairs.get(image, 0) - mult * psi
        coords = homology.solve_class_from_pairings(p_a, pairs)
        columns.append({i: c / deg_nu for i, c in coords.items()})
    return tuple(
        tuple(col.get(i, Fraction(0)) for col in columns) for i in range(p_a.rank)
    )


def column_pairings_reference(full, tau, limit_tuples=None):
    """Each cover type over tau as (type, the flag blocks of each source
    vertex, {source vertex: {flag split: weight}}), the pairings read off
    the covers over the three degenerations of tau.

    A refined cover's nodes over the new target edge, named by the split the
    degeneration added, are new and the rest old; the old nodes are the node
    data of the type it smooths to.  Each new node's split picks the one
    source vertex whose flag blocks each fall inside or outside it, and the
    flag split it pairs with there, with weight the product of the class's
    new ramifications over the node's own, times the number of classes with
    the class's nodes.  Raises AssertionError when a
    refined cover smooths to no type over tau, or when a type's local degree
    over a degeneration is not its class count.
    """
    # keyed by the node data in the order of the nodes of a class
    types = {tuple(sorted(t.node_data)): t
             for t in hurwitz.enumerate_cover_types(full, tau, limit_tuples)}
    views = {}  # node data -> the flag blocks of each source vertex
    for node_data, t in types.items():
        masks, _ = trees._validate(t.source_tree)
        views[node_data] = [
            t.source_tree.flag_masks(v, masks) for v in range(t.source_tree.num_vertices())
        ]

    # each boundary direction pairs two of the four flag blocks at the
    # 4-valent vertex, adding their union as a split
    blocks = homology.curve_blocks(tau)
    base = trees.split_set(tau)
    pairings = {}  # node data -> {source vertex: {flag split: weight}}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        cut = trees.split_of(tau.n, blocks[i] + blocks[j])
        tau_ref = trees.tree_from_splits(tau.n, base | {cut})
        local_deg = {}
        for nodes, count in hurwitz.enumerate_cover_classes(full, tau_ref, limit_tuples):
            old = []
            new = []
            for side, r, e in nodes:
                (new if e == cut else old).append((side, r))
            old = tuple(old)
            if old not in types:
                raise AssertionError("refined cover smooths to an unknown type")
            rprod = prod(r for _side, r in new)
            local_deg[old] = local_deg.get(old, 0) + count * rprod
            buckets = pairings.setdefault(old, {})
            for split, r in new:
                v, vb = next((v, vb) for v, vb in enumerate(views[old])
                             if all(b & split in (0, b) for b in vb))
                inside = sum(1 << pos for pos, b in enumerate(vb, start=1) if b & split)
                norm = trees.split_of(len(vb), inside)
                bucket = buckets.setdefault(v, {})
                bucket[norm] = bucket.get(norm, 0) + count * (rprod // r)
        for node_data, t in types.items():
            if local_deg.get(node_data, 0) != t.count:
                raise AssertionError(
                    "local degree %d != class count %d over a boundary direction"
                    % (local_deg.get(node_data, 0), t.count)
                )
    return [(t, views[node_data], pairings.get(node_data, {}))
            for node_data, t in types.items()]


def relabel_matrix(n, k, perm):
    """The matrix on H_{2k} of the n-mark space of relabelling mark m as
    perm[m - 1]: each basis stratum's splits renamed by a projection that
    forgets no mark, looked up in the presentation and reduced."""
    pres = homology.homology_basis(n, k)
    renum = {m: perm[m - 1] for m in range(1, n + 1)}
    mat = [[Fraction(0)] * pres.rank for _ in range(pres.rank)]
    for j, t in enumerate(pres.basis_trees()):
        splits = trees.project_splits(n, trees.split_set(t), renum)
        for i, c in pres.reduce_index_vec({pres.stratum_index(splits): 1}).items():
            mat[i][j] = c
    return mat


def self_matrix_reference(h):
    """The k = 1 self-correspondence matrix of h: the pushforward matrix
    times the relabelling matrix that renames retained mark j as the target
    mark identified with it, so column j pushes forward the target curve
    that retained basis curve j names."""
    pm = pushforward.pushforward_h2(h)
    position = {h.identify[b]: i for i, b in enumerate(h.b_marks, start=1)}
    perm = [position[a] for a in pm.aprime]
    return tuple(tuple(row) for row in linalg.mat_mul(pm.matrix, relabel_matrix(len(perm), 1, perm)))


def psi_pairing(m, splitvals, i, j, k):
    """psi_i paired with the curve class of the m-flag space whose split
    pairings are `splitvals`: the sum of the pairings of the splits whose
    side through i holds neither j nor k, for any j, k other than i (Keel,
    Trans. AMS 330, 1992; Kock, "Notes on psi classes", 2001)."""
    full = (1 << m + 1) - 2
    away = 1 << j | 1 << k
    return sum(w for s, w in splitvals.items() if not (s if s >> i & 1 else full ^ s) & away)


def validate_reference(h):
    """hurwitz.validate as it compared Counters, before it gathered the
    ramifications in one pass and walked them as sorted lists."""
    if len(set(h.a_marks)) != len(h.a_marks):
        return hurwitz.ValidationResult("invalid", "duplicate source marks")
    if len(set(h.b_marks)) != len(h.b_marks):
        return hurwitz.ValidationResult("invalid", "duplicate target marks")
    if set(h.a_marks) & set(h.b_marks):
        return hurwitz.ValidationResult("invalid", "source and target marks must be disjoint")
    if h.d < 1:
        return hurwitz.ValidationResult("invalid", "degree must be positive")
    if len(h.b_marks) < 3:
        return hurwitz.ValidationResult("invalid", "need at least 3 target marks")
    if set(h.f_map) != set(h.a_marks):
        return hurwitz.ValidationResult("invalid", "F must be defined exactly on the source marks")
    for a, b in h.f_map.items():
        if b not in h.b_marks:
            return hurwitz.ValidationResult("invalid", "F(%s)=%s is not a target mark" % (a, b))
    for b in h.br:
        if b not in h.b_marks:
            return hurwitz.ValidationResult("invalid", "branching over unknown mark %s" % b)
    for b in h.b_marks:
        parts = h.branching(b)
        if sum(parts) != h.d or any(p < 1 for p in parts):
            return hurwitz.ValidationResult("invalid", "br(%s)=%r is not a partition of %d" % (b, parts, h.d))
    if set(h.rm) != set(h.a_marks):
        return hurwitz.ValidationResult("invalid", "rm must be defined exactly on the source marks")
    total = sum(h.d - len(h.branching(b)) for b in h.b_marks)
    if total != 2 * h.d - 2:
        return hurwitz.ValidationResult(
            "invalid", "total branching %d != 2d-2 = %d" % (total, 2 * h.d - 2)
        )
    fully = True
    for b in h.b_marks:
        have = Counter(h.rm[a] for a in h.marks_over(b))
        want = Counter(h.branching(b))
        if have - want:
            return hurwitz.ValidationResult(
                "invalid", "marks over %s exceed its branching: %r vs %r" % (b, dict(have), dict(want))
            )
        if want - have:
            fully = False
    if h.forget_to is not None:
        if len(set(h.forget_to)) != len(h.forget_to) or not set(h.forget_to) <= set(h.a_marks):
            return hurwitz.ValidationResult("invalid", "forget_to must be distinct source marks")
    if h.identify is not None:
        kept = set(h.forget_to) if h.forget_to is not None else set(h.a_marks)
        if set(h.identify) != set(h.b_marks):
            return hurwitz.ValidationResult("invalid", "identify must be defined exactly on the target marks")
        vals = list(h.identify.values())
        if len(set(vals)) != len(vals) or not set(vals) <= kept:
            return hurwitz.ValidationResult("invalid", "identify must be a bijection onto the retained marks")
        if len(vals) != len(kept):
            return hurwitz.ValidationResult("invalid", "identify must cover all retained marks")
    return hurwitz.ValidationResult("fully_marked" if fully else "plain")


def fully_mark_reference(h):
    """hurwitz.fully_mark on a valid datum by Counters: the missing parts
    over each target mark are br(b) minus the source marks' ramifications
    as multisets.  Returns (the to_json_dict of the marked datum, degree)."""
    new_a = list(h.a_marks)
    f_map = dict(h.f_map)
    rm = dict(h.rm)
    deg = 1
    for b in h.b_marks:
        missing = Counter(h.branching(b)) - Counter(h.rm[a] for a in h.marks_over(b))
        for r in sorted(missing):
            for j in range(missing[r]):
                name = "a(%s,%d)" % (b, r) + "'" * j
                new_a.append(name)
                f_map[name] = b
                rm[name] = r
            deg *= factorial(missing[r])
    forget = h.forget_to if h.forget_to is not None else tuple(h.a_marks)
    full = hurwitz.HurwitzData(new_a, h.b_marks, h.d, f_map, h.br, rm, forget, h.identify)
    return full.to_json_dict(), deg


def portrait_datum(p, m):
    """The Thurston pullback correspondence of f = z^2 + c with 0 of period
    p (m = 1), or of its second iterate (m = 2), on the post-critical marks
    inf, x_0 = 0, ..., x_(p-1) of both sides (Douady-Hubbard, Acta Math.
    171, 1993; Koch, Adv. Math. 248, 2013).

    f has degree 2, sends inf to inf and x_i to x_(i+1 mod p), is ramified
    at inf and at x_0 and so branched over inf and over x_1 = c.  f^2 has
    degree 4, sends x_i to x_(i+2 mod p) and y = -x_(p-1) to x_1, and is
    totally ramified at inf, ramified at x_0 over x_2 and at x_(p-1) and y
    over x_1.  Source marks are named a_*, target marks b_*; every mark but
    y is retained, and each target mark is identified with the source mark
    of its name.
    """
    if m not in (1, 2):
        raise ValueError("only f and f^2 are built, got m=%r" % m)
    x = ["x%d" % i for i in range(p)]
    names = ["inf"] + x
    image = {"inf": "inf", **{x[i]: x[(i + m) % p] for i in range(p)}}
    if m == 1:
        br = {"inf": [2], x[1]: [2]}
        rm = {"inf": 2, x[0]: 2}
    else:
        image["y"] = x[1]
        br = {"inf": [4], x[1]: [2, 2], x[2]: [1, 1, 2]}
        rm = {"inf": 4, x[0]: 2, x[p - 1]: 2, "y": 2}
    return hurwitz.HurwitzData(
        a_marks=["a_" + s for s in image],
        b_marks=["b_" + s for s in names],
        d=2 ** m,
        f_map={"a_" + s: "b_" + t for s, t in image.items()},
        br={"b_" + t: parts for t, parts in br.items()},
        rm={"a_" + s: rm.get(s, 1) for s in image},
        forget_to=["a_" + s for s in names],
        identify={"b_" + s: "a_" + s for s in names},
    )


def char_poly_faddeev(a):
    """Characteristic polynomial by Faddeev-LeVerrier, in integers: n matrix
    products M_k = B (M_{k-1} + c_{k-1} I) with c_k = -tr(M_k) / k, over
    B = D A for D the lcm of A's denominators, skipping the zero entries of
    B.  Every c_k of the integer matrix B is an integer, and A's is
    c_k / D^k.  Coefficients [c_0, ..., c_n], lowest first, c_n = 1, all
    Fractions."""
    n = len(a)
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    nonzero = [[(t, int(Fraction(x) * den)) for t, x in enumerate(row) if x] for row in a]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum(x * m[t][j] for t, x in nonzero[i]) for j in range(n)] for i in range(n)]
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        assert rem == 0, "a trace of B's powers not divisible by k"
        coeffs[n - k] = Fraction(c, den ** k)
        for i in range(n):
            m[i][i] += c
    return coeffs


def poly_rem(a, b):
    """Remainder of a divided by b, exact Fraction arithmetic."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / b[-1]
        off = len(a) - len(b)
        for i in range(len(b) - 1):
            a[off + i] -= q * b[i]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def sturm_chain_reference(p):
    """The Sturm chain p, p', -rem(p, p'), ... of an integer polynomial by
    Fraction remainders (poly_rem), each member after p' scaled by a
    positive rational to integers with gcd 1."""
    chain = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while True:
        r = poly_rem(chain[-2], chain[-1])
        if not r:
            return chain
        den = lcm(*(c.denominator for c in r))
        ints = [-int(c * den) for c in r]
        g = gcd(*ints)
        chain.append([c // g for c in ints])



def largest_real_root_reference(coeffs):
    """The largest real root of an integer polynomial, or None, by the
    bisection linalg.largest_real_root shortcuts: from the Cauchy bound,
    every point counted on the whole Sturm chain (sturm_chain_reference),
    an integer root returned exactly once the bracket holds one root and is
    at most 1 wide, and otherwise the midpoint of the first bracket
    narrower than ROOT_TOL.  Brackets are (a / 2^e, b / 2^e] in integers."""

    def value(q, m, e):
        # 2^(e deg q) q(m / 2^e)
        return sum(c * m ** i << e * (len(q) - 1 - i) for i, c in enumerate(q))

    def changes(values):
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    p = list(coeffs)
    while p and p[-1] == 0:
        p.pop()
    if len(p) < 2:
        return None
    chain = sturm_chain_reference(p)
    at_inf = changes([q[-1] for q in chain])
    above = changes([q[-1] if len(q) % 2 else -q[-1] for q in chain]) - at_inf
    if not above:
        return None
    bound = 1 - (-max(abs(c) for c in p[:-1]) // abs(p[-1]))
    a, b, e = -bound, bound, 0

    def halve(a, b, e, above):
        s = 1
        while not value(p, (b << s) - (b - a), e + s):
            s += 1
        mid, e = (b << s) - (b - a), e + s
        n = changes([value(q, mid, e) for q in chain]) - at_inf
        return (mid, b << s, e, n) if n else (a << s, mid, e, above)

    while above > 1 or b - a > 1 << e:
        a, b, e, above = halve(a, b, e, above)
    m = b >> e
    if m << e > a and not value(p, m, 0):
        return float(m)
    while (b - a) / (1 << e) >= linalg.ROOT_TOL:
        a, b, e, above = halve(a, b, e, above)
    return (a + b) / (1 << (e + 1))

def brute_minimality_window(eps):
    """Direct check of the reduction-minimality criterion: no proper subset
    of the weights may have total in the open-closed window (1, T-1]."""
    T = sum(eps)
    n = len(eps)
    for bits in range(1, (1 << n) - 1):
        s = sum(eps[i] for i in range(n) if bits >> i & 1)
        if Fraction(1) < s <= T - 1:
            return False
    return True


def stable_vertices_reference(tree, eps):
    """Vertices whose flag weight sums, each truncated at 1, exceed 2,
    summed as Fractions over the flag mark sets by definition."""
    ws = [Fraction(w) for w in eps]
    out = []
    for v in range(len(tree.parents)):
        tot = Fraction(0)
        for ms in flag_marksets_by_definition(tree, v):
            s = sum(ws[i - 1] for i in ms)
            tot += min(s, Fraction(1))
        if tot > 2:
            out.append(v)
    return out


def stable_vertices_two_walks(tree, W, D):
    """hassett._stable_vertices as it was before it read the validating
    pass: the subtree masks and weighted subtree sums come from a second
    walk, up from each mark to the root.  Returns (stable vertices, masks)."""
    parents = tree.parents
    masks = [0] * len(parents)
    sub = [0] * len(parents)
    for mark, (w, v) in enumerate(zip(W, tree.legs), start=1):
        while v >= 0:
            masks[v] |= 1 << mark
            sub[v] += w
            v = parents[v]
    total = sub[parents.index(-1)]
    tot = [0] * len(parents)
    for w, v in zip(W, tree.legs):
        tot[v] += w  # the leg flags, each at most D
    for v, p in enumerate(parents):
        if p >= 0:
            down = sub[v]
            up = total - down
            tot[p] += down if down < D else D
            tot[v] += up if up < D else D
    twice = 2 * D
    return [v for v, x in enumerate(tot) if x > twice], masks


# -- labeled covers by exhaustive search ---------------------------------------


def count_covers_orbit_stabilizer_reference(h, limit_tuples=None):
    """Smooth-target count again, via the stabilizer sum over raw
    configurations; independent of the least-candidate search.  The datum is
    checked as the enumeration checks it (_cover_value), once per object.
    Each flag-permutation tuple is tested for transitivity and its
    centraliser found once, by a scan of every relabeling; a labeling's
    stabiliser is the part of that centraliser fixing each labelled cycle."""
    hurwitz._cover_value(h)
    tau = trees.trivial_tree(len(h.b_marks))
    limit = hurwitz._tuple_budget(limit_tuples)
    d = h.d
    flags = tau.flag_masks(0, trees._validate(tau)[0])
    local = hurwitz._local_assignments(h, flags, limit)
    all_p, _ = hurwitz._perm_pool(d)
    stab_total = 0
    for perms in local:
        labelings = hurwitz._vertex_labelings(h, flags, perms, limit)
        if not labelings or hurwitz._orbits(perms, d)[1] != 1:
            continue
        centraliser = [hh for hh in all_p if all(hurwitz._conj(hh, g) == g for g in perms)]
        for labeling in labelings:
            stab_total += sum(
                1 for hh in centraliser
                if all(hurwitz._cycle_image(hh, cyc) == cyc for (_pos, cyc) in labeling.values())
            )
    total = factorial(d)
    if stab_total % total:
        raise AssertionError("stabilizer sum %d not divisible by %d" % (stab_total, total))
    return stab_total // total


def _min_first(cyc):
    k = cyc.index(min(cyc))
    return tuple(cyc[k:]) + tuple(cyc[:k])


def _perm_cycles(p):
    """Cycles of p, each rotated to start at its least sheet."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen:
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append(_min_first(cyc))
    return out


def _bijections(sources, cycles, size):
    """All bijections sources -> cycles with size(source) == len(cycle), as
    pair lists."""
    if sorted(map(size, sources)) != sorted(map(len, cycles)):
        return []
    return [
        list(zip(sources, image))
        for image in itertools.permutations(cycles)
        if all(size(s) == len(c) for s, c in zip(sources, image))
    ]


def least_conjugate(perms):
    """The least tuple (r g r^-1 for g in perms) over every sheet
    relabelling r, by a scan of all of S_d, and the relabellings reaching
    it (one coset of the tuple's centraliser) in lexicographic order."""
    d = len(perms[0])
    best = None
    coset = []
    for r in itertools.permutations(range(d)):
        enc = tuple(tuple(r[g[r.index(i)]] for i in range(d)) for g in perms)
        if best is None or enc < best:
            best = enc
            coset = [r]
        elif enc == best:
            coset.append(r)
    return best, coset


def cover_orbit(h, tau, vertex_perms, labeling, matchings):
    """The encodings (conjugated flag permutations, relabelled mark cycles,
    relabelled edge matchings) of one labeled cover under every relabelling
    in (d!)^|V|, one sheet permutation per target vertex: its class.  The
    identity relabelling gives the cover's own encoding, its flag
    permutations, each mark's (mark, flag position, cycle) in a_marks order
    and each edge's sorted matchings."""
    mark_vertex = {a: tau.legs[h.b_marks.index(h.f_map[a])] for a in h.a_marks}
    orbit = set()
    for rls in itertools.product(itertools.permutations(range(h.d)), repeat=len(vertex_perms)):
        def image(w, cyc):
            return _min_first([rls[w][x] for x in cyc])

        enc_perms = []
        for w, perms in enumerate(vertex_perms):
            r = rls[w]
            enc_perms.append(tuple(
                tuple(r[g[r.index(i)]] for i in range(h.d)) for g in perms
            ))
        enc_label = tuple(
            (a, labeling[a][0], image(mark_vertex[a], labeling[a][1])) for a in h.a_marks
        )
        enc_match = tuple(
            tuple(sorted((image(c, x), image(p, y)) for x, y in pairs))
            for (c, p), pairs in zip(tau.edges(), matchings)
        )
        orbit.add((tuple(enc_perms), enc_label, enc_match))
    return orbit


def brute_cover_nodes(h, tau):
    """The labeled-cover classes of a fully marked datum over tau, as a
    Counter of their sorted (split, r, e) nodes.

    Enumerates every candidate without pruning: at each vertex every tuple of
    flag permutations whose product in flag order is the identity and whose
    leg permutations have the branching cycle type, every length-preserving
    attachment of the marks to leg cycles and every length-preserving
    matching of cycles across each edge.  Candidates whose component graph is
    not a tree are dropped.  The first candidate met of each class counts it,
    with its nodes, and marks its whole orbit (cover_orbit) as seen.  A
    node's split is read by a search of the component graph with that
    node's link cut (_far_marks), r is the length of its matched cycles and
    e the split of the target edge it lies over.
    """
    d = h.d
    sheets = list(itertools.permutations(range(d)))
    num_w = len(tau.parents)
    flags = [flags_by_definition(tau, w) for w in range(num_w)]

    def leg_type_ok(f, g):
        if f[0] != "leg":
            return True
        parts = h.br.get(h.b_marks[f[1] - 1], (1,) * d)
        return tuple(sorted(map(len, _perm_cycles(g)))) == tuple(parts)

    def product_is_identity(perms):
        for i in range(d):
            x = i
            for g in reversed(perms):
                x = g[x]
            if x != i:
                return False
        return True

    local = [
        [
            perms for perms in itertools.product(sheets, repeat=len(flags[w]))
            if product_is_identity(perms) and all(map(leg_type_ok, flags[w], perms))
        ]
        for w in range(num_w)
    ]
    edges = tau.edges()

    def flag_pos(w, u):
        return next(i for i, f in enumerate(flags[w]) if f[0] == "edge" and f[1] == u)

    n = len(h.a_marks)
    mark_vertex = {a: tau.legs[h.b_marks.index(h.f_map[a])] for a in h.a_marks}
    edge_splits = [normalize_split(tau.n, away_marks(tau, p, c)) for c, p in edges]
    seen = set()
    counts = Counter()
    for vertex_perms in itertools.product(*local):
        # components: orbits of the sheets under each vertex's permutations
        comp = {}
        for w, perms in enumerate(vertex_perms):
            for s in range(d):
                if (w, s) in comp:
                    continue
                orbit, frontier = {s}, [s]
                while frontier:
                    x = frontier.pop()
                    for g in perms:
                        if g[x] not in orbit:
                            orbit.add(g[x])
                            frontier.append(g[x])
                tag = len(set(comp.values()))
                for x in orbit:
                    comp[(w, x)] = tag
        n_comps = len(set(comp.values()))
        per_vertex_labelings = []
        for w, perms in enumerate(vertex_perms):
            choices = [{}]
            for pos, f in enumerate(flags[w]):
                if f[0] != "leg":
                    continue
                marks = [a for a in h.a_marks if h.f_map[a] == h.b_marks[f[1] - 1]]
                cycles = _perm_cycles(perms[pos])
                options = _bijections(marks, cycles, h.rm.get)
                choices = [
                    dict(base, **{a: (pos, cyc) for a, cyc in opt})
                    for base in choices for opt in options
                ]
            per_vertex_labelings.append(choices)
        per_edge_matchings = [
            [
                tuple(sorted(opt))
                for opt in _bijections(
                    _perm_cycles(vertex_perms[c][flag_pos(c, p)]),
                    _perm_cycles(vertex_perms[p][flag_pos(p, c)]),
                    len,
                )
            ]
            for c, p in edges
        ]
        for matchings in itertools.product(*per_edge_matchings):
            nodes = [
                (comp[(c, x[0])], comp[(p, y[0])], len(x), e)
                for (c, p), e, pairs in zip(edges, edge_splits, matchings) for x, y in pairs
            ]
            links = [(i, j) for i, j, _r, _e in nodes]
            if len(links) != n_comps - 1 or not _connected(n_comps, links):
                continue
            for parts in itertools.product(*per_vertex_labelings):
                labeling = {}
                for part in parts:
                    labeling.update(part)
                own = (
                    vertex_perms,
                    tuple((a, *labeling[a]) for a in h.a_marks),
                    tuple(matchings),
                )
                if own in seen:
                    continue
                seen |= cover_orbit(h, tau, vertex_perms, labeling, matchings)
                marks_on = {}
                for pos, a in enumerate(h.a_marks, start=1):
                    marks_on.setdefault(comp[(mark_vertex[a], labeling[a][1][0])], set()).add(pos)
                counts[tuple(sorted(
                    (normalize_split(n, _far_marks(links, cut, marks_on)), r, e)
                    for cut, (_i, _j, r, e) in enumerate(nodes)
                ))] += 1
    return counts


def _far_marks(links, cut, marks_on):
    """The marks on the components reached from the second end of
    links[cut] once that link is cut."""
    reach = {links[cut][1]}
    frontier = [links[cut][1]]
    while frontier:
        x = frontier.pop()
        for k, (i, j) in enumerate(links):
            if k != cut and x in (i, j):
                y = j if x == i else i
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return set().union(*(marks_on.get(x, ()) for x in reach))


def _connected(n, links):
    reach = {0}
    changed = True
    while changed:
        changed = False
        for i, j in links:
            if (i in reach) != (j in reach):
                reach |= {i, j}
                changed = True
    return len(reach) == n
