"""Homology of the marked-curve space, presented by boundary strata.

H_{2k} of the n-mark space is generated by the classes of k-dimensional
boundary strata, listed in a fixed order.  A presentation keeps the
greedy-prefix basis, the strata whose class is independent of the classes
of all earlier strata, and expresses every other stratum over the basis
strata before it.  Two routes build it, with the same result wherever both
apply.

Pairing route, for k = 0 and k = 1.  The intersection pairing of H_{2k}
with the dual degree is perfect (Keel, Trans. AMS 330, 1992), so a class is
fixed by its pairings with a spanning set of the dual degree: a point pairs
to 1 with the fundamental class, and a curve pairs with the boundary divisors
through the four flag blocks at its 4-valent vertex (`_curve_row`, at most 7
nonzeros).  Those blocks fix the class, so the route reduces one row per
curve class, keyed by the blocks as mark bitmasks (`curve_blocks`): 350 rows
for the 1,260 strata of (7,1), 1,701 for the 17,325 of (8,1).  The row is
the class's pairings plus 1 in the stratum's own column; one reduction
against the rows of the basis strata before it either leaves a split column
(a new basis stratum) or reads off the stratum's expression, which every
later stratum of that class shares.  A class first met on a basis stratum
is reduced once more, on its next stratum.  The presentation keeps that row
space, and `solve_class_from_pairings` is one more reduction against it.

Relation route, for every other degree.  The relations live on
(k+1)-dimensional strata: at a vertex v with four distinguished flags, the
three ways of pairing the four flags two against two give equal class sums
over all distributions of v's remaining flags, each term being the stratum
refined at v accordingly (the four-point or WDVV relations; Keel, Trans.
AMS 330, 1992).  `km_relations` keeps only the quadruples through flags 0
and 1 of each vertex, two differences each (the third is their
difference), and these span all of them:
- at a vertex with m flags the rows are the image of the WDVV divisor
  relations of the m-mark space under refining sigma at v, a linear map;
- on five flags the quadruples through a fixed pair span every relation, a
  finite check (the (5,1) rows);
- pulling back along forgetting all but five flags sends each five-flag
  relation to the m-flag relation of the same name;
- so a quadruple without flag 0 is rewritten on the five flags
  {0, i, j, k, l} over quadruples through {0, i}, and a quadruple with 0
  but not 1 on {0, 1, i, k, l} over quadruples through {0, 1}.
The relation rows are eliminated with stratum i in column -i, so each row's
minimal pivot column is its latest stratum; the non-pivot strata are the
basis, and every pivot stratum is expressed over earlier basis strata by its
primitive row, read over the row's pivot entry.  The row space keeps
canonical rows, so any spanning set in any order gives the same basis and
rows.  Divisor classes (k = n-4 > 1) stay here: pairing them with the curve
basis costs far more than their relations do.

A presentation looks its strata up by split set (`trees.split_set`), so a
class given on trees in any encoding, or as the split sets of strata whose
marks were renamed, is reduced with no canonical tree built.

homology_basis keeps each presentation per (n, k) for the life of the
process through `trees.Budget.replay`, as trees keeps strata: a capped call
ticks once per stratum the presentation enumerates (`trees._strata`), on a
miss and on a hit alike, so `limit_strata` counts as if nothing were kept.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import linalg, trees


def km_relations(n, k):
    """The relation vectors among k-dim stratum classes, as {tree: int} dicts.

    At each vertex of valence m >= 4 of each (k+1)-dim stratum sigma, the
    quadruples (0, 1, i3, i4) of flags in `flag_masks` order, each giving the
    two differences of its first pairing sum with the other two; together
    they span every four-point relation (module docstring).  For k = n-3
    the single fundamental class has no relations.  Refining sigma at v by
    moving some of its flags onto a new vertex adds one split, the union of
    the moved flag blocks (the sum of their disjoint masks), so each term is
    looked up by its split set.  Sigma's splits and flags are read from one
    walk of it (trees._validate).

    Deduplicated (sign-normalised) and sorted by index tuple read from the
    latest stratum down: a row's pivot is its latest stratum.  Adding the
    rows in this order still back-substitutes often: at (7,2) the 532 rows
    give 363 pivots and back-substitute into stored rows 1,411 times.  The
    reversed order takes 11,275 back-substitutions and a shuffled one
    19,180, and the RowSpace build 2.9 and 14 times as long.
    """
    if not (0 <= k <= n - 3):
        raise ValueError("k must be between 0 and n-3")
    if k == n - 3:
        return []
    strata = trees.enumerate_strata(n, k)
    index = {t: i for i, t in enumerate(strata)}
    by_splits = {trees.split_set(t): t for t in strata}
    rows = []
    for sigma in trees.enumerate_strata(n, k + 1):
        masks, order = trees._validate(sigma)
        base = frozenset([trees.split_of(n, masks[v]) for v in order])
        for v, val in enumerate(sigma.valences()):
            if val < 4:
                continue
            blocks = sigma.flag_masks(v, masks)
            for i3, i4 in itertools.combinations(range(2, val), 2):
                rest = [f for f in range(2, val) if f != i3 and f != i4]
                sums = []
                for b in (1, i3, i4):
                    acc = {}
                    for r in range(len(rest) + 1):
                        for d1 in itertools.combinations(rest, r):
                            side = blocks[0] + blocks[b] + sum(blocks[f] for f in d1)
                            t = by_splits[base | {trees.split_of(n, side)}]
                            acc[t] = acc.get(t, 0) + 1
                    sums.append(acc)
                for y in (1, 2):
                    row = linalg.axpy(dict(sums[0]), -1, sums[y])
                    if row:
                        rows.append(row)
    # dedup by sign-normalised index vector, then order by latest stratum
    seen = {}
    for row in rows:
        items = sorted((index[t], c) for t, c in row.items())
        if items[0][1] < 0:
            items = [(i, -c) for i, c in items]
        seen.setdefault(tuple(items), row)
    return [seen[key] for key in sorted(seen, key=lambda key: key[::-1])]


class HomologyPresentation:
    """Strata and a quotient basis for H_{2k} of the n-mark space.

    Each non-basis stratum i keeps its expression over the basis strata as
    the integer row it was read from, `int_expr[i] = (den, {basis pos: x})`
    meaning sum x/den times the basis class: the relation route's primitive
    row with pivot entry den, or the pairing route's reduction with common
    denominator den.  At k = 0 every stratum shares the one row (1, {0: 1}).
    Rows are read-only, and strata of one class may share one; callers
    read expressions through
    `integer_coords`, which reduces a class in integers, or
    `reduce_index_vec`, which divides by one common denominator at the end.

    A stratum is looked up by its split set: `index` maps each stratum's
    split set to its index and is built the first time it is read, so a
    presentation nobody looks up in pays nothing for it, and
    `stratum_index` is the one lookup.  `reduce_tree_dict` takes trees in
    any valid encoding and builds no canonical tree.
    """

    def __init__(self, n, k, strata, basis, int_expr, pairing_space=None):
        self.n = n
        self.k = k
        self.strata = strata                    # deterministic list of trees
        self.basis = basis                      # stratum indices, increasing
        self.pos = {b: j for j, b in enumerate(basis)}
        self.int_expr = int_expr                # pivot idx -> (den, {basis pos: int})
        self.rank = len(basis)
        self._pairing_space = pairing_space     # k = 1: the basis strata's pairing rows

    def integer_coords(self, vec):
        """Sparse {stratum index: coeff} -> (v, L), the coordinates over the
        basis being v/L with v an integer {basis pos: int} and L > 0.

        L is the lcm of den x coeff denominator over the strata of vec, so
        every term is an integer multiple of its row, and v is L times the
        Fraction sum at every step: zeros drop at the same points and the
        keys come in the same order.
        """
        pos, int_expr = self.pos, self.int_expr
        terms = []
        big = 1
        for i, c in vec.items():
            if not c:
                continue
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            j = pos.get(i)
            den, row = int_expr[i] if j is None else (1, {j: 1})
            big = lcm(big, den * c.denominator)
            terms.append((c, den, row))
        v = {}
        for c, den, row in terms:
            linalg.axpy(v, c.numerator * (big // (den * c.denominator)), row)
        return v, big

    def reduce_index_vec(self, vec):
        """Sparse {stratum index: coeff} -> coordinates {basis pos: Fraction}."""
        return linalg.fractions_over(*self.integer_coords(vec))

    @cached_property
    def index(self):
        """Split set (trees.split_set) -> stratum index, built when first read."""
        return {trees.split_set(t): i for i, t in enumerate(self.strata)}

    def stratum_index(self, splits):
        """The index of the stratum cut by the split_of masks `splits`."""
        i = self.index.get(frozenset(splits))
        if i is None:
            raise AssertionError("canonical stratum missing from presentation")
        return i

    def reduce_tree_dict(self, vec):
        """Sparse {tree: coeff}, any valid encodings -> coordinates
        {basis pos: Fraction}, each tree looked up by its split set."""
        idx_vec = {}
        for t, c in vec.items():
            splits = trees.split_set(t)
            if t.n != self.n or len(splits) != self.n - 3 - self.k:
                raise ValueError("vector contains a stratum of the wrong space or degree")
            i = self.stratum_index(splits)
            idx_vec[i] = idx_vec.get(i, 0) + c
        return self.reduce_index_vec(idx_vec)

    def basis_trees(self):
        return [self.strata[b] for b in self.basis]


_PRESENTATIONS = {}  # (n, k) -> (HomologyPresentation, its stratum count), built once per process


def _relation_presentation(n, k, strata):
    """Basis and expressions from the relation rows (see module docstring)."""
    column = {t: -i for i, t in enumerate(strata)}
    space = linalg.RowSpace()
    for row in km_relations(n, k):
        space.add({column[t]: c for t, c in row.items()})
    rows = space.rows
    basis = [i for i in range(len(strata)) if -i not in rows]
    pos = {-b: j for j, b in enumerate(basis)}
    int_expr = {}
    for p, row in rows.items():
        a = row[p]
        int_expr[-p] = (a, {pos[col]: -x for col, x in row.items() if col != p})
    return basis, int_expr


def _pairing_presentation(n, k, strata):
    """Basis and expressions from pairings with the dual degree, k = 0 or 1,
    and for k = 1 the row space of the basis strata's pairing rows.

    Stratum i's row holds its pairings in the split columns, which lie below
    every stratum column, and 1 in its own column -i.  A row whose reduction
    keeps no split column is dependent: the reduction is 1 at -i and minus
    stratum i's expression over the basis strata elsewhere.  Only the
    independent rows are stored.

    A curve's pairings, so its class, depend only on the four flag blocks
    at its 4-valent vertex, keyed as their tuple in flag order
    (curve_blocks).  A stratum whose key an earlier dependent stratum had
    shares that stratum's read-only expression; one whose key so far only a
    basis stratum had is reduced, and it is dependent.
    """
    if k == 0:
        # every point is the point class; the strata share one read-only row
        return [0], dict.fromkeys(range(1, len(strata)), (1, {0: 1})), None
    column = _pairing_columns(n, len(strata))
    space = linalg.RowSpace()
    basis = []
    pos = {}  # column -b of a basis stratum b -> its basis position
    int_expr = {}
    seen = {}  # curve class key -> its expression, None while only a basis stratum had it
    for i, t in enumerate(strata):
        key = curve_blocks(t)
        entry = seen.get(key)
        if entry is not None:
            int_expr[i] = entry
            continue
        row = _curve_row(n, key, column)
        row[-i] = 1
        v, den = space.reduce(row)
        if min(v) < 1 - len(strata):
            pos[-i] = len(basis)
            basis.append(i)
            space.add(v)
            seen[key] = None
        else:
            del v[-i]
            int_expr[i] = seen[key] = (den, {pos[col]: -x for col, x in v.items()})
    return basis, int_expr, space


def _presentation(n, k, budget):
    strata = list(trees._strata(n, k, budget))
    if k <= 1:
        basis, int_expr, space = _pairing_presentation(n, k, strata)
    else:
        basis, int_expr = _relation_presentation(n, k, strata)
        space = None
    return HomologyPresentation(n, k, strata, basis, int_expr, space)


def homology_basis(n, k, limit_strata=None):
    """The cached presentation of H_{2k}; optionally capped by stratum count.

    The cap ticks once per stratum of the presentation, kept or not, so an
    oversized request stops after limit_strata + 1 trees, and a kept one
    longer than the cap raises at once.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not (0 <= k <= n - 3):
        raise ValueError("k must be between 0 and n-3, got k=%d" % k)
    over = "presentation for (n=%d, k=%d) needs more than %s strata" % (n, k, limit_strata)
    return trees.Budget(limit_strata, over).replay(_PRESENTATIONS, (n, k), _presentation, n, k)


def class_reduce(pres, vec):
    """Express a {tree: coeff} class in the quotient basis of `pres`."""
    return pres.reduce_tree_dict(vec)


def homology_dims(n, limit_strata=None):
    return {k: homology_basis(n, k, limit_strata).rank for k in range(0, n - 2)}


# -- intersection pairing against boundary divisors -------------------------


def curve_blocks(tree):
    """The four flag blocks at the 4-valent vertex of a 1-dim stratum, as a
    tuple of mark bitmasks in flag order (MarkedTree.flag_masks).  The order
    is read off the blocks themselves, so the tuple is the same for every
    encoding of every stratum with those blocks: equal tuples mean equal
    pairings, so equal classes.  The blocks are read from the validating
    pass (trees._validate), which raises ValueError on a malformed tree; a
    tree that is not 1-dimensional raises too.

    A valid tree with m vertices on n marks has dimension n - 2 - m, so it
    is 1-dimensional when m = n - 3, and then every vertex is 3-valent but
    one.  That vertex is found from the edge counts the pass keeps per
    parent tuple (trees._parent_order) and one count of the legs."""
    masks, _ = trees._validate(tree)
    parents = tree.parents
    if len(parents) != tree.n - 3:
        raise ValueError("pairing requires a 1-dimensional stratum")
    val = list(trees._parent_order(parents)[2])
    for v in tree.legs:
        val[v] += 1
    return tuple(tree.flag_masks(val.index(4), masks))


def intersection_pairing_h2(tree, split):
    """Pairing of a 1-dim stratum class with the boundary divisor of a split,
    given as the mark bitmask of either side.

    The stratum has a unique 4-valent vertex whose flags partition the marks
    into four blocks.  The divisor meets the stratum curve transversally in
    one point when one side of the split is a union of exactly two blocks
    (+1), contains it with self-intersection -1 when a side is a single
    block, and is disjoint otherwise (0).  The value is read from the
    curve's row of pairings with every divisor (`_curve_row`), kept per tree.
    """
    row = _pairing_row(tree)
    side = trees.split_of(tree.n, split)
    if not (2 <= side.bit_count() <= tree.n - 2):
        raise ValueError("not a 2-sided split with both sides of size >= 2")
    return row.get(_split_columns(tree.n)[side], 0)


@lru_cache(maxsize=None)
def _pairing_row(tree):
    """The 1-dim stratum's pairings with every boundary divisor,
    {all_splits position: int}, built once per tree from its validated
    flag blocks (curve_blocks); a tree that raises is not kept, so it
    raises again on every call."""
    return _curve_row(tree.n, curve_blocks(tree), _split_columns(tree.n))


@lru_cache(maxsize=None)
def _split_columns(n):
    """Split mask -> its position in all_splits(n)."""
    return {s: j for j, s in enumerate(trees.all_splits(n))}


def _curve_row(n, blocks, column):
    """Pairings of a 1-dim stratum of the n-mark space with every boundary
    divisor, as a sparse {column[split]: int} row, from the four flag blocks
    at its 4-valent vertex (curve_blocks); the one statement of the
    pairing, which intersection_pairing_h2 reads.

    -1 on each block that is a split, +1 on the three unions of two blocks,
    0 elsewhere.  The unions of any one block with the other three are those
    three splits, once split_of names them, so any block can come first.
    """
    first, *others = blocks
    row = {}
    for b in blocks:
        if b & b - 1:
            row[column[trees.split_of(n, b)]] = -1
    for b in others:
        row[column[trees.split_of(n, first + b)]] = 1
    return row


def pairing_rows(pres):
    """For each split (all_splits order) the pairing row over the basis."""
    if pres.k != 1:
        raise ValueError("pairings live on 1-dimensional stratum classes")
    column = _split_columns(pres.n)
    rows = [{} for _ in column]
    for j, b in enumerate(pres.basis):
        for c, val in _curve_row(pres.n, curve_blocks(pres.strata[b]), column).items():
            rows[c][j] = Fraction(val)
    return rows


def _pairing_columns(n, count):
    """Split mask -> its column in a pairing row, all below the stratum
    columns 0, -1, ..., 1 - count."""
    splits = _split_columns(n)
    low = -len(splits) - count
    return {s: low + j for s, j in splits.items()}


def solve_class_from_pairings(pres, pairings):
    """The H_2 class with the given split pairings, in coordinates of the
    k = 1 presentation `pres` that homology_basis returned.

    `pairings` maps split masks of either side to rationals; missing splits
    are treated as zero.  Integer values stay integers and every other value
    becomes a Fraction, so integer data is reduced in integers.  The vector
    is reduced against the basis strata's pairing rows: a surviving split
    column means no class matches, and otherwise the stratum columns hold
    minus the coordinates.  Raises ValueError on bits outside marks 1..n, on
    unknown splits, on two values for one split and on inconsistent data.
    """
    if pres.k != 1:
        raise ValueError("pairings live on 1-dimensional stratum classes")
    n, count = pres.n, len(pres.strata)
    column = _split_columns(n)
    given = {}
    for s, val in pairings.items():
        side = trees.split_of(n, s)
        if type(val) is not int:
            val = Fraction(val)
        if given.setdefault(side, val) != val:
            raise ValueError("pairings give split %s two values: %s and %s"
                             % (list(trees.marks_of(side)), given[side], val))
    unknown = given.keys() - column
    if unknown:
        raise ValueError("pairings mention unknown splits: %r"
                         % sorted(list(trees.marks_of(s)) for s in unknown))
    # split s sits in column low + column[s] of _pairing_columns(n, count)
    low = -len(column) - count
    v, den = pres._pairing_space.reduce({low + column[s]: val for s, val in given.items()})
    if v and min(v) < 1 - count:
        raise ValueError("pairing system for n=%d: inconsistent system: "
                         "0 = nonzero after elimination" % n)
    return linalg.fractions_over({pres.pos[-col]: -x for col, x in v.items()}, den)


# -- pushing classes along forgetful maps -----------------------------------


def forget_vec(vec, keep):
    """Push a {tree: coeff} class forward by forgetting marks outside keep.

    Strata whose class dies (dimension drop) are removed; survivors keep
    coefficient 1 per stratum since the map is birational onto its image.
    """
    out = {}
    for t, c in vec.items():
        img = trees.forget_pushforward(t, keep)
        if img is not None:
            linalg.axpy(out, 1, {img: c})
    return out
