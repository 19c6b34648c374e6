"""Weighted stability, minimal weight data, and reduction kernels.

A weight datum assigns each mark a rational weight in (0, 1] with total
above 2.  A vertex of a stratum tree is weight-stable when the flag sums,
truncated at 1, exceed 2.  A weight datum is reduction-minimal exactly when
no subset of the weights has total in the window (1, T-1], T the full total;
minimal data collapse every stratum tree to a single stable vertex, and the
kernel of the induced map on H_{2k} is spanned by strata whose stable vertex
carries too few moduli together with differences of strata with equal image
data (Hassett, Adv. Math. 173, 2003).

The one validating pass (`trees._validate`) gives every subtree's mark
bitmask and an order of the vertices from the leaves up, along which the
weights are summed, so the stable vertex's flags come out as masks.  The
kernel buckets strata by the image key (the frozenset of those flag masks,
the vertex's moduli count).
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import lcm

from . import homology, linalg, trees

ONE = Fraction(1)


def validate_weights(eps, n=None):
    """Normalise to a tuple of Fractions; enforce (0,1] entries, total > 2."""
    ws = tuple(Fraction(w) for w in eps)
    if n is not None and len(ws) != n:
        raise ValueError("expected %d weights, got %d" % (n, len(ws)))
    if len(ws) < 4:
        raise ValueError("need at least 4 weights")
    for w in ws:
        if not (0 < w <= 1):
            raise ValueError("weights must lie in (0, 1], got %s" % w)
    if sum(ws) <= 2:
        raise ValueError("weights must sum to more than 2")
    return ws


def is_minimal(eps):
    """No subset of the weights sums into (1, T-1]: meet-in-the-middle."""
    ws = validate_weights(eps)
    total = sum(ws)
    half = len(ws) // 2
    left, right = ws[:half], ws[half:]

    def subset_sums(part):
        sums = [Fraction(0)]
        for w in part:
            sums += [s + w for s in sums]
        return sums

    lo, hi = ONE, total - 1
    if hi < lo:
        return True
    rsums = sorted(subset_sums(right))
    for a in subset_sums(left):
        # look for b with lo - a < b <= hi - a
        i = bisect.bisect_right(rsums, lo - a)
        if i < len(rsums) and rsums[i] <= hi - a:
            return False
    return True


def epsilon_dagger(n):
    """The canonical minimal weight datum: near-uniform weights just above
    2/n, perturbed so that no subset sum lands in the critical window."""
    if n < 4:
        raise ValueError("need n >= 4")
    base = Fraction(2, n)
    bump = Fraction(1, 10 ** n)
    if n % 2 == 1:
        return tuple(base + bump for _ in range(n))
    small = Fraction(1, n * 10 ** n)
    return (base + bump,) + tuple(base - small for _ in range(n - 1))


def stable_vertices(tree, eps):
    """Vertices whose truncated flag weight sums exceed 2.  Raises
    ValueError on a malformed tree or invalid weights."""
    walk = trees._validate(tree)
    ws = validate_weights(eps, tree.n)
    return _stable_vertices(tree, walk, *_integer_weights(ws))[0]


def _integer_weights(ws):
    """Validated weights as integers W_i over their common denominator D."""
    den = 1
    for w in ws:
        den = lcm(den, w.denominator)
    return tuple(w.numerator * (den // w.denominator) for w in ws), den


def _stable_vertices(tree, walk, W, D):
    """stable_vertices for integer weights W over D, and the tree's
    subtree masks: v is stable when the sum over its flags of min(S, D), S
    the flag's weight, exceeds 2D.  walk is the tree's validating pass
    (trees._validate): its subtree masks and its non-root vertices from the
    leaves up.

    The weights are summed up the edges in that order, so every flag weight
    comes from one pass: an edge flag towards a child weighs the child's
    subtree, the one towards the parent the total less v's own subtree, and
    a leg weighs its mark, never more than D.
    """
    masks, order = walk
    parents = tree.parents
    sub = [0] * len(parents)
    for w, v in zip(W, tree.legs):
        sub[v] += w
    tot = list(sub)  # the leg flags, each at most D
    for v in order:
        sub[parents[v]] += sub[v]
    total = sub[parents.index(-1)]
    for v in order:
        down = sub[v]
        up = total - down
        tot[parents[v]] += down if down < D else D
        tot[v] += up if up < D else D
    twice = 2 * D
    return [v for v, x in enumerate(tot) if x > twice], masks


def _image_key(tree, W, D):
    """The image type as (frozenset of the stable vertex's flag masks, its
    moduli count), read off the one pass of _stable_vertices."""
    stable, masks = _stable_vertices(tree, trees._validate(tree), W, D)
    if len(stable) != 1:
        raise ValueError(
            "expected exactly one stable vertex (minimal weights), found %d" % len(stable)
        )
    flags = tree.flag_masks(stable[0], masks)
    blocks = frozenset(flags)
    if len(blocks) != len(flags):
        raise AssertionError("flag blocks must be pairwise distinct")
    return blocks, len(flags) - 3


def reduction_kernel(n, k, eps, limit_strata=None):
    """Kernel of the reduction pushforward on H_{2k} for minimal weights.

    Spanned by the classes of strata whose stable vertex has fewer than k
    moduli, plus differences of strata sharing a full image type of
    dimension k.  Rejects non-minimal weight data.
    """
    ws = validate_weights(eps, n)
    if not is_minimal(ws):
        raise ValueError("weight datum is not reduction-minimal")
    W, D = _integer_weights(ws)
    pres = homology.homology_basis(n, k, limit_strata)
    sub = linalg.RowSpace()
    buckets = {}
    for i, t in enumerate(pres.strata):
        key = _image_key(t, W, D)
        if key[1] < k:
            sub.add(pres.integer_coords({i: 1})[0])
        else:
            rep = buckets.get(key)
            if rep is None:
                buckets[key] = i
            else:
                # strata with equal expression rows have one class, and
                # their zero difference would add nothing
                row = pres.int_expr.get(i)
                if row is None or row != pres.int_expr.get(rep):
                    sub.add(pres.integer_coords({rep: 1, i: -1})[0])
    return sub
