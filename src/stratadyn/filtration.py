"""Partition filtration of stratum homology.

A k-dim stratum induces the partition of k by its positive per-vertex moduli
counts.  Partitions of k are ordered by grouping: lam <= mu iff mu's parts
can be obtained by merging lam's parts.  The filtration piece for mu is the
span of all stratum classes with partition <= mu; the strictly-below space
for the maximal partition (k) is spanned by the strata with at least two
moduli vertices, and the omega quotient is H_{2k} modulo that span.

A subspace is a row space (`linalg.RowSpace`) in quotient-basis
coordinates, {basis position: coefficient} over the presentation's basis
strata.

Every span adds its strata's classes in stratum order (`_span`), and
filtration_dims spans each distinct generator list once: at (7,2) the level
(1,1) and the strictly-below span are one list of 280 strata.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from . import homology, linalg, trees


def partitions_of(k):
    """All partitions of k as ascending tuples, deterministic order."""

    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for p in range(min(total, maxpart), 0, -1):
            for rest in gen(total - p, p):
                yield rest + (p,)

    return sorted(gen(k, k))


@lru_cache(maxsize=None)
def partition_leq(lam, mu):
    """lam <= mu iff mu's parts arise by grouping (summing) lam's parts.
    Raises ValueError unless every part of both is at least 1: with a part
    0 the order is not antisymmetric."""
    if any(p < 1 for p in lam) or any(p < 1 for p in mu):
        raise ValueError("partition parts must be >= 1, got %r and %r" % (lam, mu))
    lam = tuple(sorted(lam))
    mu = tuple(sorted(mu))
    if sum(lam) != sum(mu):
        return False
    parts = sorted(lam, reverse=True)
    caps = list(mu)

    def place(i):
        if i == len(parts):
            return all(c == 0 for c in caps)
        tried = set()
        for j in range(len(caps)):
            if caps[j] >= parts[i] and caps[j] not in tried:
                tried.add(caps[j])
                caps[j] -= parts[i]
                if place(i + 1):
                    caps[j] += parts[i]
                    return True
                caps[j] += parts[i]
        return False

    return place(0)


def realizable(n, k, lam):
    """Whether some k-dim stratum of the n-mark space has partition lam.

    A chain of len(lam) moduli vertices plus trivalent padding needs at least
    sum(lam) + len(lam) + 2 marks.
    """
    lam = tuple(sorted(lam))
    if sum(lam) != k or any(p < 1 for p in lam):
        return False
    return len(lam) <= n - k - 2


class FiltrationSubspace(linalg.RowSpace):
    """A subspace of H_{2k}: a row space in quotient-basis coordinates."""

    # a no-op override: perfbench/tracing.py wraps `contains` from this
    # class's own __dict__, and its smoke test requires every listed name to
    # be found; the subclass can go when `tracing.WRAPPED` drops the name
    contains = linalg.RowSpace.contains


def _span(pres, indices):
    """The span of the classes of the strata `indices`, added in order.

    The stored rows are canonical for their space and a dependent generator
    inserts nothing, so two kinds of generator are left out: a stratum whose
    expression uses only basis strata already added lies in the span, and
    once the span is all of H_{2k} no later generator would change a row.
    """
    sub = FiltrationSubspace()
    added = set()  # the basis positions of the basis strata added so far
    for i in indices:
        j = pres.pos.get(i)
        if j is not None:
            added.add(j)
        elif pres.int_expr[i][1].keys() <= added:
            continue
        sub.add(pres.integer_coords({i: 1})[0])
        if sub.dim() == pres.rank:
            break
    return sub


def _lambda_indices(parts, lam):
    return [i for i, p in enumerate(parts) if partition_leq(p, lam)]


def _below_indices(parts):
    return [i for i, p in enumerate(parts) if len(p) >= 2]


def _partitions(pres):
    return [trees.induced_partition(t) for t in pres.strata]


def lambda_subspace(n, k, lam, limit_strata=None):
    """Span of the classes of strata with partition <= lam."""
    lam = tuple(sorted(lam))
    if sum(lam) != k or any(p < 1 for p in lam):
        raise ValueError("lam must be a partition of k")
    pres = homology.homology_basis(n, k, limit_strata)
    return _span(pres, _lambda_indices(_partitions(pres), lam))


def below_subspace(n, k, limit_strata=None):
    """Span of the classes of k-dim strata with >= 2 moduli vertices (the
    part of the filtration strictly below the maximal partition (k))."""
    pres = homology.homology_basis(n, k, limit_strata)
    return _span(pres, _below_indices(_partitions(pres)))


class OmegaQuotient:
    """H_{2k} modulo the strictly-below span, with a projection map.

    The quotient basis is the set of presentation basis positions that are
    not pivots of the subspace's echelon form; projecting reduces a vector by
    the subspace rows and reads off the surviving coordinates.
    """

    def __init__(self, below, rank):
        self.below = below
        self.positions = [j for j in range(rank) if j not in below.rows]

    def dim(self):
        return len(self.positions)

    def project(self, coords):
        # a residual's columns are non-pivots, so each is found in positions
        res = self.below.residual(coords)
        return {bisect_left(self.positions, p): c for p, c in res.items()}


def omega_quotient(n, k, limit_strata=None):
    pres = homology.homology_basis(n, k, limit_strata)
    return OmegaQuotient(below_subspace(n, k, limit_strata), pres.rank)


def _filtration_spans(n, k, limit_strata=None):
    """({partition: span} for every realizable partition of k, the
    strictly-below span), each distinct generator list spanned once."""
    pres = homology.homology_basis(n, k, limit_strata)
    parts = _partitions(pres)
    spans = {}

    def span(indices):
        key = tuple(indices)
        if key not in spans:
            spans[key] = _span(pres, indices)
        return spans[key]

    levels = {lam: span(_lambda_indices(parts, lam))
              for lam in partitions_of(k) if realizable(n, k, lam)}
    return levels, span(_below_indices(parts))


def filtration_dims(n, k, limit_strata=None):
    """{partition: dim} for every realizable partition of k, plus the
    strictly-below span and the omega quotient."""
    levels, below = _filtration_spans(n, k, limit_strata)
    out = {lam: sub.dim() for lam, sub in levels.items()}
    rank = homology.homology_basis(n, k, limit_strata).rank
    return out, below.dim(), rank - below.dim()
