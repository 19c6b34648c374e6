"""Partition filtration of stratum homology.

A k-dim stratum induces the partition of k by its positive per-vertex moduli
counts.  Partitions of k are ordered by grouping: lam <= mu iff mu's parts
can be obtained by merging lam's parts.  The filtration piece for mu is the
span of all stratum classes with partition <= mu; the strictly-below space
for the maximal partition (k) is spanned by the strata with at least two
moduli vertices, and the omega quotient is H_{2k} modulo that span.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import homology, linalg, trees

ZERO = Fraction(0)


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
    """lam <= mu iff mu's parts arise by grouping (summing) lam's parts."""
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


class FiltrationSubspace:
    """A subspace of H_{2k} in quotient-basis coordinates."""

    def __init__(self, pres):
        self.pres = pres
        self.space = linalg.RowSpace()

    def add_generator(self, coords):
        self.space.add(coords)

    def dim(self):
        return self.space.dim()

    def contains(self, coords):
        return self.space.contains(coords)

    def is_subspace_of(self, other):
        return self.space.is_subspace_of(other.space)

    def equals(self, other):
        return self.space.equals(other.space)


def lambda_subspace(n, k, lam, limit_strata=None):
    """Span of the classes of strata with partition <= lam.

    Generators stop once they span all of H_{2k}: the stored rows are
    canonical for their space and a dependent generator inserts nothing, so
    the later ones would change no row.
    """
    lam = tuple(sorted(lam))
    if sum(lam) != k:
        raise ValueError("lam must be a partition of k")
    pres = homology.homology_basis(n, k, limit_strata)
    sub = FiltrationSubspace(pres)
    for i, t in enumerate(pres.strata):
        if partition_leq(trees.induced_partition(t), lam):
            sub.add_generator(pres.integer_coords({i: 1})[0])
            if sub.dim() == pres.rank:
                break
    return sub


def below_subspace(n, k, limit_strata=None):
    """Span of the classes of k-dim strata with >= 2 moduli vertices (the
    part of the filtration strictly below the maximal partition (k))."""
    pres = homology.homology_basis(n, k, limit_strata)
    sub = FiltrationSubspace(pres)
    for i, t in enumerate(pres.strata):
        if len(trees.induced_partition(t)) >= 2:
            sub.add_generator(pres.integer_coords({i: 1})[0])
    return sub


class OmegaQuotient:
    """H_{2k} modulo the strictly-below span, with a projection map.

    The quotient basis is the set of presentation basis positions that are
    not pivots of the subspace's echelon form; projecting reduces a vector by
    the subspace rows and reads off the surviving coordinates.
    """

    def __init__(self, pres, below):
        self.pres = pres
        self.below = below
        pivots = set(below.space.rows)
        self.positions = [j for j in range(pres.rank) if j not in pivots]
        self.posmap = {p: i for i, p in enumerate(self.positions)}

    def dim(self):
        return len(self.positions)

    def project(self, coords):
        res = self.below.space.residual(coords)
        out = {}
        for p, c in res.items():
            out[self.posmap[p]] = c
        return out


def omega_quotient(n, k, limit_strata=None):
    pres = homology.homology_basis(n, k, limit_strata)
    return OmegaQuotient(pres, below_subspace(n, k, limit_strata))


def filtration_dims(n, k, limit_strata=None):
    """{partition: dim} for every realizable partition of k, plus the
    strictly-below span and the omega quotient."""
    out = {}
    for lam in partitions_of(k):
        if realizable(n, k, lam):
            out[lam] = lambda_subspace(n, k, lam, limit_strata).dim()
    below = below_subspace(n, k, limit_strata)
    return out, below.dim(), OmegaQuotient(below.pres, below).dim()
