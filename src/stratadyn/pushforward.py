"""Pushforward of stratum classes along Hurwitz correspondences.

The correspondence of a Hurwitz datum sends boundary-stratum classes of the
target-mark space to classes of the retained-mark space.  In homological
degree 0 it multiplies by the cover count over a generic point.  In degree 2
it is read through its adjoint on divisors.  A curve class is fixed by its
pairings with the boundary divisors D_S (Keel, Trans. AMS 330, 1992), and
(H_* C).D_S = C.H^* D_S, where H^* = pi_B* pi_A'^* pulls a divisor back
along the retained-mark map and pushes it down to the target-mark space.
pi_A'^* D_S lies over the target boundary, so H^* D_S is a sum of c(S, T)
D_T over the one-edge target strata T, read off the labeled covers over T:
- over T's one edge, a class has nodes sigma of ramification r_sigma, and
  its rprod is the product of every r_sigma;
- near the class each node's smoothing parameter s_sigma has s_sigma^r_sigma
  = t, the target's, and on a curve crossing D_T once the locus s_sigma = 0
  has degree rprod / r_sigma;
- that locus lies in pi_A'^* D_S when sigma's split traces S on the
  retained marks (`trees.project_split`),
so c(S, T) sums rprod / r_sigma over those nodes of every class over T
(read once per node tuple, times its class count), over the marking degree
deg_nu.  Summed over the classes, rprod is the local degree of the cover
space over D_T, the cover count of a smooth target, and each T is checked
for it.  The pullback table is built once per matrix and kept on it.  One
routine (`_columns`) reads every column: a curve's divisor pairings
(`homology._pairing_row`, at most 7 nonzeros) times the table are the
pairings of its image with the retained splits S, solved in the
retained-mark presentation (`homology.solve_class_from_pairings`) and
divided by deg_nu.  A pushforward builds the target and retained curve
presentations and the target's one-edge strata, and no other.

The self-correspondence matrix runs that routine over the retained basis
curves, with the table's target divisors renamed by identify
(`trees.project_split`), building no tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import filtration, homology, hurwitz, linalg, trees
from .linalg import ONE, ZERO


def pushforward_h0(h, limit_tuples=None):
    """Multiplier on degree-0 classes: covers over a generic point, divided
    by the degree of the full-marking map."""
    full, deg_nu = hurwitz.fully_mark(h)
    c = hurwitz.count_covers(full, limit_tuples)
    if c % deg_nu:
        raise AssertionError("cover count %d not divisible by marking degree %d" % (c, deg_nu))
    return c // deg_nu


# -- the degree-2 pushforward matrix ------------------------------------------


class PushforwardMatrix:
    """Matrix of the correspondence on 1-dimensional stratum classes.

    Rows run over the quotient basis of the retained-mark space, columns over
    the quotient basis of the target-mark space.  Entries are Fractions.
    pullbacks, the table the columns are read from: target split T ->
    {retained split S: deg_nu * c(S, T)} (module docstring).
    """

    __slots__ = ("matrix", "source_pres", "target_pres", "aprime", "deg_nu", "pullbacks")

    def __init__(self, matrix, source_pres, target_pres, aprime, deg_nu, pullbacks):
        self.matrix = matrix
        self.source_pres = source_pres
        self.target_pres = target_pres
        self.aprime = aprime
        self.deg_nu = deg_nu
        self.pullbacks = pullbacks

    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


# (cover value, forget_to, marking degree, limit_tuples, limit_strata) -> the
# PushforwardMatrix, kept once per process and shared read-only
_PUSHFORWARDS = {}


def pushforward_h2(h, limit_tuples=None, limit_strata=None):
    """The correspondence on H_2, one column per target basis curve.

    The matrix is kept per process under the fully marked datum's cover
    value (hurwitz._cover_value), its forget_to, the marking degree and both
    caps.  identify is not in the key, so every identification of one datum
    shares one matrix; the marking degree is, since a datum and its
    explicitly fully marked twin share the cover value but not the degree.
    A capped call finds only an entry made under the same caps, which a
    recomputation would reproduce, or recomputes through the cover, strata
    and presentation memos, which replay their ticks; so the caps raise as if
    nothing were kept, and a call that raises keeps nothing.  Every caller
    gets the same object and must not change it.
    """
    full, deg_nu = hurwitz.fully_mark(h)
    key = (hurwitz._cover_value(full), full.forget_to, deg_nu, limit_tuples, limit_strata)
    pm = _PUSHFORWARDS.get(key)
    if pm is None:
        pm = _PUSHFORWARDS[key] = _pushforward_h2(full, deg_nu, limit_tuples, limit_strata)
    return pm


def _pushforward_h2(full, deg_nu, limit_tuples, limit_strata):
    """The PushforwardMatrix of pushforward_h2 for the fully marked datum
    `full` of marking degree deg_nu: the divisor pullbacks over the one-edge
    targets, then one column per target basis curve (_columns)."""
    n_b = len(full.b_marks)
    if n_b < 4:
        raise ValueError("degree-2 pushforward needs at least 4 target marks")
    keep_names = set(full.forget_to)
    aprime = tuple(a for a in full.a_marks if a in keep_names)
    n_a = len(aprime)
    if n_a < 4:
        raise ValueError("degree-2 pushforward needs at least 4 retained marks")
    a_index = {a: i + 1 for i, a in enumerate(full.a_marks)}
    # retained marks renumbered 1..n_a order-preservingly
    renum = {a_index[a]: i + 1 for i, a in enumerate(aprime)}

    p_b = homology.homology_basis(n_b, 1, limit_strata)
    p_a = homology.homology_basis(n_a, 1, limit_strata)
    divisors = trees.enumerate_strata(n_b, n_b - 4, limit_strata)

    # the divisor's split T -> {retained split S: deg_nu * c(S, T)}
    pullbacks = {}
    covers = hurwitz.count_covers(full, limit_tuples)
    for t in divisors:
        (split,) = trees.split_set(t)
        pullback = pullbacks[split] = {}
        local_deg = 0
        for nodes, count in hurwitz.enumerate_cover_classes(full, t, limit_tuples):
            rprod = prod(r for _side, r, _e in nodes)
            local_deg += count * rprod
            for side, r, _e in nodes:
                image = trees.project_split(side, renum)
                if image:
                    pullback[image] = pullback.get(image, 0) + count * (rprod // r)
        if local_deg != covers:
            raise AssertionError(
                "local degree %d over the divisor of %s != cover count %d"
                % (local_deg, list(trees.marks_of(split)), covers)
            )

    column = homology._split_columns(n_b)
    table = {column[split]: pullback for split, pullback in pullbacks.items()}
    matrix = _columns(p_a, p_b.basis_trees(), table, deg_nu)
    return PushforwardMatrix(matrix, p_b, p_a, aprime, deg_nu, pullbacks)


def _columns(pres, curves, table, deg_nu):
    """One column per curve in the basis of `pres`: the class whose pairings
    are the curve's pairing row times `table` ({all_splits position of a
    divisor: {retained split S: deg_nu * c(S, T)}}), over deg_nu."""
    columns = []
    for curve in curves:
        pairs = {}
        for col, w in homology._pairing_row(curve).items():
            linalg.axpy(pairs, w, table[col])
        coords = homology.solve_class_from_pairings(pres, pairs)
        columns.append(coords if deg_nu == 1 else {i: c / deg_nu for i, c in coords.items()})
    return tuple(tuple(coords.get(i, ZERO) for coords in columns) for i in range(pres.rank))


# -- self-correspondence and dynamical degrees --------------------------------


def self_correspondence_matrix(h, k, limit_tuples=None, limit_strata=None):
    """Square matrix of the correspondence acting on H_{2k} of its own space.

    Needs the datum's identify bijection to rename target marks as retained
    marks.  k = 0 gives the 1x1 count matrix; k = 1 reads the pushforward's
    pullback table with its target divisors renamed (_self_matrix).
    """
    if h.identify is None:
        raise ValueError("self-correspondence needs the identify bijection")
    if k == 0:
        return ((Fraction(pushforward_h0(h, limit_tuples)),),)
    if k != 1:
        raise ValueError("self-correspondence matrices are available for k in {0, 1}")
    return _self_matrix(h, pushforward_h2(h, limit_tuples, limit_strata))


def _self_matrix(h, pm):
    """The k = 1 self-correspondence matrix of h: _columns over the retained
    basis curves, with the target divisors of pm's table renamed by identify."""
    p_a, p_b = pm.target_pres, pm.source_pres
    if p_a.n != p_b.n:
        raise ValueError(
            "identify needs equal mark counts, got %d retained vs %d target"
            % (p_a.n, p_b.n)
        )
    # B-mark position -> the A'-mark position identified with it
    a_of_b = {i: pm.aprime.index(h.identify[b]) + 1 for i, b in enumerate(h.b_marks, start=1)}
    column = homology._split_columns(p_a.n)
    table = {column[trees.project_split(split, a_of_b)]: pullback
             for split, pullback in pm.pullbacks.items()}
    return _columns(p_a, p_a.basis_trees(), table, pm.deg_nu)


class DegreeReport:
    """Spectral data of a pushforward matrix.

    value: the dynamical degree as a float; exact: the integer m nearest
    the degree, when the degree is within INTEGER_TOL of m and, for
    "exact_roots", m is a root of char_poly (Horner's rule over its
    integers), or None; char_poly: primitive integer
    characteristic coefficients, constant term first; method: how the value
    was found, "exact_roots" for the largest real root of char_poly once the
    norm-of-powers bound certifies it dominant, "power_iteration" for the
    value from the norm-of-powers bound when that root is not certified.
    """

    __slots__ = ("value", "exact", "char_poly", "method")

    def __init__(self, value, exact, char_poly, method):
        self.value = value
        self.exact = exact
        self.char_poly = char_poly
        self.method = method

    def theta(self):
        return self.exact if self.exact is not None else self.value

    def __repr__(self):
        return "DegreeReport(theta=%r, method=%r)" % (self.theta(), self.method)


# how close, relative, the norm-of-powers bound must come to the largest real
# root to certify it dominant
ACCEPT_TOL = 1e-6

# how close the degree must come to an integer to be reported as that integer
INTEGER_TOL = 1e-9


def dynamical_degree(mat):
    """Spectral radius of an exact matrix, certified by its largest real root.

    The characteristic polynomial is computed exactly and its largest real
    root isolated by a Sturm chain.  The norm-of-powers bound of
    linalg.spectral_radius_float must come down to that root (within
    ACCEPT_TOL, relative) for the report to say "exact_roots".  Otherwise
    the report says "power_iteration" and its value is the norm-of-powers
    bound itself: no real eigenvalue is dominant, or floats could not pin
    the bound to it (a defective dominant eigenvalue).  The squarings stop
    at the first bound within ACCEPT_TOL of the root: the bound does not
    increase as they go on, so a later one would be accepted too, and a
    bound that never comes that close is the one after all 60 squarings.
    """
    if not mat or len(mat) != len(mat[0]):
        raise ValueError("dynamical degree needs a nonempty square matrix")
    cp = linalg.char_poly_integer(mat)
    root = linalg.largest_real_root(cp)
    gel = linalg.spectral_radius_float(mat, tol=ACCEPT_TOL, root=root)
    if root is not None and abs(root - gel) <= ACCEPT_TOL * max(1.0, abs(gel)):
        method = "exact_roots"
        value = root
    else:
        method = "power_iteration"
        value = gel
    exact = None
    nearest = round(value)
    if abs(value - nearest) <= INTEGER_TOL and (
            method == "power_iteration" or not linalg._value(cp, nearest, 0)):
        exact = int(nearest)
        value = float(nearest)
    return DegreeReport(value, exact, tuple(cp), method)


# -- filtration blocks ---------------------------------------------------------


def _apply_matrix(mat, vec):
    out = {}
    for j, c in vec.items():
        linalg.axpy(out, c, {i: row[j] for i, row in enumerate(mat) if row[j]})
    return out


def filtration_blocks(mat, n, k, limit_strata=None):
    """Split a matrix on H_{2k} coordinates into its filtration blocks.

    Verifies that the span of multi-vertex stratum classes is invariant
    (raising ValueError naming an escaping generator otherwise), then returns
    the block on that span and the induced block on the quotient.
    """
    pres = homology.homology_basis(n, k, limit_strata)
    if len(mat) != pres.rank or any(len(row) != pres.rank for row in mat):
        raise ValueError(
            "matrix is %dx%d but H_2k of the %d-mark space has rank %d"
            % (len(mat), len(mat[0]) if mat else 0, n, pres.rank)
        )
    below = filtration.below_subspace(n, k, limit_strata)
    omega = filtration.OmegaQuotient(below, pres.rank)
    for i, t in enumerate(pres.strata):
        if len(trees.induced_partition(t)) < 2:
            continue
        g = pres.reduce_index_vec({i: 1})
        img = _apply_matrix(mat, g)
        if not below.contains(img):
            raise ValueError(
                "filtration not preserved: the class of %r escapes the span" % (t,)
            )
    rr = below.rref()
    pivots = sorted(rr)
    lam_rows = [rr[p] for p in pivots]
    lam_dim = len(pivots)
    lambda_block = [[ZERO] * lam_dim for _ in range(lam_dim)]
    for j, row in enumerate(lam_rows):
        img = _apply_matrix(mat, row)
        for i, p in enumerate(pivots):
            lambda_block[i][j] = img.get(p, ZERO)
    om_dim = omega.dim()
    omega_block = [[ZERO] * om_dim for _ in range(om_dim)]
    for j, pos in enumerate(omega.positions):
        img = _apply_matrix(mat, {pos: ONE})
        proj = omega.project(img)
        for i, c in proj.items():
            omega_block[i][j] = c
    return {
        "lambda_dim": lam_dim,
        "omega_dim": om_dim,
        "lambda_block": tuple(tuple(r) for r in lambda_block),
        "omega_block": tuple(tuple(r) for r in omega_block),
    }
