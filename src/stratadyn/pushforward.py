"""Pushforward of stratum classes along Hurwitz correspondences.

The correspondence of a Hurwitz datum sends boundary-stratum classes of the
target-mark space to classes of the retained-mark space.  In homological
degree 0 it multiplies by the cover count over a generic point.  In degree 2
one column is computed per 1-dimensional stratum tau of the target space:
labeled covers over tau are grouped by type; each type is a one-parameter
family of source curves, paired against boundary divisors by degenerating
tau at its 4-valent vertex and reading off which source nodes appear; the
pairings pin the family's curve class one source vertex at a time, and the
class is glued back together, pushed along the forgetful map to the retained
marks, and reduced in the quotient basis.

Every stratum on the way is built from its split set: a degeneration of tau
adds the union of two of the four flag blocks at its 4-valent vertex
(`homology.curve_blocks`), and names its new edge by that split.  Gluing
and forgetting run on split sets too, with no tree built: a glued class
gathers the source curve's splits (the type's node splits) and those of
the point substitutions at the other moduli vertices once, from the flag
blocks the column read for its cover type, adds the small stratum's splits
as unions of flag blocks per basis coordinate (`trees.substitution_splits`),
projects the set to the retained marks (`trees.project_splits`) and looks
the image up in the retained-mark presentation by that split set
(`stratum_index`), building no tree.  The self-correspondence matrix
renames each basis stratum's marks the same way, as a projection that
forgets no mark, and looks it up likewise.
Smoothing a refined cover is done on the nodes its class keeps: each node
names the split of the target edge it lies over, so the nodes over the new
target edge, named by the split just added, are new and the rest old.
The old nodes are the node data of the cover type over tau that the class
smooths to, so its source curve is that type's, built once per column by
`hurwitz.enumerate_cover_types` and read for its flag blocks once.  Each new
node's split picks the one source vertex whose flag blocks each fall inside
or outside it, and the flag split it pairs with there; the pairings are kept
per vertex index and glued in vertex order.  Every split is a `trees.split_of`
mask, over a_marks or flag positions.  A vertex class is solved in the
presentation of its own valence, under the caller's `limit_strata`.
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
    """

    __slots__ = ("matrix", "source_pres", "target_pres", "aprime", "deg_nu")

    def __init__(self, matrix, source_pres, target_pres, aprime, deg_nu):
        self.matrix = matrix
        self.source_pres = source_pres
        self.target_pres = target_pres
        self.aprime = aprime
        self.deg_nu = deg_nu

    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)


def pushforward_h2(h, limit_tuples=None, limit_strata=None):
    """The correspondence on H_2, column by column over target basis strata."""
    full, deg_nu = hurwitz.fully_mark(h)
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

    columns = []
    for tau in p_b.basis_trees():
        columns.append(_push_column(full, tau, p_a, renum, deg_nu, limit_tuples, limit_strata))
    matrix = tuple(
        tuple(columns[j].get(i, ZERO) for j in range(len(columns)))
        for i in range(p_a.rank)
    )
    return PushforwardMatrix(matrix, p_b, p_a, aprime, deg_nu)


def _push_column(full, tau, p_a, renum, deg_nu, limit_tuples, limit_strata):
    types = {t.node_data: t for t in hurwitz.enumerate_cover_types(full, tau, limit_tuples)}
    views = {}  # node data -> the flag blocks of each source vertex
    for node_data, t in types.items():
        masks, _ = t.source_tree.subtree_masks()
        views[node_data] = [
            t.source_tree.flag_masks(v, masks) for v in range(t.source_tree.num_vertices())
        ]

    # each boundary direction pairs two of the four flag blocks at the
    # 4-valent vertex, adding their union as a split
    blocks = homology.curve_blocks(tau)
    base = tau.splits()
    pairings = {}  # node data -> {source vertex: {flag split: weight}}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        cut = trees.split_of(tau.n, blocks[i] + blocks[j])
        tau_ref = trees.tree_from_splits(tau.n, base | {cut})
        local_deg = {}
        for _key, nodes in hurwitz.enumerate_cover_classes(full, tau_ref, limit_tuples):
            old = []
            new = []
            for side, r, e in nodes:
                (new if e == cut else old).append((side, r))
            old = tuple(old)
            if old not in types:
                raise AssertionError("refined cover smooths to an unknown type")
            rprod = prod(r for _side, r in new)
            local_deg[old] = local_deg.get(old, 0) + rprod
            buckets = pairings.setdefault(old, {})
            for split, r in new:
                # the one source vertex whose flag blocks each fall inside
                # the new node's split or outside it
                v, vb = next((v, vb) for v, vb in enumerate(views[old])
                             if all(b & split in (0, b) for b in vb))
                inside = sum(1 << pos for pos, b in enumerate(vb, start=1) if b & split)
                norm = trees.split_of(len(vb), inside)
                bucket = buckets.setdefault(v, {})
                bucket[norm] = bucket.get(norm, 0) + rprod // r
        for node_data, t in types.items():
            if local_deg.get(node_data, 0) != t.count:
                raise AssertionError(
                    "local degree %d != class count %d over a boundary direction"
                    % (local_deg.get(node_data, 0), t.count)
                )

    col = {}
    for node_data, t in types.items():
        vertex_blocks = views[node_data]
        for v_hat, splitvals in sorted(pairings.get(node_data, {}).items()):
            if len(vertex_blocks) == 1:
                _add_projected_class(col, splitvals, p_a, renum, t.multiplicity)
            else:
                _add_glued_class(col, splitvals, t, vertex_blocks, v_hat, p_a, renum, limit_strata)
    # a glued class adds integer rows, so an entry may still be an int here
    return {i: Fraction(c, deg_nu) for i, c in col.items() if c}


def _add_projected_class(col, splitvals, p_a, renum, mult):
    """Single-component source: push the divisor pairings directly down the
    forgetful map and solve in the retained-mark space.  A split of the big
    space pairs through exactly when it traces a split below (project_split)."""
    pairs = {}
    for split, wgt in splitvals.items():
        image = trees.project_split(split, renum)
        if image:
            pairs[image] = pairs.get(image, ZERO) + Fraction(wgt)
    linalg.axpy(col, mult, homology.solve_class_from_pairings(p_a, pairs))


def _add_glued_class(col, splitvals, t, vertex_blocks, v_hat, p_a, renum, limit_strata):
    """Solve the vertex class of cover type t at its source vertex v_hat in
    its own small space, substitute it there (points at every other moduli
    vertex), forget, and reduce, on split sets.

    vertex_blocks holds the flag blocks of each source vertex, as the column
    read them from the type's source curve.  The curve's splits, which are
    the type's node splits, and those of the point substitutions are the
    same for every basis coordinate of the vertex class, and are gathered
    once.  Per coordinate the small stratum adds its splits as unions of the
    flag blocks at v_hat, the whole set is projected to the retained marks
    (trees.project_splits), and the image is looked up by that split set.
    """
    blocks = vertex_blocks[v_hat]
    small = homology.homology_basis(len(blocks), 1, limit_strata)
    coords = homology.solve_class_from_pairings(
        small, {s: Fraction(w) for s, w in splitvals.items()}
    )
    n = t.source_tree.n
    fixed = {side for side, _r in t.node_data}
    for u, flags in enumerate(vertex_blocks):
        if u != v_hat and len(flags) > 3:
            point = trees.enumerate_strata(len(flags), 0)[0]
            fixed |= trees.substitution_splits(n, flags, point)
    for pos, c in sorted(coords.items()):
        small_tree = small.strata[small.basis[pos]]
        image = trees.project_splits(
            n, fixed | trees.substitution_splits(n, blocks, small_tree), renum
        )
        if image is None:
            continue
        v, den = p_a.integer_coords({p_a.stratum_index(image): 1})
        linalg.axpy(col, t.multiplicity * c / den, v)


# -- self-correspondence and dynamical degrees --------------------------------


def self_correspondence_matrix(h, k, limit_tuples=None, limit_strata=None):
    """Square matrix of the correspondence acting on H_{2k} of its own space.

    Needs the datum's identify bijection to rename target marks as retained
    marks.  k = 0 gives the 1x1 count matrix; k = 1 conjugates the
    pushforward into the retained-mark basis.
    """
    if h.identify is None:
        raise ValueError("self-correspondence needs the identify bijection")
    if k == 0:
        return ((Fraction(pushforward_h0(h, limit_tuples)),),)
    if k != 1:
        raise ValueError("self-correspondence matrices are available for k in {0, 1}")
    return _self_matrix(h, pushforward_h2(h, limit_tuples, limit_strata))


def _self_matrix(h, pm):
    """The k = 1 self-correspondence matrix: the pushforward pm of h,
    conjugated into the retained-mark basis by the identify bijection."""
    p_a, p_b = pm.target_pres, pm.source_pres
    if p_a.n != p_b.n:
        raise ValueError(
            "identify needs equal mark counts, got %d retained vs %d target"
            % (p_a.n, p_b.n)
        )
    # A'-mark j corresponds to B-mark position of the b identified with it
    a_of_b = {}
    for i, b in enumerate(h.b_marks, start=1):
        a = h.identify[b]
        a_of_b[i] = pm.aprime.index(a) + 1
    b_of_a = {j: i for i, j in a_of_b.items()}
    rank = p_a.rank
    out = [[ZERO] * rank for _ in range(rank)]
    for j, t in enumerate(p_a.basis_trees()):
        # a relabelling is a forgetful map that forgets no mark
        splits_b = trees.project_splits(p_a.n, t.splits(), b_of_a)
        coords = p_b.reduce_index_vec({p_b.stratum_index(splits_b): ONE})
        for c, w in coords.items():
            for i in range(rank):
                v = pm.matrix[i][c]
                if v:
                    out[i][j] += w * v
    return tuple(tuple(row) for row in out)


class DegreeReport:
    """Spectral data of a pushforward matrix.

    value: the dynamical degree as a float; exact: the integer value when the
    degree is integral within tolerance; char_poly: primitive integer
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


def dynamical_degree(mat, tol=1e-9):
    """Spectral radius of an exact matrix, certified by its largest real root.

    The characteristic polynomial is computed exactly and its largest real
    root isolated by a Sturm chain.  The norm-of-powers bound of
    linalg.spectral_radius_float must come down to that root (within 1e-6,
    relative) for the report to say "exact_roots".  Otherwise the report
    says "power_iteration" and its value is the norm-of-powers bound itself:
    no real eigenvalue is dominant, or floats could not pin the bound to it
    (a defective dominant eigenvalue).
    """
    if not mat or len(mat) != len(mat[0]):
        raise ValueError("dynamical degree needs a nonempty square matrix")
    cp = linalg.char_poly_integer(mat)
    root = linalg.largest_real_root(cp)
    gel = linalg.spectral_radius_float(mat, root=root)
    if root is not None and abs(root - gel) <= 1e-6 * max(1.0, abs(gel)):
        method = "exact_roots"
        value = root
    else:
        method = "power_iteration"
        value = gel
    exact = None
    nearest = round(value)
    if abs(value - nearest) <= tol:
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
    omega = filtration.OmegaQuotient(pres, below)
    for i, t in enumerate(pres.strata):
        if len(trees.induced_partition(t)) < 2:
            continue
        g = pres.reduce_index_vec({i: 1})
        img = _apply_matrix(mat, g)
        if not below.contains(img):
            raise ValueError(
                "filtration not preserved: the class of %r escapes the span" % (t,)
            )
    rr = below.space.rref()
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
