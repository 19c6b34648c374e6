"""Sparse exact linear algebra over the rationals.

Vectors are dicts {column index: Fraction or int}, never storing zeros.  A
RowSpace holds an incrementally reduced set of rows; the pivot of a row is its
maximal or minimal column depending on orientation.  Max-pivot orientation
makes the non-pivot columns a greedy prefix basis, which is what the stratum
quotient uses; min-pivot is ordinary row echelon for subspace comparisons.

Inside a RowSpace the arithmetic is fraction-free.  Each stored row is a
primitive integer vector (entries with gcd 1, pivot entry positive), not a
row scaled to pivot 1; an input is cleared to a common denominator and its
pivot columns are removed by integer cross-multiplication (Bareiss, Math.
Comp. 22, 1968).  Rationals appear only at the edges: residual and rref
return Fractions, and both depend only on the space, not on how its rows
are scaled.
"""

from __future__ import annotations

from fractions import Fraction
from bisect import insort
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def vec_add(a, b, scale=ONE):
    """a + scale*b as a fresh sparse dict."""
    out = dict(a)
    for col, val in b.items():
        nv = out.get(col, ZERO) + scale * val
        if nv:
            out[col] = nv
        else:
            out.pop(col, None)
    return out


def vec_scale(a, c):
    if not c:
        return {}
    return {col: c * val for col, val in a.items()}


class RowSpace:
    """Row space of sparse rational vectors with incremental reduction."""

    def __init__(self, pivot="min"):
        if pivot not in ("min", "max"):
            raise ValueError("pivot must be 'min' or 'max'")
        self.pivot_fn = min if pivot == "min" else max
        self._min = pivot == "min"
        # pivot column -> primitive integer row (entries with gcd 1, pivot
        # entry > 0); every other entry lies beyond the pivot
        self.rows = {}

    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """(v, den): vec cleared to the common denominator den, then reduced
        to the integer vector v free of pivot columns; vec = v/den modulo the
        space.  Explicit zero entries of vec are dropped."""
        den = 1
        for x in vec.values():
            d = x.denominator
            if d != 1:
                den = lcm(den, d)
        v = {c: x.numerator * (den // x.denominator) for c, x in vec.items() if x}
        return self._eliminate(v, den, self.rows)

    def _eliminate(self, v, den, rows):
        """Clear every pivot column of `rows` from the integer vector v.

        For pivot row r with pivot entry a and v's entry c there, v becomes
        (a/g) v - (c/g) r with g = gcd(a, c), and den grows by a/g, so v/den
        keeps its class.  Pivot hits wait in a sorted list and the innermost
        is taken first; a row only carries columns beyond its pivot, so a
        cleared column is never hit again and a column joins the list when an
        elimination creates it.  The queue is a sorted list because bisect
        is loaded already and heapq is not: importing heapq alone adds about
        0.3 MB to peak memory.
        """
        s = -1 if self._min else 1  # todo holds s * column, innermost last
        todo = sorted(s * col for col in v if col in rows)
        while todo:
            p = s * todo.pop()
            c = v.get(p)
            if c is None:  # cancelled, or listed twice
                continue
            row = rows[p]
            a = row[p]
            g = gcd(a, c)
            if g != a:
                m = a // g
                den *= m
                v = {col: m * x for col, x in v.items()}
            c //= g
            # the pivot entry cancels like any other
            for col, x in row.items():
                old = v.get(col)
                if old is None:
                    v[col] = -c * x
                    if col in rows:
                        insort(todo, s * col)
                else:
                    nv = old - c * x
                    if nv:
                        v[col] = nv
                    else:
                        del v[col]
        return v, den

    def residual(self, vec):
        """vec with every pivot column eliminated (zero iff vec is in the space),
        as {column: Fraction}; it depends on the space, not on its rows."""
        v, den = self._reduce(vec)
        return {col: Fraction(x, den) for col, x in v.items()}

    def contains(self, vec):
        return not self._reduce(vec)[0]

    def add(self, vec):
        """Insert vec; returns the new pivot column, or None if dependent."""
        v, _ = self._reduce(vec)
        if not v:
            return None
        p = self.pivot_fn(v)
        self.rows[p] = _primitive(v, p)
        return p

    def extend(self, vecs):
        for v in vecs:
            self.add(v)
        return self

    def rref(self):
        """Fully back-substituted rows as {pivot: row}, each row a dict of
        Fractions with 1 at its pivot; canonical for the space.

        Rows are taken from the far side inward, so the rows already reduced
        carry no pivot column but their own and back-substitution into a row
        never creates a new hit.
        """
        done = {}
        for p in sorted(self.rows, reverse=self._min):
            v, _ = self._eliminate(dict(self.rows[p]), 1, done)
            done[p] = _primitive(v, p)
        out = {}
        for p in list(done):
            v = done.pop(p)  # so the integer and Fraction copies never coexist
            a = v[p]
            out[p] = {col: Fraction(x, a) for col, x in v.items()}
        return out

    def canonical_key(self):
        """Hashable canonical form of the row space, for equality checks."""
        rr = self.rref()
        return tuple(
            (p, tuple(sorted(rr[p].items()))) for p in sorted(rr)
        )

    def equals(self, other):
        return self.canonical_key() == other.canonical_key()

    def is_subspace_of(self, other):
        return all(other.contains(r) for r in self.rows.values())


def _primitive(v, p):
    """The integer vector v divided by the gcd of its entries, signed so that
    its entry at p is positive."""
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    if g == 1:
        return v
    return {col: x // g for col, x in v.items()}


def solve_exact(rows, rhs):
    """Solve the (possibly overdetermined) system rows . x = rhs exactly.

    `rows` is a list of sparse dicts over unknown columns 0..m-1, `rhs` a
    list of Fractions.  Raises ValueError when the system is inconsistent or
    when it does not pin every unknown that actually occurs.  Returns the
    solution as a sparse dict.
    """
    cols = set()
    for r in rows:
        cols.update(r)
    if not cols:
        if any(rhs):
            raise ValueError("inconsistent system: nonzero rhs over empty rows")
        return {}
    aug_col = max(cols) + 1
    space = RowSpace(pivot="min")
    for r, b in zip(rows, rhs):
        v = dict(r)
        if b:
            v[aug_col] = -Fraction(b)
        space.add(v)
    rr = space.rref()
    if aug_col in rr:
        raise ValueError("inconsistent system: 0 = nonzero after elimination")
    missing = cols - set(rr)
    if missing:
        raise ValueError("underdetermined system: free columns %s" % sorted(missing))
    x = {}
    for p, row in rr.items():
        extra = [c for c in row if c not in (p, aug_col)]
        if extra:
            raise ValueError("underdetermined system: free columns %s" % sorted(extra))
        val = -row.get(aug_col, ZERO)
        if val:
            x[p] = val
    return x


# -- small dense matrices ---------------------------------------------------


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    return [
        [sum((a[i][t] * b[t][j] for t in range(inner)), start=ZERO) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=ZERO) for i in range(len(a))]


def char_poly(a):
    """Characteristic polynomial of a rational matrix, leading coeff 1.

    Reduces a to upper Hessenberg form by elementary similarity transforms,
    then expands det(xI - H) along the last column, one leading block at a
    time (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    Both steps take O(n^3) Fraction operations.  Returns coefficients
    [c_0, ..., c_n] with p(x) = sum c_i x^i and c_n = 1, all Fractions.
    """
    n = len(a)
    h = [[Fraction(x) for x in row] for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pivot = h[j + 1][j]
        for i in range(j + 2, n):
            if not h[i][j]:
                continue
            u = h[i][j] / pivot
            # the row operation clears h[i][j]; the inverse column operation
            # keeps h similar to a
            hi, hp = h[i], h[j + 1]
            for col in range(j, n):
                if hp[col]:
                    hi[col] -= u * hp[col]
            for row in h:
                if row[i]:
                    row[j + 1] += u * row[i]
    # p[m] = det(xI - H[:m, :m]), lowest coefficient first
    p = [[ONE]]
    for m in range(1, n + 1):
        cur = [ZERO] + p[m - 1]
        diag = h[m - 1][m - 1]
        for d, c in enumerate(p[m - 1]):
            cur[d] -= diag * c
        prod = ONE
        for i in range(m - 1, 0, -1):
            prod *= h[i][i - 1]
            if not prod:
                break
            t = h[i - 1][m - 1] * prod
            if t:
                for d, c in enumerate(p[i - 1]):
                    cur[d] -= t * c
        p.append(cur)
    return p[n]


def char_poly_integer(a):
    """char_poly with denominators cleared to primitive integer coefficients."""
    cs = char_poly(a)
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem(a, b):
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


def _poly_div_exact(a, b):
    """Quotient of a by b when b divides a, exact Fraction arithmetic."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    out = [ZERO] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / b[-1]
        off = len(a) - len(b)
        out[off] = q
        for i in range(len(b) - 1):
            a[off + i] -= q * b[i]
        a.pop()
    return out


def squarefree_part(coeffs):
    """Collapse repeated roots: p / gcd(p, p') as primitive integers.

    Repeated roots defeat float root isolation twice over: evaluation near
    the root is all cancellation noise, and even multiplicities never change
    sign at all.  The square-free part has the same root set with every root
    simple, so a sign-change scan is reliable on it.
    """
    a = [Fraction(c) for c in coeffs]
    while a and a[-1] == 0:
        a.pop()
    if len(a) <= 2:
        return [int(c) for c in a]
    x = a
    y = [a[i] * i for i in range(1, len(a))]
    while y:
        x, y = y, _poly_rem(x, y)
    sf = a if len(x) <= 1 else _poly_div_exact(a, x)
    den = 1
    for c in sf:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in sf]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def largest_real_root(coeffs, tol=1e-12):
    """Largest real root of an integer polynomial, or None.

    Reduces to the square-free part, then scans a descending grid from the
    Cauchy bound for a sign change and bisects.  With simple roots the sign
    changes are sharp; a root the grid still straddles without crossing would
    make this return None and callers fall back to an iterative estimate.
    """
    cs = squarefree_part(coeffs)
    if len(cs) <= 1:
        return None
    lead = abs(cs[-1])
    bound = 1.0 + max(abs(c) for c in cs[:-1]) / lead
    steps = 4096
    h = 2.0 * bound / steps
    x_hi = bound
    f_hi = poly_eval(cs, x_hi)
    x = x_hi
    for i in range(1, steps + 1):
        x = bound - i * h
        f = poly_eval(cs, x)
        if f == 0.0:
            return x
        if (f < 0) != (f_hi < 0):
            lo, hi = x, x_hi
            flo = f
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = poly_eval(cs, mid)
                if fm == 0.0 or hi - lo < tol:
                    return mid
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        x_hi, f_hi = x, f
    return None


def spectral_radius_float(a, tol=1e-12):
    """Spectral radius via norms of repeated squares (Gelfand), plain floats.

    Matrices are renormalised to norm 1 before each squaring, with the scale
    tracked in log space, so entries never overflow even after 2^60 powers.
    Handles oscillating cases like [[0,1],[1,0]] (radius 1) where a naive
    power iteration on a vector fails to settle.
    """
    import math

    n = len(a)
    if n == 0:
        return 0.0
    m = [[float(x) for x in row] for row in a]

    def inf_norm(mm):
        return max(sum(abs(x) for x in row) for row in mm)

    def square(mm):
        return [
            [sum(mm[i][t] * mm[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    nrm = inf_norm(m)
    if nrm == 0.0:
        return 0.0
    # invariant: cur = A^power / exp(log_scale), with inf_norm(cur) == 1
    log_scale = math.log(nrm)
    power = 1
    cur = [[x / nrm for x in row] for row in m]
    est = math.exp(log_scale / power)
    for _ in range(60):
        cur = square(cur)
        t = inf_norm(cur)
        if t == 0.0:
            return 0.0  # nilpotent
        log_scale = 2.0 * log_scale + math.log(t)
        power *= 2
        cur = [[x / t for x in row] for row in cur]
        new_est = math.exp(log_scale / power)
        if abs(new_est - est) < tol * max(1.0, abs(new_est)):
            return new_est
        est = new_est
    return est
