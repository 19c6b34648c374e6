"""Sparse exact linear algebra over the rationals.

Vectors are dicts {column index: Fraction or int}, never storing zeros, and
`axpy` is the one update that keeps them so.  A RowSpace holds its rows in
reduced row echelon form: the pivot of a row is its minimal column, and no
row has an entry at another row's pivot.  A caller that wants another pivot
order numbers its columns accordingly: the stratum quotient puts stratum i in
column -i, which makes the non-pivot strata a greedy prefix basis.

Inside a RowSpace the arithmetic is fraction-free.  Each stored row is a
primitive integer vector (entries with gcd 1, pivot entry positive), not a
row scaled to pivot 1, so the stored rows are canonical for the space.  An
input is cleared to a common denominator and its pivot columns are removed
by integer cross-multiplication (Bareiss, Math. Comp. 22, 1968); a new row is
back-substituted into the stored rows the same way.  Rationals appear only
at the edges: residual and rref return Fractions, and `reduce` returns an
integer vector with its denominator.  Integer inputs make no Fraction at
all, so the homology presentations keep their expressions as integer rows
and span subspaces from integer coordinates.

`fractions_over` is the one conversion of an integer vector over a
denominator into Fractions, for residual, rref and the homology read path.
It shares one immutable Fraction per (numerator, denominator) pair for the
life of the process (`_fraction`, an unbounded `functools.lru_cache`), so a
value met again costs a lookup instead of a constructor.

The spectral step works on whole integers and word primes.
`char_poly_integer` scales the matrix by the lcm D of its denominators,
takes the Hessenberg form and characteristic polynomial of the integer
matrix modulo primes below 2^62 (`_char_poly_mod`), and joins the residues
by Chinese remaindering.  Each coefficient is a signed sum of principal
minors of one size, and Hadamard's inequality bounds each minor by the
product of its rows' 2-norms, so every coefficient is at most
prod(2 + isqrt(|row_i|^2)) in absolute value; primes are taken until their
product exceeds twice that bound, and the symmetric residues are then the
coefficients c_i themselves.  The result is the primitive form of
c_i D^i.  A prime cannot be unlucky: the Hessenberg reduction is a
similarity over the field of p elements whatever pivots it meets.  The
primes, the largest first, are found by a deterministic Miller-Rabin test
the first time a bound needs them and kept (`_PRIMES`); nothing is found at
import.  The Fraction `char_poly` computes the same polynomial and stays as
its oracle.  `largest_real_root` isolates the largest real root of the
result by bisection on a Sturm chain.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


@lru_cache(maxsize=None)
def _fraction(x, den):
    """Fraction(x, den), one shared object per pair of ints."""
    return Fraction(x, den)


def fractions_over(v, den):
    """The integer vector v divided by the nonzero int den, as
    {column: Fraction} in v's order; equal pairs share one Fraction."""
    return {col: _fraction(x, den) for col, x in v.items()}


def axpy(acc, f, vec):
    """acc += f * vec in place, dropping zero entries; returns acc.

    f = 1 and f = -1 add and subtract without multiplying.  The three loops
    are written out because a shared generator costs up to twice the time on
    integer vectors.
    """
    if f == 1:
        for col, val in vec.items():
            nv = acc.get(col, 0) + val
            if nv:
                acc[col] = nv
            else:
                del acc[col]
    elif f == -1:
        for col, val in vec.items():
            nv = acc.get(col, 0) - val
            if nv:
                acc[col] = nv
            else:
                del acc[col]
    elif f:
        for col, val in vec.items():
            nv = acc.get(col, 0) + f * val
            if nv:
                acc[col] = nv
            else:
                del acc[col]
    return acc


class RowSpace:
    """Row space of sparse rational vectors with incremental reduction."""

    def __init__(self):
        # pivot column -> primitive integer row (entries with gcd 1, pivot
        # entry > 0); every other entry lies above the pivot and off every
        # other pivot column
        self.rows = {}

    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """(v, den): vec cleared to the common denominator den, then reduced
        to the integer vector v free of pivot columns; vec = v/den modulo the
        space.  Explicit zero entries of vec are dropped.

        A stored row meets no pivot column but its own, so clearing one hit
        never creates another: v is scaled once by the lcm of the hit rows'
        pivot entries, and each hit is then one integer axpy.
        """
        den = 1
        for x in vec.values():
            d = x.denominator
            if d != 1:
                den = lcm(den, d)
        v = {c: x.numerator * (den // x.denominator) for c, x in vec.items() if x}
        rows = self.rows
        hits = [c for c in v if c in rows]
        if hits:
            m = lcm(*(rows[c][c] for c in hits))
            if m != 1:
                den *= m
                v = {col: m * x for col, x in v.items()}
            for c in hits:
                row = rows[c]
                axpy(v, -(v[c] // row[c]), row)
        return v, den

    def residual(self, vec):
        """vec with every pivot column eliminated (zero iff vec is in the space),
        as {column: Fraction}; it depends on the space, not on its rows."""
        return fractions_over(*self.reduce(vec))

    def contains(self, vec):
        return not self.reduce(vec)[0]

    def add(self, vec):
        """Insert vec; returns the new pivot column, or None if dependent.

        The new row is back-substituted into every stored row that carries
        its pivot: with pivot entry a and that row's entry c there, the row
        becomes (a/g) row - (c/g) new, g = gcd(a, c), made primitive again.
        """
        v, _ = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        v = _primitive(v, p)
        a = v[p]
        rows = self.rows
        for q, row in rows.items():
            c = row.get(p)
            if c is not None:
                g = gcd(a, c)
                m = a // g
                if m != 1:
                    row = {col: m * x for col, x in row.items()}
                rows[q] = _primitive(axpy(row, -(c // g), v), q)
        rows[p] = v
        return p

    def rref(self):
        """The rows as {pivot: row}, each row a dict of Fractions with 1 at
        its pivot; canonical for the space."""
        return {p: fractions_over(row, row[p]) for p, row in self.rows.items()}

    def equals(self, other):
        """Whether the two spaces are equal: their primitive, fully reduced
        rows are canonical for the space, so the stored rows are compared."""
        return self.rows == other.rows

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
    space = RowSpace()
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


def char_poly(a):
    """Characteristic polynomial of a rational matrix, leading coeff 1.

    Reduces a to upper Hessenberg form by elementary similarity transforms,
    then expands det(xI - H) along the last column, one leading block at a
    time (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    Both steps take O(n^3) Fraction operations.  Returns coefficients
    [c_0, ..., c_n] with p(x) = sum c_i x^i and c_n = 1, all Fractions.
    The spectral step reads char_poly_integer, the same steps modulo word
    primes; this is its oracle.
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


def _primitive_ints(cs):
    """Rational coefficients times the positive rational that makes them
    integers with gcd 1; every sign is kept."""
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


# the word primes of the modular route, largest first below 2^62, found on
# first use and kept for the life of the process
_PRIMES = []


def _is_prime(m):
    """Whether the odd m > 37 is prime: Miller-Rabin on the first twelve
    prime bases, which is exact for m < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(m % q == 0 for q in bases):
        return False
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for q in bases:
        x = pow(q, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime(i):
    """The i-th largest prime below 2^62, counting from 0."""
    while len(_PRIMES) <= i:
        m = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(m):
            m -= 2
        _PRIMES.append(m)
    return _PRIMES[i]


def _char_poly_mod(b, p):
    """det(xI - b) mod the prime p for an integer matrix b, as residues in
    [0, p), lowest first.

    The steps of char_poly over the field of p elements.  The row
    operations that clear column j below the subdiagonal all subtract
    multiples u_i of row j + 1, and their inverse column operations
    commute, so these are made at once: column j + 1 gains sum u_i column
    i.  A row operation leaves its entries unreduced, so each stays below
    (n + 1) p^2 in absolute value; column j is reduced before its pivot is
    sought, row j + 1 before it is subtracted, and the whole form before
    the expansion.
    """
    n = len(b)
    h = [[x % p for x in row] for row in b]
    for j in range(n - 2):
        for i in range(j + 1, n):
            h[i][j] %= p
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        top = h[j + 1][j + 1:] = [x % p for x in h[j + 1][j + 1:]]
        us = [0] * (n - j - 2)
        for i in range(j + 2, n):
            hi = h[i]
            if hi[j]:
                u = us[i - j - 2] = hi[j] * inv % p
                hi[j] = 0
                hi[j + 1:] = [x - u * y for x, y in zip(hi[j + 1:], top)]
        if any(us):
            for row in h:
                row[j + 1] = (row[j + 1] + sum(map(mul, us, row[j + 2:]))) % p
    h = [[x % p for x in row] for row in h]
    # q[m] = det(xI - H[:m, :m]) mod p, lowest coefficient first
    q = [[1]]
    for m in range(1, n + 1):
        prev = q[m - 1]
        diag = h[m - 1][m - 1]
        cur = [0] + prev
        cur[:m] = [x - diag * c for x, c in zip(cur, prev)]
        down = 1
        for i in range(m - 1, 0, -1):
            down = down * h[i][i - 1] % p
            if not down:
                break
            t = h[i - 1][m - 1] * down % p
            if t:
                below = q[i - 1]
                cur[:i] = [x - t * c for x, c in zip(cur, below)]
        q.append([x % p for x in cur])
    return q[n]


def char_poly_integer(a):
    """The characteristic polynomial of a rational matrix as primitive
    integer coefficients, constant term first: char_poly's, with its
    denominators cleared, by the modular route of the module docstring."""
    n = len(a)
    den = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    # each coefficient of det(xI - b) sums the principal minors of one
    # size, each at most the product of its rows' 2-norms (Hadamard), so
    # all together at most the product of (1 + norm) over the rows
    bound = prod(2 + isqrt(sum(x * x for x in row)) for row in b)
    coeffs = [0] * (n + 1)
    modulus = 1
    i = 0
    while modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        # Chinese remainders: keep every coefficient's residue mod modulus
        # and bring in its residue mod p
        scale = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * scale % p)
                  for c, r in zip(coeffs, _char_poly_mod(b, p))]
        modulus *= p
    half = modulus >> 1
    # the characteristic polynomial of a = b / den is det(den x I - b) / den^n
    power = 1
    out = []
    for c in coeffs:
        out.append((c - modulus if c > half else c) * power)
        power *= den
    g = gcd(*out)
    return [c // g for c in out] if g > 1 else out


def _sturm_chain(p):
    """The Sturm chain p, p', -rem(p, p'), ... of an integer polynomial p
    of degree at least 1, each member after p' made primitive.

    Each remainder is a negated pseudo-remainder: a is scaled by
    |lc(b)|^(deg a - deg b + 1) > 0 before it is divided by b, so every
    step stays in the integers, and the scale, being positive, leaves the
    signs the chain counts as they are.
    """
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        a, b = chain[-2], chain[-1]
        lead = b[-1]
        scale = abs(lead)
        r = list(a)
        for off in range(len(a) - len(b), -1, -1):
            # kill the leading term: scale * r - sign(lead) * r[-1] * x^off * b
            q = r.pop() if lead > 0 else -r.pop()
            r = [scale * c for c in r]
            for i, c in enumerate(b[:-1]):
                r[off + i] -= q * c
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return chain
        chain.append(_primitive_ints([-c for c in r]))


def _squarefree_part(p, g):
    """p / g for an integer polynomial p and g = gcd(p, p') up to a
    scalar.  g is made primitive first, so the quotient has integer
    coefficients (Gauss's lemma) and long division takes exact integer
    steps."""
    g = _primitive_ints(g)
    r = list(p)
    q = [0] * (len(p) - len(g) + 1)
    lead = g[-1]
    for off in range(len(q) - 1, -1, -1):
        c = q[off] = r[off + len(g) - 1] // lead
        if c:
            for i, x in enumerate(g):
                r[off + i] -= c * x
    return q


def _fujiwara_exponent(p):
    """The least f with 2^(f - 1) at least every term of Fujiwara's bound
    2 max(|c_(d-i) / c_d|^(1/i) for i < d, |c_0 / (2 c_d)|^(1/d)) on the
    moduli of the roots of the integer polynomial p of degree d, so that
    every root has |x| <= 2^f; None when every root is 0."""
    d = len(p) - 1
    lead = abs(p[-1])
    least = []
    for i in range(1, d + 1):
        c = abs(p[d - i])
        if not c:
            continue
        # the least k with c <= lead * 2^k, then the least g with g i >= k
        # (g d + 1 >= k for the constant term)
        k = c.bit_length() - lead.bit_length() - 1
        while not (c <= lead << k if k >= 0 else c << -k <= lead):
            k += 1
        if i == d:
            k -= 1
        least.append(-(-k // i))
    return max(least) + 1 if least else None


def _value(q, m, e):
    """2^(e deg q) * q(m / 2^e) for an integer polynomial q: its sign is the
    sign of q at the dyadic point, found in integer arithmetic."""
    acc = 0
    shift = 0
    for c in reversed(q):
        acc = acc * m + (c << shift)
        shift += e
    return acc


def _sign_changes(values):
    changes = 0
    prev = 0
    for v in values:
        if v:
            if prev and (v < 0) != (prev < 0):
                changes += 1
            prev = v
    return changes


# the bracket width at which largest_real_root stops bisecting a root that
# is not an integer
ROOT_TOL = 1e-12


def largest_real_root(coeffs):
    """Largest real root of an integer polynomial, or None if it has none.

    Exact isolation by the Sturm chain p, p', -rem(p, p'), ...: the number of
    distinct real roots above a point x that is not a root is the drop in
    sign changes along the chain from x to +infinity.  The chain is built
    once by integer pseudo-remainders (_sturm_chain) and evaluated at dyadic
    points in integer arithmetic.  Bisection starts from the Cauchy bound and
    keeps the largest root in the bracket (lo, hi].  Once the bracket holds
    only that root and is at most 1 wide, an integer root in it is returned
    exactly; otherwise bisection runs until the bracket is narrower than
    ROOT_TOL.  Repeated roots need no special case: the chain counts
    distinct roots.

    Two shortcuts leave every bracket, so the returned float, as the chain
    alone gives them.  A midpoint above 2^f, Fujiwara's bound
    (_fujiwara_exponent), is no root and has no root above it, so it is
    taken as the new hi with nothing evaluated.  Once the bracket holds a
    single root, the count above a midpoint is read from the sign of the
    squarefree part p / gcd(p, p') alone, built then from the chain's last
    member, which is that gcd up to a scalar: every root of the part is
    simple and none lies above the bracket's, so the part has the sign of
    its leading coefficient above the root and the other sign below it.
    """
    p = list(coeffs)
    while p and p[-1] == 0:
        p.pop()
    if len(p) < 2:
        return None
    chain = _sturm_chain(p)
    at_inf = _sign_changes([q[-1] for q in chain])
    # at -infinity an odd-degree member has the sign opposite to its leading one
    above = _sign_changes([q[-1] if len(q) % 2 else -q[-1] for q in chain]) - at_inf
    if not above:
        return None
    # every root has |x| < 1 + max |c_i / c_d|
    bound = 1 - (-max(abs(c) for c in p[:-1]) // abs(p[-1]))
    f = _fujiwara_exponent(p)
    # the bracket is (a / 2^e, b / 2^e]; `above` roots exceed a / 2^e
    a, b, e = -bound, bound, 0
    part = None

    def halve(a, b, e, above):
        nonlocal part
        # 2^f scaled to the midpoint's denominator 2^(e + 1), rounded down
        if a + b > (0 if f is None or f + e + 1 < 0 else 1 << f + e + 1):
            return a << 1, a + b, e + 1, above
        if above == 1 and part is None:
            part = _squarefree_part(p, chain[-1])
        zeros = p if part is None else part
        # the split point hi - (hi - lo) / 2^s is the midpoint for s = 1; the
        # count is only sound off the roots, and p has at most deg p of them
        s = 1
        while not _value(zeros, (b << s) - (b - a), e + s):
            s += 1
        mid, e = (b << s) - (b - a), e + s
        if part is None:
            n = _sign_changes([_value(q, mid, e) for q in chain]) - at_inf
        else:
            n = int((_value(part, mid, e) < 0) != (part[-1] < 0))
        return (mid, b << s, e, n) if n else (a << s, mid, e, above)

    while above > 1 or b - a > 1 << e:
        a, b, e, above = halve(a, b, e, above)
    m = b >> e
    if m << e > a and not _value(p, m, 0):
        return float(m)
    while (b - a) / (1 << e) >= ROOT_TOL:
        a, b, e, above = halve(a, b, e, above)
    return (a + b) / (1 << (e + 1))


def spectral_radius_float(a, tol=1e-12, root=None):
    """Upper bound on the spectral radius by norms of repeated squares, floats.

    ||A^(2^j)||^(1/2^j) is at least the spectral radius and does not increase
    with j (Gelfand).  When the bound comes within tol of `root`, a real
    eigenvalue found elsewhere, that eigenvalue is certified dominant and the
    bound is returned at once; otherwise the bound after 60 squarings is
    returned.  Matrices are renormalised to norm 1 before each squaring, with
    the scale tracked in log space, so entries never overflow even after 2^60
    powers.
    """
    import math

    n = len(a)
    if n == 0:
        return 0.0
    m = [[float(x) for x in row] for row in a]

    def inf_norm(mm):
        return max(sum(abs(x) for x in row) for row in mm)

    def square(mm):
        # each entry sums row[t] * col[t] for t = 0..n-1, in that order
        cols = list(zip(*mm))
        return [[sum(map(mul, row, col)) for col in cols] for row in mm]

    nrm = inf_norm(m)
    if nrm == 0.0:
        return 0.0
    # invariant: cur = A^power / exp(log_scale), with inf_norm(cur) == 1
    log_scale = math.log(nrm)
    power = 1
    cur = [[x / nrm for x in row] for row in m]
    est = nrm
    for _ in range(60):
        if root is not None and est <= root + tol * max(1.0, root):
            break
        cur = square(cur)
        t = inf_norm(cur)
        if t == 0.0:
            return 0.0  # nilpotent
        log_scale = 2.0 * log_scale + math.log(t)
        power *= 2
        cur = [[x / t for x in row] for row in cur]
        est = math.exp(log_scale / power)
    return est
