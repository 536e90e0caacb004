"""Exact linear algebra over the rationals or a prime field.

Matrices are plain lists of row lists and vectors are flat lists; there is no
matrix class.  All maps act on the right of row vectors, so applying ``A`` to
``x`` means ``x @ A`` and composition reads left to right.  Shapes are the
caller's responsibility; functions that must cope with an empty row list take
the column count explicitly.

Row reduction over the rationals clears denominators and runs an integer
Gauss-Jordan elimination with per-row gcd trimming, dividing by the pivots
only at the end.  This keeps intermediate entries small without ever leaving
exact arithmetic.  Over GF(p) the entries are plain ints reduced mod p.
Reduced row echelon form is canonical, so two row spaces are equal iff their
echelon bases are equal lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import Rationals


def zeros(nrows: int, ncols: int, field) -> list[list]:
    z = field.zero
    return [[z] * ncols for _ in range(nrows)]


def identity(n: int, field) -> list[list]:
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def transpose(rows: list[list], ncols: int) -> list[list]:
    return [[row[j] for row in rows] for j in range(ncols)]


def vec_add(u: list, v: list, field) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(u: list, v: list, field) -> list:
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(c, v: list, field) -> list:
    return [field.mul(c, a) for a in v]


def vec_mat(x: list, rows: list[list], ncols: int, field) -> list:
    """Row vector times matrix: returns ``x @ rows`` of length ncols."""
    out = [field.zero] * ncols
    for xi, row in zip(x, rows):
        if field.is_zero(xi):
            continue
        for j, a in enumerate(row):
            if not field.is_zero(a):
                out[j] = field.add(out[j], field.mul(xi, a))
    return out


def mat_mul(A: list[list], B: list[list], bcols: int, field) -> list[list]:
    """Matrix product A @ B where B has ``bcols`` columns."""
    return [vec_mat(row, B, bcols, field) for row in A]


def mat_add(A: list[list], B: list[list], field) -> list[list]:
    return [vec_add(ra, rb, field) for ra, rb in zip(A, B)]


def mat_scale(c, A: list[list], field) -> list[list]:
    return [vec_scale(c, row, field) for row in A]


def mat_eq(A: list[list], B: list[list]) -> bool:
    return A == B


def is_zero_matrix(A: list[list], field) -> bool:
    return all(field.is_zero(a) for row in A for a in row)


def hstack(A: list[list], B: list[list]) -> list[list]:
    return [ra + rb for ra, rb in zip(A, B)]


def vstack(A: list[list], B: list[list]) -> list[list]:
    return [list(r) for r in A] + [list(r) for r in B]


# ---------------------------------------------------------------------------
# row echelon form


def _rref_int(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over the integers; pivots are nonzero ints, not 1.

    Rows are combined as a*row_i - b*row_pivot with a, b coprime, then gcd
    trimmed, so entries stay modest.  Zeros above and below every pivot.
    """
    rows = [list(r) for r in rows if any(r)]
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        best = -1
        bestval = 0
        for i in range(r, m):
            v = rows[i][c]
            if v and (best < 0 or abs(v) < bestval):
                best, bestval = i, abs(v)
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            if i == r:
                continue
            q = rows[i][c]
            if not q:
                continue
            g = gcd(p, q)
            a, b = p // g, q // g
            new = [a * x - b * y for x, y in zip(rows[i], prow)]
            g2 = 0
            for v in new:
                g2 = gcd(g2, v)
                if g2 == 1:
                    break
            if g2 > 1:
                new = [v // g2 for v in new]
            rows[i] = new
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _rref_over_q(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    # entries may be ints or Fractions: both carry numerator and denominator
    work = []
    for row in rows:
        den = 1
        for x in row:
            d = x.denominator
            den = den * d // gcd(den, d)
        ints = [int(x.numerator * (den // x.denominator)) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            ints = [v // g for v in ints]
        if any(ints):
            work.append(ints)
    echelon, pivots = _rref_int(work, ncols)
    out = []
    for row, c in zip(echelon, pivots):
        p = row[c]
        out.append([Fraction(v, p) for v in row])
    return out, pivots


def _rref_mod(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    rows = [[v % p for v in r] for r in rows]
    rows = [r for r in rows if any(r)]
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        best = -1
        for i in range(r, m):
            if rows[i][c]:
                best = i
                break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        prow = rows[r]
        for i in range(m):
            if i == r:
                continue
            q = rows[i][c]
            if q:
                rows[i] = [(x - q * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return [r for r in rows if any(r)], pivots


def rref(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Canonical reduced row echelon form.

    Returns (echelon rows, pivot columns).  Zero rows are dropped, pivots are
    1 with zeros above and below, and rows are ordered by pivot column, so the
    output is a canonical basis of the row space.
    """
    if isinstance(field, Rationals):
        return _rref_over_q(rows, ncols)
    return _rref_mod(rows, ncols, field.p)


def rank(rows: list[list], ncols: int, field) -> int:
    return len(rref(rows, ncols, field)[1])


def reduce_mod_rowspace(v: list, echelon: list[list], pivots: list[int], field) -> list:
    """Canonical representative of v modulo the row space of an rref basis."""
    out = list(v)
    for row, c in zip(echelon, pivots):
        coeff = out[c]
        if field.is_zero(coeff):
            continue
        out = [field.sub(x, field.mul(coeff, y)) for x, y in zip(out, row)]
    return out


def right_kernel(rows: list[list], ncols: int, field) -> list[list]:
    """Canonical basis of {v : rows @ v^T = 0}, as rows of length ncols."""
    echelon, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, c in zip(echelon, pivots):
            v[c] = field.neg(row[f])
        basis.append(v)
    return rref(basis, ncols, field)[0]


def left_kernel(rows: list[list], ncols: int, field) -> list[list]:
    """Canonical basis of {x : x @ rows = 0}, as rows of length len(rows)."""
    return right_kernel(transpose(rows, ncols), len(rows), field)


class RowSpace:
    """Row space of a matrix with membership, reduction, and coordinates.

    Reduction tracks how each echelon row was built from the original rows,
    so ``coords`` expresses a member as a combination of the rows passed in,
    and ``kernel`` is the canonical echelon basis of the left kernel of the
    original matrix, with its pivot columns in ``kernel_pivots``.
    """

    def __init__(self, rows: list[list], ncols: int, field):
        self.field = field
        self.ncols = ncols
        self.nrows = len(rows)
        m = len(rows)
        aug = []
        for i, row in enumerate(rows):
            tail = [field.zero] * m
            tail[i] = field.one
            aug.append(list(row) + tail)
        echelon, pivots = rref(aug, ncols + m, field)
        self.basis: list[list] = []
        self.transform: list[list] = []
        self.kernel: list[list] = []
        self.pivots: list[int] = []
        self.kernel_pivots: list[int] = []
        for row, c in zip(echelon, pivots):
            if c < ncols:
                self.basis.append(row[:ncols])
                self.transform.append(row[ncols:])
                self.pivots.append(c)
            else:
                self.kernel.append(row[ncols:])
                self.kernel_pivots.append(c - ncols)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: list) -> list:
        return reduce_mod_rowspace(v, self.basis, self.pivots, self.field)

    def contains(self, v: list) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(v))

    def coords(self, v: list):
        """Coefficients on the original rows giving v, or None if outside."""
        F = self.field
        out = list(v)
        co = [F.zero] * self.nrows
        for row, t, c in zip(self.basis, self.transform, self.pivots):
            coeff = out[c]
            if F.is_zero(coeff):
                continue
            out = [F.sub(x, F.mul(coeff, y)) for x, y in zip(out, row)]
            co = [F.add(x, F.mul(coeff, y)) for x, y in zip(co, t)]
        if any(not F.is_zero(x) for x in out):
            return None
        return co


def quotient_projection(echelon: list[list], pivots: list[int], ncols: int, field):
    """Matrix of the quotient map K^ncols -> K^(ncols - rank).

    Coordinates on the quotient are the non-pivot columns of the canonical
    representative.  Returns an ncols x (ncols - rank) matrix.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    proj = []
    for j in range(ncols):
        e = [field.zero] * ncols
        e[j] = field.one
        red = reduce_mod_rowspace(e, echelon, pivots, field)
        proj.append([red[f] for f in free])
    return proj


def rowspace_intersect_coords(
    rows: list[list], ncols: int, keep: set[int], field
) -> tuple[list[list], list[int]]:
    """Canonical basis of {v in rowspace : v supported on the keep columns}.

    Columns outside keep are moved to the front; echelon rows whose pivot
    falls inside the keep block are exactly the supported vectors.
    """
    outside = [j for j in range(ncols) if j not in keep]
    inside = [j for j in range(ncols) if j in keep]
    order = outside + inside
    permuted = [[row[j] for j in order] for row in rows]
    echelon, pivots = rref(permuted, ncols, field)
    cut = len(outside)
    picked = []
    for row, c in zip(echelon, pivots):
        if c >= cut:
            back = [field.zero] * ncols
            for pos, j in enumerate(order):
                back[j] = row[pos]
            picked.append(back)
    return rref(picked, ncols, field)


def rowspaces_equal(A: list[list], B: list[list], ncols: int, field) -> bool:
    return rref(A, ncols, field) == rref(B, ncols, field)
