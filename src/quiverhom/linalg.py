"""Exact linear algebra over the rationals or a prime field.

Matrices are plain lists of row lists and vectors are flat lists; there is no
matrix class.  All maps act on the right of row vectors, so applying ``A`` to
``x`` means ``x @ A`` and composition reads left to right.  Shapes are the
caller's responsibility; functions that must cope with an empty row list take
the column count explicitly.  A matrix with no rows or no columns, such as
the block of an empty module component, has the zero row space: ``rref`` and
``RowSpace`` answer it without eliminating, so no caller needs its own case
for it.  Entries are canonical field elements (see ``fields``), so zero is
the only falsy entry and zero tests are truthiness: ``if x``, ``any(row)``.
Zero and identity matrices hold the ints 0 and 1.  A vector lies in a row
space iff ``reduce_mod_rowspace`` against the space's ``rref`` basis leaves
nothing.  ``RowSpace`` is the one kernel routine, one rref of the reversed
transpose: a left kernel is its ``kernel``, a right kernel the transpose's.
Its kernel rows are kept as their nonzero (column, entry) pairs, dense on read.

``rref`` is one Gauss-Jordan loop for both fields, which differ in three
places, each chosen per input or per pivot, never per row.  Input: over
GF(p) entries are ints, and a row with one outside [0, p) is reduced first,
so sums of products may come in unreduced, as the Ext tables' Hom complex
does; over QQ they are taken as given, ints or Fractions.  Pivot scaling:
a row not led by 1 is multiplied by the pivot's inverse, over QQ
``Fraction(1) / pivot``, so no int division makes a float.  Row update: over
GF(p) each row the pivot row clears is written anew; over QQ it is copied
when first written to and updated only at the pivot row's nonzero columns,
which wide sparse relation rows need, so a zero the elimination never
touches stays the input's own object.  No input is ever mutated, and an
input row that is neither scaled nor updated comes back as an echelon row.
A single row or column is a decided block: its ``rank`` is read off its
entries, with no elimination, and ``rref`` of a single row, before any
range scan or zero-row filter, is that row scaled by its first nonzero
entry, the row itself when that entry is 1 (and, over GF(p), every entry
is in range).  Reduced row echelon form is canonical, so two
row spaces are equal iff their echelon bases are equal lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .fields import Rationals


def zeros(nrows: int, ncols: int, field) -> list[list]:
    z = field.zero
    return [[z] * ncols for _ in range(nrows)]


def identity(n: int, field) -> list[list]:
    z, o = field.zero, field.one
    return [[z] * i + [o] + [z] * (n - 1 - i) for i in range(n)]


def transpose(rows: list[list], ncols: int) -> list[list]:
    return [[row[j] for row in rows] for j in range(ncols)]


def vec_mat(x: list, rows: list[list], ncols: int, field) -> list:
    """Row vector times matrix: returns ``x @ rows`` of length ncols.

    Products at nonzero entries are summed as plain ints or Fractions; over
    GF(p) each output entry is reduced once, at the end.
    """
    out = [0] * ncols
    for xi, row in zip(x, rows):
        if xi:
            for j, a in enumerate(row):
                if a:
                    out[j] += xi * a
    return out if isinstance(field, Rationals) else [v % field.p for v in out]


def mat_mul(A: list[list], B: list[list], bcols: int, field) -> list[list]:
    """Matrix product A @ B where B has ``bcols`` columns."""
    return [vec_mat(row, B, bcols, field) for row in A]


# ---------------------------------------------------------------------------
# row echelon form


def rref(rows: list[list], ncols: int, field) -> tuple[list[list], list[int]]:
    """Canonical reduced row echelon form.

    Returns (echelon rows, pivot columns).  Zero rows are dropped, pivots are
    1 with zeros above and below, and rows are ordered by pivot column, so the
    output is a canonical basis of the row space.
    """
    if not rows or not ncols:
        return [], []
    p = None if isinstance(field, Rationals) else field.p
    if len(rows) == 1:  # decided: the row scaled by its first nonzero entry, or nothing
        row = rows[0]
        for c, lead in enumerate(row):
            if lead % p if p else lead:
                break
        else:
            return [], []
        if lead != 1 or p and (min(row) < 0 or max(row) >= p):
            inv = pow(lead, -1, p) if p else Fraction(1) / lead
            row = [x * inv % p for x in row] if p else [x * inv if x else x for x in row]
        return [row], [c]
    if p and (min(map(min, rows)) < 0 or max(map(max, rows)) >= p):
        rows = [r if 0 <= min(r) and max(r) < p else [v % p for v in r] for r in rows]
    rows = list(filter(any, rows))
    made = set()  # ids of the rows made here: over QQ only those are written to
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        for best in range(r, m):
            if rows[best][c]:
                break
        else:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            inv = pow(prow[c], -1, p) if p else Fraction(1) / prow[c]
            prow = rows[r] = [x * inv % p for x in prow] if p else [x * inv if x else x for x in prow]
            made.add(id(prow))
        if p:
            for i, row in enumerate(rows):
                q = row[c]
                if q and i != r:
                    rows[i] = [(x - q * y) % p for x, y in zip(row, prow)]
        else:
            # rows r.. are zero left of c, so the pivot row's support starts at c
            support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
            for i, row in enumerate(rows):
                q = row[c]
                if q and i != r:
                    if id(row) not in made:
                        row = rows[i] = list(row)
                        made.add(id(row))
                    for j, y in support:
                        row[j] -= q * y
        pivots.append(c)
        r += 1
    # every column was a pivot or zero below row r, so rows r.. are zero
    return rows[:r], pivots


def rank(rows: list[list], ncols: int, field) -> int:
    """Rank of the matrix; a single row or column is decided without rref."""
    if len(rows) == 1 or ncols == 1:
        entries = rows[0] if len(rows) == 1 else [row[0] for row in rows]
        return int(any(entries if isinstance(field, Rationals) else (x % field.p for x in entries)))
    return len(rref(rows, ncols, field)[1])


def reduce_mod_rowspace(v: list, echelon: list[list], pivots: list[int], field) -> list:
    """Canonical representative of v modulo the row space of an rref basis.

    Each echelon row is zero left of its pivot, and updates v only at its
    own nonzero columns.
    """
    out = list(v)
    sub, mul = field.sub, field.mul
    for row, c in zip(echelon, pivots):
        coeff = out[c]
        if not coeff:
            continue
        for j in range(c, len(row)):
            y = row[j]
            if y:
                out[j] = sub(out[j], mul(coeff, y))
    return out


class RowSpace:
    """Left kernel of an r x d matrix, and its rank, off one rref.

    That rref is of the d x r reversed transpose, whose row j is column j
    read from the last row up.  Each free column f of it gives the kernel
    pivot i = r - 1 - f, and ``kernel_entries`` the row for i as its nonzero
    (column, entry) pairs, read off in O(rank): (i, 1), then minus the
    echelon's column-f entry at r - 1 - p for each pivot p < f with one, in
    ascending order.  Such a row is zero at every other kernel pivot and
    left of i, so the rows are the canonical echelon basis of the left
    kernel, with their pivot columns in ``kernel_pivots``; the dense
    ``kernel`` is written out from the pairs when first read.  With no rows
    or no columns nothing is eliminated.
    """

    def __init__(self, rows: list[list], ncols: int, field):
        r = len(rows)
        echelon, pivots = rref(list(zip(*reversed(rows))), r, field)
        self.rank, lead, self._shape = len(pivots), set(pivots), (r, field)
        self.kernel_pivots = [r - 1 - f for f in reversed(range(r)) if f not in lead]
        # from the last pivot down, the entries land at r - 1 - p in ascending order
        last_first = list(zip(reversed(pivots), reversed(echelon)))
        self.kernel_entries: list[list[tuple]] = []
        for i in self.kernel_pivots:
            f, row = r - 1 - i, [(i, field.one)]
            for p, e in last_first:
                if e[f]:
                    row.append((r - 1 - p, field.neg(e[f])))
            self.kernel_entries.append(row)

    @cached_property
    def kernel(self) -> list[list]:
        return from_entries(self.kernel_entries, *self._shape)


def from_entries(rows: list[list[tuple]], ncols: int, field) -> list[list]:
    """Dense rows of length ncols from rows of nonzero (column, entry) pairs."""
    dense = [[field.zero] * ncols for _ in rows]
    for row, pairs in zip(dense, rows):
        for c, x in pairs:
            row[c] = x
    return dense


def quotient_projection(echelon: list[list], pivots: list[int], ncols: int, field):
    """Matrix of the quotient map K^ncols -> K^(ncols - rank).

    Coordinates on the quotient are the non-pivot columns of the canonical
    representative.  The unit vector at a free column represents itself, and
    the one at a pivot reduces to minus its echelon row.  Returns an
    ncols x (ncols - rank) matrix.
    """
    pivot_rows = dict(zip(pivots, echelon))
    free = [j for j in range(ncols) if j not in pivot_rows]
    units = dict(zip(free, identity(len(free), field)))
    return [
        units[j] if j in units else [field.neg(pivot_rows[j][f]) for f in free]
        for j in range(ncols)
    ]


def rowspaces_equal(A: list[list], B: list[list], ncols: int, field) -> bool:
    return rref(A, ncols, field) == rref(B, ncols, field)
