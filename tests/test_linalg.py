"""Exact linear algebra: echelon forms, ranks, kernels, quotient maps.

Property-based over both coefficient fields with small random matrices;
most identities here are standard rank/nullity facts, so the expected
values need no external oracle.  The rational echelon form is also compared
with an integer fraction-free elimination kept here as a reference, and
``RowSpace``'s kernel with the left kernel of ``test_elimination_oracle``.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom import QQ, PrimeField
from quiverhom import linalg

from test_elimination_oracle import oracle_left_kernel

GF5 = PrimeField(5)

FIELDS = st.sampled_from([QQ, GF5])


@st.composite
def matrix_and_field(draw, max_dim=5):
    F = draw(FIELDS)
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    rows = [
        [F.of(draw(st.integers(-4, 4))) for _ in range(ncols)] for _ in range(nrows)
    ]
    return F, rows, ncols


@given(matrix_and_field())
def test_rref_is_idempotent(data):
    F, rows, ncols = data
    echelon, pivots = linalg.rref(rows, ncols, F)
    again, pivots2 = linalg.rref(echelon, ncols, F)
    assert again == echelon
    assert pivots2 == pivots


@given(matrix_and_field())
def test_rref_preserves_rowspace(data):
    F, rows, ncols = data
    echelon, pivots = linalg.rref(rows, ncols, F)
    for row in rows:
        reduced = linalg.reduce_mod_rowspace(row, echelon, pivots, F)
        assert not any(reduced)
    assert linalg.rowspaces_equal(rows, echelon, ncols, F)


def dense_reduce(v, echelon, pivots, F):
    """Reduction modulo an rref basis that rewrites every column per row."""
    out = list(v)
    for row, c in zip(echelon, pivots):
        coeff = out[c]
        if coeff:
            out = [F.sub(x, F.mul(coeff, y)) for x, y in zip(out, row)]
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrix_and_field(max_dim=7), st.data())
def test_sparse_reduction_matches_the_dense_reference(data, draw):
    F, rows, ncols = data
    echelon, pivots = linalg.rref(rows, ncols, F)
    v = [F.of(draw.draw(st.integers(-4, 4))) for _ in range(ncols)]
    got = linalg.reduce_mod_rowspace(v, echelon, pivots, F)
    assert got == dense_reduce(v, echelon, pivots, F)
    assert not any(got[c] for c in pivots)
    # v minus its representative lies in the row space
    diff = [F.sub(a, b) for a, b in zip(v, got)]
    assert linalg.rank(echelon + [diff], ncols, F) == len(pivots)


def field_vec_mat(x, rows, ncols, F):
    """x @ rows through the field's add and mul, one call per nonzero product."""
    out = [F.zero] * ncols
    for xi, row in zip(x, rows):
        for j, a in enumerate(row):
            if xi and a:
                out[j] = F.add(out[j], F.mul(xi, a))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([QQ, GF5, PrimeField(2**31 - 1)]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.data(),
)
def test_vec_mat_matches_the_field_method_reference(F, nrows, ncols, draw):
    # ints, Fractions (a zero one too) and negative ints, near p over GF(p)
    entry = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(0, 3).map(lambda d: -d - 1),
    )
    # QQ takes ints and Fractions as they are, so both types meet in one product
    of = (lambda v: v) if F is QQ else F.of
    x = [of(draw.draw(entry)) for _ in range(nrows)]
    rows = [[of(draw.draw(entry)) for _ in range(ncols)] for _ in range(nrows)]
    got = linalg.vec_mat(x, rows, ncols, F)
    want = field_vec_mat(x, rows, ncols, F)
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
    if F is not QQ:
        assert all(type(v) is int and 0 <= v < F.p for v in got)


@given(matrix_and_field())
def test_rank_transpose_invariant(data):
    F, rows, ncols = data
    assert linalg.rank(rows, ncols, F) == linalg.rank(
        linalg.transpose(rows, ncols), len(rows), F
    )


@given(matrix_and_field())
def test_quotient_projection_kills_exactly_the_rowspace(data):
    F, rows, ncols = data
    echelon, pivots = linalg.rref(rows, ncols, F)
    proj = linalg.quotient_projection(echelon, pivots, ncols, F)
    qdim = ncols - len(pivots)
    assert len(proj) == ncols and all(len(r) == qdim for r in proj)
    for row in echelon:
        assert not any(linalg.vec_mat(row, proj, qdim, F))
    assert linalg.rank(proj, qdim, F) == qdim


@settings(max_examples=60)
@given(matrix_and_field(max_dim=4), st.data())
def test_mat_mul_is_associative(data, draw):
    F, A, k = data
    m = draw.draw(st.integers(0, 4))
    n = draw.draw(st.integers(0, 4))
    B = [[F.of(draw.draw(st.integers(-3, 3))) for _ in range(m)] for _ in range(k)]
    C = [[F.of(draw.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)]
    left = linalg.mat_mul(linalg.mat_mul(A, B, m, F), C, n, F)
    right = linalg.mat_mul(A, linalg.mat_mul(B, C, n, F), n, F)
    assert left == right


@given(matrix_and_field())
def test_rowspace_membership_and_kernel(data):
    F, rows, ncols = data
    space = linalg.RowSpace(rows, ncols, F)
    basis, pivots = linalg.rref(rows, ncols, F)
    assert space.rank == len(basis) == linalg.rank(rows, ncols, F)
    for row in rows:
        assert not any(linalg.reduce_mod_rowspace(row, basis, pivots, F))
    p = None if F == QQ else F.p
    assert (space.kernel, space.kernel_pivots) == oracle_left_kernel(rows, ncols, p)
    assert space.rank + len(space.kernel) == len(rows)


def test_rref_canonical_form_small_case():
    # pivots are 1 with cleared columns, rows ordered by pivot position
    rows = [
        [Fraction(2), Fraction(4), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(3)],
    ]
    echelon, pivots = linalg.rref(rows, 3, QQ)
    assert pivots == [0, 2]
    assert echelon == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


@pytest.mark.parametrize("F", [QQ, GF5], ids=["QQ", "GF5"])
def test_rref_returns_rows_it_neither_scales_nor_updates_as_they_are(F):
    rows = [[1, 0], [0, 1]]
    echelon, pivots = linalg.rref(rows, 2, F)
    assert pivots == [0, 1]
    assert echelon[0] is rows[0] and echelon[1] is rows[1]
    # a row the other pivot row clears is written to a copy, never in place
    rows = [[1, 2], [3, 4]]
    echelon, _ = linalg.rref(rows, 2, F)
    assert rows == [[1, 2], [3, 4]]
    assert all(e is not r for e in echelon for r in rows)


def test_rational_rref_keeps_zeros_no_pivot_row_touches():
    # the pivot rows are zero at column 1, so no update writes there: each
    # row keeps its own zero, a Fraction and an int, as the very object
    zf, zi = Fraction(0), 0
    rows = [[1, zf, 2], [3, zi, 0]]
    echelon, pivots = linalg.rref(rows, 3, QQ)
    assert pivots == [0, 2]
    assert echelon[0] is not rows[0] and echelon[1] is not rows[1]
    assert echelon[0][1] is zf and echelon[1][1] is zi
    assert [type(row[1]) for row in echelon] == [Fraction, int]
    assert rows == [[1, zf, 2], [3, zi, 0]] and type(rows[0][1]) is Fraction


def test_prime_field_reduction_differs_from_rationals():
    rows = [[5, 10], [1, 3]]
    assert linalg.rank(rows, 2, GF5) == 1
    rows_q = [[Fraction(5), Fraction(10)], [Fraction(1), Fraction(3)]]
    assert linalg.rank(rows_q, 2, QQ) == 2


# ---------------------------------------------------------------------------
# reference rational row reduction: fraction-free over the integers


def _reference_rref_int(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
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


def reference_rref_q(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Clear each row's denominators, eliminate over the integers, divide at the end."""
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
    echelon, pivots = _reference_rref_int(work, ncols)
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(echelon, pivots)], pivots


RATIONAL_ENTRY = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def rational_rows(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [[draw(RATIONAL_ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(rows[draw(st.integers(0, nrows - 1))]))
    return rows, ncols


def test_rational_rref_matches_the_integer_reference():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(rational_rows())
    def agree(data):
        rows, ncols = data
        before = [[(type(x), x) for x in row] for row in rows]
        echelon, pivots = linalg.rref(rows, ncols, QQ)
        assert (echelon, pivots) == reference_rref_q(rows, ncols)
        assert [[(type(x), x) for x in row] for row in rows] == before
        assert not any(isinstance(x, float) for row in echelon for x in row)
        for i, c in enumerate(pivots):
            assert [row[c] for row in echelon] == [int(k == i) for k in range(len(pivots))]
        kinds = {type(x) for row in rows for x in row if x}
        if any(isinstance(x, Fraction) and x.denominator > 1 for row in rows for x in row):
            seen.add("non-integral")
        if int in kinds:
            seen.add("plain int")
        if any({type(x) for x in row if x} == {int, Fraction} for row in rows):
            seen.add("mixed row")
        if any(not any(row) for row in rows):
            seen.add("zero row")
        if any(rows[i] == rows[j] and any(rows[i]) for j in range(len(rows)) for i in range(j)):
            seen.add("repeated row")
        if not rows:
            seen.add("0xn")
        if rows and not ncols:
            seen.add("mx0")

    agree()
    assert seen == {
        "non-integral", "plain int", "mixed row", "zero row", "repeated row", "0xn", "mx0"
    }


# ---------------------------------------------------------------------------
# empty shapes: rref and RowSpace against dense references with no fast path


ORACLE_FIELDS = [QQ, GF5, PrimeField(2**31 - 1)]


def reference_rref_mod(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan mod p that rewrites every row at every pivot."""
    rows = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        best = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = pow(rows[r][c], -1, p)
        prow = [x * inv % p for x in rows[r]]
        rows = [
            prow if i == r else [(x - row[c] * y) % p for x, y in zip(row, prow)]
            for i, row in enumerate(rows)
        ]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def reference_rref(rows: list[list], ncols: int, F) -> tuple[list[list], list[int]]:
    if F == QQ:
        return reference_rref_q(rows, ncols)
    return reference_rref_mod(rows, ncols, F.p)


def reference_rowspace(rows: list[list], ncols: int, F) -> tuple:
    """(rank, kernel, kernel_pivots) from one reference elimination of [rows | I]."""
    m = len(rows)
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    echelon, pivots = reference_rref(aug, ncols + m, F)
    right = [(row[ncols:], c - ncols) for row, c in zip(echelon, pivots) if c >= ncols]
    return len(pivots) - len(right), [row for row, _ in right], [c for _, c in right]


@st.composite
def oracle_matrices(draw):
    F = draw(st.sampled_from(ORACLE_FIELDS))
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return F, linalg.zeros(nrows, ncols, F), ncols
    rows = [[F.of(draw(st.integers(-4, 4))) for _ in range(ncols)] for _ in range(nrows)]
    return F, rows, ncols


def test_empty_shapes_match_the_dense_reference():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(oracle_matrices())
    def agree(data):
        F, rows, ncols = data
        assert linalg.rref(rows, ncols, F) == reference_rref(rows, ncols, F)
        space = linalg.RowSpace(rows, ncols, F)
        got = (space.rank, space.kernel, space.kernel_pivots)
        assert got == reference_rowspace(rows, ncols, F)
        if not rows:
            shape = "0xn"
        elif not ncols:
            shape = "mx0"
        else:
            shape = "nonzero" if any(map(any, rows)) else "all-zero"
        seen.add((F.name, shape))

    agree()
    shapes = ("0xn", "mx0", "all-zero", "nonzero")
    assert seen == {(F.name, shape) for F in ORACLE_FIELDS for shape in shapes}
