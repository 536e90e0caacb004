"""rref, rank and RowSpace against an elimination that shares no code with linalg.

The oracle is a dense Gauss-Jordan written here: on Fractions over QQ and on
ints reduced mod p over GF(p), it rewrites every row at every pivot and
imports nothing from ``linalg``.  The left kernel is found on its own as the
null space of the transpose, read off the oracle's echelon form and put in
echelon form itself, which is canonical.  The examples are derandomized and
cover one row, one column, no rows, no columns, all-zero matrices,
dependent rows, tall blocks (6-12 rows over 1-4 columns, the shape of a
cover step's block) and kernels of dimension at least 2 over QQ, GF(5) and
GF(2^31 - 1), with GF entries that are negative or at least p.  Every call
must leave its input as it was, and every entry it returns must be an int
or a Fraction over QQ and an int in [0, p) over GF(p).  ``RowSpace`` keeps
each kernel row as its nonzero (column, entry) pairs: written out here, they
must be the oracle's rows, ascending from (pivot, 1), with no zero entry and
at most rank + 1 pairs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom import QQ, PrimeField, linalg

BIG = 2**31 - 1
FIELDS = [QQ, PrimeField(5), PrimeField(BIG)]


def oracle_rref(rows, ncols, p):
    """(echelon rows, pivot columns) by dense Gauss-Jordan; p is None over QQ."""
    norm = Fraction if p is None else (lambda x: x % p)
    inv = (lambda x: 1 / x) if p is None else (lambda x: pow(x, -1, p))
    a = [[norm(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        best = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if best is None:
            continue
        a[r], a[best] = a[best], a[r]
        s = inv(a[r][c])
        prow = [norm(x * s) for x in a[r]]
        a = [
            prow if i == r else [norm(x - row[c] * y) for x, y in zip(row, prow)]
            for i, row in enumerate(a)
        ]
        pivots.append(c)
    return a[: len(pivots)], pivots


def oracle_left_kernel(rows, ncols, p):
    """Echelon basis and pivots of {x : x @ rows = 0}, from the null space of the transpose."""
    m = len(rows)
    echelon, pivots = oracle_rref([[row[j] for row in rows] for j in range(ncols)], m, p)
    basis = []
    for f in range(m):
        if f in pivots:
            continue
        v = [0] * m
        v[f] = 1
        for row, c in zip(echelon, pivots):
            v[c] = -row[f]
        basis.append(v)
    return oracle_rref(basis, m, p)


def gf_entries(p):
    if p == BIG:
        near = st.integers(-3, 3) | st.integers(p - 3, p + 3) | st.integers(-p - 3, -p + 3)
        return st.sampled_from([0, 0, 1]) | near
    return st.sampled_from([0, 0]) | st.integers(-2 * p, 2 * p)


QQ_ENTRIES = st.sampled_from([0, 0, 1]) | st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def matrices(draw):
    F = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(["one row", "one column", "no rows", "no columns", "tall", "general"]))
    if shape == "tall":
        nrows, ncols = draw(st.integers(6, 12)), draw(st.integers(1, 4))
    else:
        nrows = 1 if shape == "one row" else 0 if shape == "no rows" else draw(st.integers(1, 5))
        ncols = 1 if shape == "one column" else 0 if shape == "no columns" else draw(st.integers(1, 5))
    if draw(st.integers(0, 5)) == 0:
        return F, [[F.zero] * ncols for _ in range(nrows)], ncols
    entries = QQ_ENTRIES if F == QQ else gf_entries(F.p)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        # a combination of drawn rows, not reduced: dependent over either field
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c, d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.insert(draw(st.integers(0, len(rows))), [c * x + d * y for x, y in zip(a, b)])
    return F, rows, ncols


def snapshot(rows):
    return [[(type(x), x) for x in row] for row in rows]


def assert_entries(rows, F):
    for row in rows:
        for x in row:
            if F == QQ:
                assert type(x) in (int, Fraction)
            else:
                assert type(x) is int and 0 <= x < F.p


def test_rref_rank_and_rowspace_match_the_oracle():
    seen = set()

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(matrices())
    def agree(data):
        F, rows, ncols = data
        p = None if F == QQ else F.p
        before = snapshot(rows)
        want, want_pivots = oracle_rref(rows, ncols, p)
        echelon, pivots = linalg.rref(rows, ncols, F)
        assert snapshot(rows) == before
        assert (echelon, pivots) == (want, want_pivots)
        assert_entries(echelon, F)
        assert linalg.rank(rows, ncols, F) == len(want_pivots)
        assert snapshot(rows) == before
        space = linalg.RowSpace(rows, ncols, F)
        assert snapshot(rows) == before
        assert space.rank == len(want_pivots)
        want_kernel, want_kernel_pivots = oracle_left_kernel(rows, ncols, p)
        # each row's pairs, written out here, are the oracle's row: ascending,
        # led by (pivot, 1), with no zero, and at most rank + 1 of them
        written = []
        for pairs, pivot in zip(space.kernel_entries, want_kernel_pivots):
            columns = [c for c, _ in pairs]
            assert columns == sorted(set(columns)) and pairs[0] == (pivot, 1)
            assert all(x for _, x in pairs) and len(pairs) <= space.rank + 1
            row = [0] * len(rows)
            for c, x in pairs:
                row[c] = x
            written.append(row)
        assert written == want_kernel
        assert (space.kernel, space.kernel_pivots) == (want_kernel, want_kernel_pivots)
        assert_entries(space.kernel, F)
        assert_entries([[x for _, x in pairs] for pairs in space.kernel_entries], F)
        # what the draw covered, per field
        if len(rows) == 1:
            seen.add((F.name, "one row"))
        if ncols == 1:
            seen.add((F.name, "one column"))
        if not rows:
            seen.add((F.name, "no rows"))
        if rows and not ncols:
            seen.add((F.name, "no columns"))
        if len(rows) >= 6 and ncols <= 4:
            seen.add((F.name, "tall"))
        if len(space.kernel) >= 2:
            seen.add((F.name, "kernel of dimension >= 2"))
        if rows and ncols and not any(x for row in rows for x in row):
            seen.add((F.name, "all zero"))
        nonzero = [row for row in rows if any(x % p if p else x for x in row)]
        if 1 <= len(want_pivots) < len(nonzero):
            seen.add((F.name, "dependent rows"))
        if p and any(x < 0 for row in rows for x in row):
            seen.add((F.name, "negative"))
        if p and any(x >= p for row in rows for x in row):
            seen.add((F.name, "at least p"))

    agree()
    kinds = ["one row", "one column", "no rows", "no columns", "all zero", "dependent rows"]
    kinds += ["tall", "kernel of dimension >= 2"]
    want = {(F.name, kind) for F in FIELDS for kind in kinds}
    want |= {(F.name, kind) for F in FIELDS[1:] for kind in ("negative", "at least p")}
    assert seen == want


GF5 = PrimeField(5)
# (field, the one row, its echelon row or None for a zero row, whether it comes back as itself)
SINGLE_ROWS = [
    (QQ, [0, 2, 4], [0, Fraction(1), Fraction(2)], False),  # ints: the zero stays an int
    (QQ, [Fraction(0), Fraction(3, 2), Fraction(-3)], [Fraction(0), Fraction(1), Fraction(-2)], False),
    (QQ, [0, 1, Fraction(5, 2)], [0, 1, Fraction(5, 2)], True),
    (QQ, (0, 1, -2), (0, 1, -2), True),  # a tuple, as RowSpace hands it over
    (QQ, [0, Fraction(0), 0], None, False),
    (GF5, [0, 3, 1], [0, 1, 2], False),
    (PrimeField(BIG), [0, 1, BIG - 1], [0, 1, BIG - 1], True),
    (GF5, [0, -2, 1], [0, 1, 2], False),  # negative entries
    (GF5, [5, 6, -3], [0, 1, 2], False),  # entries at least p, the first nonzero one 6 = 1
    (GF5, [1, 7], [1, 2], False),  # led by 1, yet not in range: reduced
    (GF5, [5, -10, 0], None, False),
]


def test_a_single_row_is_decided_as_the_loop_and_the_oracle_decide_it():
    """rref of one row is decided before the range scan and the zero-row
    filter; it must equal the oracle's by value and, type for type, what the
    Gauss-Jordan loop gives, reached by a zero row beside it."""
    for F, row, want, same in SINGLE_ROWS:
        p = None if F == QQ else F.p
        before = snapshot([row])
        echelon, pivots = linalg.rref([row], len(row), F)
        assert snapshot([row]) == before
        assert ([list(e) for e in echelon], pivots) == oracle_rref([row], len(row), p)
        looped, loop_pivots = linalg.rref([row, [0] * len(row)], len(row), F)
        assert (snapshot(echelon), pivots) == (snapshot(looped), loop_pivots)
        assert snapshot(echelon) == ([] if want is None else snapshot([want]))
        assert_entries(echelon, F)
        assert (echelon[0] is row) if same else all(e is not row for e in echelon)
