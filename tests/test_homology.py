"""Resolutions, Ext tables, dimension bounds, and resolution transport.

Independent anchors: hand-computed resolutions of simples over the line and
the cycle-with-tail fixtures, the syzygy dimension shift for Ext, and the
agreement between the projective- and injective-side Ext computations.
"""

import random

import pytest

from quiverhom import (
    QQ,
    DimBound,
    IdealSpec,
    IdempotentSplit,
    InputError,
    PrimeField,
    Quiver,
    build_algebra,
    check_term_reachability,
    ext_dims,
    gl_dim,
    heart_shift_pair,
    inj_dim,
    proj_dim,
    resolution,
    restricted_algebra,
    standard_module,
    transport_resolution,
    zero_module,
)
from quiverhom.homology import projective_cover_and_syzygy

from test_modules import random_module


def nz(term):
    return {v: k for v, k in term.items() if k}


def test_line_simple_resolution(line_algebra):
    sv = standard_module(line_algebra, "simple", "v")
    res = resolution(sv, 3)
    assert res.minimal and res.exact
    assert nz(res.terms[0]) == {"v": 1}
    assert nz(res.terms[1]) == {"w": 1}
    assert nz(res.terms[2]) == {}
    assert res.syzygy(2).is_zero
    assert proj_dim(sv, 5) == DimBound.finite(1)


def test_line_global_dimension(line_algebra):
    assert gl_dim(line_algebra, 5) == DimBound.finite(1)


def test_cycle_tail_periodic_resolution(cycle_tail_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    res = resolution(s1, 6)
    assert res.minimal and res.exact
    want = [{"1": 1}, {"2": 1}, {"1": 1}, {"2": 1}, {"1": 1}, {"2": 1}, {"1": 1}]
    assert [nz(t) for t in res.terms] == want
    # the second syzygy is the simple again, up to dimension data
    assert res.syzygy(2).dims == s1.dims
    assert proj_dim(s1, 10) == DimBound.at_least(10)
    assert gl_dim(cycle_tail_algebra, 8) == DimBound.at_least(8)


def test_cycle_tail_resolution_terms_agree_over_gf3(
    cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra
):
    gf3 = build_algebra(cycle_tail_quiver, cycle_tail_ideal, PrimeField(3))
    for v in cycle_tail_algebra.vertices:
        over_q = resolution(standard_module(cycle_tail_algebra, "simple", v), 6)
        over_3 = resolution(standard_module(gf3, "simple", v), 6)
        assert over_3.minimal and over_3.exact
        assert over_3.terms == over_q.terms


def test_injective_coresolution_mirrors_projective(cycle_tail_algebra):
    s3 = standard_module(cycle_tail_algebra, "simple", "3")
    cores = resolution(s3, 3, "injective")
    assert cores.minimal and cores.exact
    assert cores.direction == "injective"
    # injective at 3 collects paths into 3: e_3, c, ac/bc chains
    assert nz(cores.terms[0]) == {"3": 1}
    for i in range(1, 4):
        cz = cores.syzygy(i)
        assert inj_dim(s3, 6).kind in ("finite", "at_least")
        assert cz.total_dim >= 0


def test_resolution_rejects_bad_input(line_algebra):
    sv = standard_module(line_algebra, "simple", "v")
    with pytest.raises(InputError):
        resolution(sv, -1)
    with pytest.raises(InputError):
        resolution(sv, 2, "flat")


def test_ext_sides_agree_on_random_instances():
    rng = random.Random(500)
    q = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
    )
    alg = build_algebra(q, IdealSpec.monomial([("a", "b"), ("c", "a")], 4), QQ)
    for _ in range(12):
        m = random_module(rng, alg)
        n = random_module(rng, alg)
        left = ext_dims(m, n, 4, "projective")
        right = ext_dims(m, n, 4, "injective")
        assert left.dims == right.dims


def test_ext_zero_is_hom_dimension(cycle_tail_algebra):
    from quiverhom import hom_basis

    rng = random.Random(501)
    for _ in range(8):
        m = random_module(rng, cycle_tail_algebra)
        n = random_module(rng, cycle_tail_algebra)
        table = ext_dims(m, n, 2)
        assert table[0] == len(hom_basis(m, n))


def test_ext_shifts_along_syzygies(cycle_tail_algebra):
    rng = random.Random(502)
    for _ in range(6):
        m = random_module(rng, cycle_tail_algebra)
        n = random_module(rng, cycle_tail_algebra)
        if m.is_zero:
            continue
        omega = projective_cover_and_syzygy(m).syzygy
        full = ext_dims(m, n, 4)
        shifted = ext_dims(omega, n, 3)
        for k in range(2, 5):
            assert full[k] == shifted[k - 1]


def test_ext_table_shape_and_errors(cycle_tail_algebra, line_algebra):
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    table = ext_dims(s1, s1, 6)
    assert table.cutoff == 6 and len(table.dims) == 7
    # period-two resolution against the simple alternates 1, 0, 1, ...
    assert table.dims == (1, 0, 1, 0, 1, 0, 1)
    assert "ext^0=1" in table.describe()
    sv = standard_module(line_algebra, "simple", "v")
    with pytest.raises(InputError):
        ext_dims(s1, sv, 2)
    with pytest.raises(InputError):
        ext_dims(s1, s1, -1)
    with pytest.raises(InputError):
        ext_dims(s1, s1, 2, "sideways")


def test_dim_bound_conventions(cycle_tail_algebra):
    z = zero_module(cycle_tail_algebra)
    assert proj_dim(z, 3) == DimBound.finite(-1)
    assert str(DimBound.finite(1)) == "Finite(1)"
    assert str(DimBound.at_least(10)) == "AtLeast(10)"
    p2 = standard_module(cycle_tail_algebra, "projective", "2")
    assert proj_dim(p2, 0) == DimBound.finite(0)
    with pytest.raises(InputError):
        proj_dim(p2, -1)


def test_term_reachability_flags_unreachable_terms(line_algebra):
    sv = standard_module(line_algebra, "simple", "v")
    res = resolution(sv, 2)
    assert check_term_reachability(res)
    # forging a term at an unreachable vertex must trip the check
    forged = res.__class__(
        direction=res.direction,
        module=res.module,
        terms=(res.terms[0], {"v": 1}, res.terms[2]),
        reps=res.reps,
        diffs=res.diffs,
        syzygies=res.syzygies,
        infos=None,
        minimal=res.minimal,
        exact=res.exact,
    )
    assert not check_term_reachability(forged)


def test_transport_resolution_certificates(
    cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra
):
    hp = cycle_tail_quiver.homological_heart()
    split = IdempotentSplit.from_heart(cycle_tail_quiver, hp.heart)
    sub = hp.heart
    gamma = restricted_algebra(cycle_tail_quiver, cycle_tail_ideal, sub, QQ)
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    # the second syzygy lives on the heart, so it transports
    omega = resolution(s1, 2).syzygy(2)
    moved = transport_resolution(omega, 4, split, gamma)
    assert moved.exact and moved.minimal and moved.terms_projective
    assert moved.gamma is gamma
    p1 = standard_module(cycle_tail_algebra, "projective", "1")
    # support outside heart and successors is fine here; outside entirely is not
    with pytest.raises(InputError):
        bad_split = IdempotentSplit.from_heart(
            cycle_tail_quiver, cycle_tail_quiver.full_subquiver({"3", "4"})
        )
        transport_resolution(p1, 2, bad_split, gamma)


def test_heart_shift_pair_reproduces_shifted_ext(
    cycle_tail_quiver, cycle_tail_ideal, cycle_tail_algebra
):
    hp = cycle_tail_quiver.homological_heart()
    assert hp.t == 1
    split = IdempotentSplit.from_heart(cycle_tail_quiver, hp.heart)
    sub = hp.heart
    gamma = restricted_algebra(cycle_tail_quiver, cycle_tail_ideal, sub, QQ)
    s1 = standard_module(cycle_tail_algebra, "simple", "1")
    pair = heart_shift_pair(s1, s1, split, hp.t, gamma)
    shift = 2 * hp.t + 2
    lam_table = ext_dims(s1, s1, 9)
    gam_table = ext_dims(pair.a_part, pair.b_part, 9 - shift)
    for ell in range(2 * hp.t + 3, 10):
        assert lam_table[ell] == gam_table[ell - shift]
