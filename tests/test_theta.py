"""Theta-kernel unit tests: series convergence, quasi-periodicity, zero
loci, the characteristic shift law, and the order-n factorization."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ellr.theta import (
    TWO_PI_I,
    _out,
    _series,
    _window,
    e_fn,
    LatticeParams,
    ThetaContext,
    theta1,
    theta_alpha,
    theta_alpha_rows,
    theta_char,
    theta_char_shift_check,
    factor_constant,
    nearest_lattice_distance,
    w_fn,
)
from ellr.rmatrix import DEFAULT_TAU_OF_ETA

ETA = 0.31 + 1.37j


def jacobi_theta(z, eta):
    """Jacobi theta: sum_m e(mz + m^2 eta / 2), with argument reduction,
    elementwise over an array z."""
    return _out(_series(z, complex(eta), _window(eta), 0))


@pytest.fixture(scope="module")
def ctx():
    return ThetaContext(3, LatticeParams(ETA))


def test_e_fn_periodicity():
    z = 0.37 - 0.21j
    assert abs(e_fn(z + 1) - e_fn(z)) < 1e-14 * abs(e_fn(z))
    assert abs(e_fn(0) - 1) == 0


def test_theta1_period_one(ctx):
    z = 0.29 + 0.17j
    assert abs(theta1(z + 1, ctx) - theta1(z, ctx)) < 1e-13 * abs(theta1(z, ctx))


def test_theta1_eta_quasi_period(ctx):
    z = -0.11 + 0.05j
    lhs = theta1(z + ETA, ctx)
    rhs = -e_fn(-z) * theta1(z, ctx)
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_theta1_multi_eta_shift(ctx):
    # theta(z + s*eta) = (-1)^s e(-sz - s(s-1)eta/2) theta(z)
    z, s = 0.23 - 0.08j, 4
    lhs = theta1(z + s * ETA, ctx)
    rhs = (-1) ** s * e_fn(-s * z - 0.5 * s * (s - 1) * ETA) * theta1(z, ctx)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_theta1_vanishes_on_lattice(ctx):
    # the terms m and 1 - m cancel exactly at the reduced point z0 = 0
    for pt in (0.0, 1.0, ETA, 2 - ETA):
        assert theta1(pt, ctx) == 0


def test_theta_alpha_index_period(ctx):
    z = 0.19 + 0.21j
    for alpha in range(3):
        a = theta_alpha(alpha, z, ctx)
        b = theta_alpha(alpha + 3, z, ctx)
        assert abs(a - b) < 1e-12 * abs(a)


def test_theta_alpha_shift_by_one_over_n(ctx):
    z = -0.13 + 0.31j
    for alpha in range(3):
        lhs = theta_alpha(alpha, z + 1 / 3, ctx)
        rhs = e_fn(alpha / 3) * theta_alpha(alpha, z, ctx)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_theta_alpha_zero_locus(ctx):
    # zeros at -(alpha/n) eta + (1/n)Z + Z eta; compare against a nearby
    # generic value since the eta-translated sheets carry huge scale factors
    for alpha in range(3):
        for shift in (0.0, 1 / 3, ETA - 2 / 3):
            zero = -(alpha / 3) * ETA + shift
            ref = abs(theta_alpha(alpha, zero + 0.11, ctx))
            assert abs(theta_alpha(alpha, zero, ctx)) < 1e-11 * ref


def test_jacobi_theta_shift():
    z = 0.21 - 0.05j
    lhs = jacobi_theta(z + ETA, ETA)
    rhs = e_fn(-z - 0.5 * ETA) * jacobi_theta(z, ETA)
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_theta_char_shift_law():
    for (a, b, s, t) in ((0.3, 0.6, 2, -1), (0.5, 0.5, -1, 3), (0.0, 0.25, 1, 1)):
        resid = theta_char_shift_check(a, b, s, t, 0.17 + 0.09j, ETA)
        assert resid < 1e-12


def test_theta_char_zero_locus():
    # vanishes iff z in (1+eta)/2 - (a*eta + b) + lattice
    a, b = 0.25, 0.4
    z0 = 0.5 * (1 + ETA) - (a * ETA + b)
    assert abs(theta_char(a, b, z0, ETA)) < 1e-12
    assert abs(theta_char(a, b, z0 + 1 + ETA, ETA)) < 1e-11
    assert abs(theta_char(a, b, z0 + 0.37, ETA)) > 1e-3


def test_factorization_constant(ctx):
    c = factor_constant(ctx)
    for alpha, z in ((0, 0.31 + 0.12j), (1, -0.22 + 0.4j), (2, 0.05 - 0.17j)):
        lhs = theta_char(alpha / 3 + 0.5, 0.5, z, 3 * ETA)
        rhs = e_fn(-0.5 * z) * theta_alpha(alpha, z / 3, ctx) / c
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_factor_constant_cached(ctx):
    assert factor_constant(ctx) == factor_constant(ctx)


def test_nearest_lattice_distance():
    assert nearest_lattice_distance(0.0, ETA) == 0.0
    assert nearest_lattice_distance(3 + 2 * ETA, ETA) < 1e-14
    assert nearest_lattice_distance(0.5, ETA) == pytest.approx(0.5)


def test_w_fn_unit_at_zero(ctx):
    tau = 0.1234 + 0.4321 * ETA
    for (a, b) in ((0, 0), (1, 2), (2, 1)):
        assert abs(w_fn(a, b, 0.0, tau, ctx) - 1) < 1e-12


def test_lattice_params_requires_upper_half_plane():
    with pytest.raises(ValueError):
        LatticeParams(0.3 - 0.2j)


_unit = st.floats(-0.5, 0.5)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(eta_re=_unit, eta_im=st.floats(0.3, 2.0), x=_unit, y=_unit,
       n=st.integers(2, 5), alpha=st.integers(0, 4))
def test_quasi_periodicity_property(eta_re, eta_im, x, y, n, alpha):
    # z = x + y*eta ranges over the base cell; the laws hold to 1e-12
    # relative wherever |theta1(z)| >= 1e-6
    eta = complex(eta_re, eta_im)
    ctx = ThetaContext(n, LatticeParams(eta))
    z = x + y * eta
    t = theta1(z, ctx)
    assume(abs(t) >= 1e-6)

    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

    assert rel(theta1(z + 1, ctx), t) < 1e-12
    assert rel(theta1(z + eta, ctx), -e_fn(-z) * t) < 1e-12
    alpha %= n
    ta = theta_alpha(alpha, z, ctx)
    assert rel(theta_alpha(alpha, z + 1 / n, ctx), e_fn(alpha / n) * ta) < 1e-12


# Kernel values recorded from the adaptive scalar series this kernel replaced,
# to 17 significant digits.  The points include arguments several periods
# away from the base cell, so the quasi-periodic reduction is exercised too.
# (eta, z, theta1(z)) with n = 3
PINNED_THETA1 = [
    ((0.31+1.37j), (0.29+0.17j), (1.084950750103136-0.33293066342265354j)),
    ((0.31+1.37j), (-0.11+0.05j), (0.4375164549561556+0.46550794003972606j)),
    ((0.31+1.37j), (1.47+5.4j), (6.348717054939215e+21+1.7000289663323236e+21j)),
    ((0.31+1.37j), (1.7-2.3j), (-201736257.5485168-636863823.9318277j)),
    ((0.31+1.37j), (-0.45+0.6j), (1.021428230036962+0.015030987373382943j)),
    ((-0.2+0.45j), (0.29+0.17j), (1.252941988308838-0.31885169118340284j)),
    ((-0.2+0.45j), (-0.11+0.05j), (0.34080685280106926+0.4934735203428942j)),
    ((-0.2+0.45j), (1.47+5.4j), (8.305767069577576e+80-1.7424688560755768e+80j)),
    ((-0.2+0.45j), (1.7-2.3j), (1.7967295443662885e+19+1.7451426884370741e+19j)),
    ((-0.2+0.45j), (-0.45+0.6j), (0.899482354533497-2.191470687726173j)),
]
# (n, z, [theta_alpha(z) for alpha in Z_n]) with eta = ETA
PINNED_THETA_ALPHA = [
    (2, (0.29+0.17j), [
        (1.1036531042106827+0.056524519835507936j),
        (-2.876092896222376+0.6868143675490973j),
    ]),
    (2, (-0.11+0.05j), [
        (0.9003332844609174+0.5238033938858356j),
        (5.807686400152758+2.4033933710642432j),
    ]),
    (2, (1.47+5.4j), [
        (-4.0857694724454275e+43+2.570514841016558e+43j),
        (1.0160944457710839e+44-1.5461492170227264e+44j),
    ]),
    (2, (1.7-2.3j), [
        (-3.734206006701516e+17+2.039728634898592e+17j),
        (2.0527076044132733e+17-1.1500566482234522e+17j),
    ]),
    (2, (-0.45+0.6j), [
        (0.9997666041211868-0.0006440914708495341j),
        (-0.09627619905941932-0.1673033622927542j),
    ]),
    (3, (0.29+0.17j), [
        (0.9724307149139094+0.029093848735618086j),
        (-3.660170102740516+4.827258659931478j),
        (0.7653764206694142-1.9453821935480289j),
    ]),
    (3, (-0.11+0.05j), [
        (1.1881342193055888+0.340926439526415j),
        (12.323695120446109-3.7274729598380776j),
        (9.388987684942224+0.5893070172342538j),
    ]),
    (3, (1.47+5.4j), [
        (9.937841551119947e+64-2.1122969999134577e+65j),
        (1.3079435685479839e+66-3.956184886148909e+65j),
        (-1.3280089743258169e+66+1.829700803156621e+66j),
    ]),
    (3, (1.7-2.3j), [
        (1.8932423777455183e+26+2.0142926654079092e+26j),
        (-3.0598509534584428e+26-2.557202816468718e+25j),
        (2.764186472696587e+25-1.1444164849709315e+25j),
    ]),
    (3, (-0.45+0.6j), [
        (1.0002090104526218-0.0005000355892878922j),
        (-0.30682851833842795-0.2648484311656104j),
        (-0.14389158307140765+0.017053272888535496j),
    ]),
    (4, (0.29+0.17j), [
        (0.9927862734649214-0.012452369811821323j),
        (-2.6093618800745855+8.270271230124155j),
        (-3.9734084070107474-7.785166373747048j),
        (0.7098020473784055+0.7273441370614748j),
    ]),
    (4, (-0.11+0.05j), [
        (1.2650344876829125+0.1039408454555878j),
        (14.81881759989616-10.960042036194116j),
        (27.901463382533414-27.939390070658842j),
        (8.864149249561704-4.256911815597533j),
    ]),
    (4, (1.47+5.4j), [
        (-2.6657263960547345e+86+1.0868432659166358e+87j),
        (5.194295801727255e+87+4.78201468373563e+87j),
        (-3.14121318406549e+88+1.3618576441276738e+88j),
        (9.151886086627637e+87-1.6989654116295945e+88j),
    ]),
    (4, (1.7-2.3j), [
        (9.641660608657153e+34-1.521617802625597e+35j),
        (1.4007021846343478e+35+2.4971560043063353e+35j),
        (-4.725120854413306e+34-2.3929165823040547e+34j),
        (-1.0123895336407437e+34-6.55514787046032e+33j),
    ]),
    (4, (-0.45+0.6j), [
        (1.0002688051492703-0.0006795930147357569j),
        (-0.5427340934942013-0.20955768230823413j),
        (0.016837045180546413+0.04007281196623781j),
        (-0.198298614809938-0.02353209950890107j),
    ]),
    (5, (0.29+0.17j), [
        (1.0048942520452409-0.0023345370116913955j),
        (-1.0703253720738024+10.70171237028433j),
        (-17.180730583523772-11.497745224938248j),
        (7.067723525856827-0.7190335173184489j),
        (-0.39677753421126283+0.15521416182962006j),
    ]),
    (5, (-0.11+0.05j), [
        (1.1980531743466833-0.06527701460202906j),
        (15.210764468917542-17.064072426063635j),
        (25.415002955211882-89.86643915477329j),
        (14.405058757332116-66.67475540735435j),
        (4.578454889896014-7.63486123700363j),
    ]),
    (5, (1.47+5.4j), [
        (4.8802726695236976e+107-7.181549936982836e+108j),
        (-1.0868807332103988e+109+2.973369067661175e+109j),
        (-2.611910607377585e+110-1.3074561472786529e+110j),
        (3.9741112116106093e+110-2.7424402491094125e+110j),
        (-4.055515220363054e+109+1.3681855474413681e+110j),
    ]),
    (5, (1.7-2.3j), [
        (-1.1164223490470935e+44-3.6170080149193205e+43j),
        (1.310572020527706e+44-1.906084388340198e+44j),
        (2.3300001294426e+43+7.811373976668141e+43j),
        (-3.550397871823884e+42-3.4697337465736644e+42j),
        (-4.2348896189693925e+42+9.781476811380627e+42j),
    ]),
    (5, (-0.45+0.6j), [
        (1.000336059782314-0.0008492047537969477j),
        (-0.7120173337943714-0.1167422654347344j),
        (0.07025234228234586+0.060946483448266905j),
        (0.007511433192359264+0.006053005859252995j),
        (-0.2416891670563889-0.05540130581462559j),
    ]),
]
# (eta, z, jacobi_theta(z, eta))
PINNED_JACOBI = [
    ((0.31+1.37j), (0.29+0.17j), (1.0216380846029338-0.02792646181611377j)),
    ((0.31+1.37j), (-0.11+0.05j), (1.0077379148332786+0.021174792450355744j)),
    ((0.31+1.37j), (1.47+5.4j), (-8.594366004305358e+28-6.392029855683943e+28j)),
    ((0.31+1.37j), (1.7-2.3j), (133586.56920168403-5251.7688855433225j)),
    ((0.31+1.37j), (-0.45+0.6j), (0.5366510516255648-0.3596016213783476j)),
    ((0.9299999999999999+4.11j), (0.29+0.17j), (1.000003287622575+5.552196210757017e-06j)),
    ((0.9299999999999999+4.11j), (-0.11+0.05j), (0.9999958838346712-1.0967183391316819e-07j)),
    ((0.9299999999999999+4.11j), (1.47+5.4j), (1350719622.7813308-47430525.933910295j)),
    ((0.9299999999999999+4.11j), (1.7-2.3j), (3.3729988703497593+4.012521957188284j)),
    ((0.9299999999999999+4.11j), (-0.45+0.6j), (1.0000922156677454-5.449733348042091e-05j)),
]
# (a, b, z, eta, theta_char(a, b, z, eta))
PINNED_THETA_CHAR = [
    (0.3, 0.6, (0.29+0.17j), (0.31+1.37j), (-0.3405635295257252+0.5581951240038754j)),
    (0.3333333333333333, 0.6666666666666666, (-0.11+0.05j), (0.31+1.37j), (0.10484736504877641+0.36155317821569555j)),
    (0.5, 0.5, (1.47+5.4j), (0.31+1.37j), (4.313977213686767e+28+2.947288127753738e+28j)),
    (-0.75, 0.2, (1.7-2.3j), (0.31+1.37j), (-19920.030444818494-39761.99827302j)),
    (0.0, 0.25, (-0.45+0.6j), (0.31+1.37j), (0.6410669092584971+0.46312069506513737j)),
]
# (n, a, b, z, w_fn(a, b, z, TAU, ctx)) with eta = ETA
PINNED_W = [
    (2, 1, 1, (0.29+0.17j), (-0.974165580342231-0.7119961468574346j)),
    (3, 1, 2, (-0.11+0.05j), (1.20762360592792+0.6415450059040819j)),
    (3, 2, 0, (1.47+5.4j), (-4.6379554691196155e+42-7.919097355842204e+42j)),
    (4, 3, 1, (1.7-2.3j), (-0.33306462692725053+0.08687931510121151j)),
    (5, 2, 4, (-0.45+0.6j), (-87.72737489537074+88.69683755998729j)),
]


def _close(got, want, rel=1e-13):
    return np.max(np.abs(np.asarray(got) - want) / np.abs(want)) < rel


def test_kernel_matches_pinned_values():
    for eta, z, want in PINNED_THETA1:
        assert _close(theta1(z, ThetaContext(3, LatticeParams(eta))), want), (eta, z)
    for n, z, want in PINNED_THETA_ALPHA:
        ctx = ThetaContext(n, LatticeParams(ETA))
        assert _close([theta_alpha(alpha, z, ctx) for alpha in range(n)], want), (n, z)
        assert _close(theta_alpha_rows([z], ctx)[0], want), (n, z)
    for eta, z, want in PINNED_JACOBI:
        assert _close(jacobi_theta(z, eta), want), (eta, z)
    for a, b, z, eta, want in PINNED_THETA_CHAR:
        assert _close(theta_char(a, b, z, eta), want), (a, b, z)
    tau = DEFAULT_TAU_OF_ETA(ETA)
    for n, a, b, z, want in PINNED_W:
        assert _close(w_fn(a, b, z, tau, ThetaContext(n, LatticeParams(ETA))), want), (n, a, b)


def test_scalar_calls_return_complex(ctx):
    z = 0.29 + 0.17j
    for value in (theta1(z, ctx), theta_alpha(1, z, ctx), jacobi_theta(z, ETA),
                  theta_char(0.3, 0.6, z, ETA), w_fn(1, 2, z, 0.2 + 0.3j, ctx)):
        assert type(value) is complex


def test_array_calls_agree_with_scalar_calls(ctx):
    # elementwise to rounding: numpy's vector and scalar exp may differ in the last bit
    def same(x, y):
        return abs(x - y) <= 1e-15 * abs(y)

    zs = np.array([[p[1] for p in PINNED_THETA1[:5]], [0.0, 1.0, ETA, -0.3j, 0.5]])
    got = theta1(zs, ctx)
    assert got.shape == zs.shape
    for z, value in zip(zs.ravel(), got.ravel()):
        assert same(value, theta1(complex(z), ctx))
    a = np.array([0.3, 1 / 3, 0.5, -0.75, 0.0])[:, None]
    b = np.array([0.6, 2 / 3, 0.25])
    got = theta_char(a, b, zs[0, 0], ETA)
    assert got.shape == (5, 3)
    for (i, j), value in np.ndenumerate(got):
        assert same(value, theta_char(a[i, 0], b[j], zs[0, 0], ETA))


def _direct_series(z, eta, M, odd):
    """Reference kernel: the series of ``ellr.theta._series`` with one
    complex exponential per term.  Returns the sum and its term bound,
    |carry-back factor| * sum_m |term_m|."""
    z = np.asarray(z, dtype=complex)
    s = np.round(z.imag / eta.imag)
    z0 = z - s * eta
    z0 = z0 - np.round(z0.real)
    m = np.arange(-M, M + 2)
    terms = (1 - 2 * (odd * m % 2)) * np.exp(
        TWO_PI_I * (np.multiply.outer(z0, m) + 0.5 * m * (m - odd) * eta))
    total = (terms[..., M + 1:] + terms[..., M::-1]).sum(axis=-1)
    factor = (1 - 2 * (odd * s % 2)) * np.exp(TWO_PI_I * (-s * z0 - 0.5 * s * (s - odd) * eta))
    return factor * total, np.abs(factor) * np.abs(terms).sum(axis=-1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(eta_im=st.floats(0.3, 200),
       z=st.tuples(_unit, _unit, st.integers(-3, 3), st.integers(-3, 3)),
       odd=st.sampled_from((0, 1)))
def test_kernel_matches_the_direct_series(eta_im, z, odd):
    # up to three periods from the base cell in each direction; where the
    # carry-back factor overflows, both kernels overflow
    eta = complex(0.31, eta_im)
    x, y, t, s = z
    zs = np.array([x + t + (y + s) * eta, x + y * eta])
    M = _window(eta)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _series(zs, eta, M, odd)
        want, bound = _direct_series(zs, eta, M, odd)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    ok = np.isfinite(want)
    assert np.all(np.abs(got - want)[ok] <= 1e-13 * bound[ok])
