"""Theta-kernel unit tests: series convergence, quasi-periodicity, zero
loci, the characteristic shift law, and the order-n factorization."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ellr.theta import (
    e_fn,
    LatticeParams,
    ThetaContext,
    theta1,
    theta_alpha,
    jacobi_theta,
    theta_char,
    theta_char_shift_check,
    factor_constant,
    nearest_lattice_distance,
    w_fn,
)

ETA = 0.31 + 1.37j


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
    for pt in (0.0, 1.0, ETA, 2 - ETA):
        assert abs(theta1(pt, ctx)) < 1e-13


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
