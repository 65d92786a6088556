"""R-matrix unit tests: normalization, symmetry operators, transformation
laws, determinant closed forms, torsion limits, and the duality laws."""

import dataclasses
import math
from math import comb

import numpy as np
import pytest

import ellr.theta as theta_module
from ellr.theta import TruncationError, e_fn, theta_alpha, w_fn
from ellr.linalg import svd_rank
from ellr.rmatrix import (
    DEFAULT_ETA,
    AlgebraParams,
    HalfPeriodPoint,
    make_params,
    basis_ops,
    torsion_op,
    r_matrix,
    sym_op,
    b_fn,
    f_fn,
    r_plus_limit,
    weight_op,
    weight_op_k,
    det_closed_form,
    alt_norm_det_closed_form,
    alt_norm_prefactor,
    dual_transpose_check,
)


@pytest.fixture(scope="module")
def p31():
    return make_params(3, 1)


@pytest.fixture(scope="module")
def p32():
    return make_params(3, 2)


def _rel(diff, *refs):
    scale = max(float(np.max(np.abs(r))) for r in refs)
    return float(np.max(np.abs(diff))) / scale


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(1, 1)
    with pytest.raises(ValueError):
        make_params(4, 2)  # gcd != 1
    p = make_params(5, 2)
    assert (p.k * p.k_prime) % 5 == 1


def test_heisenberg_relations(p31):
    ops = basis_ops(p31)
    S, T, N, P = ops["S"], ops["T"], ops["N"], ops["P"]
    omega = e_fn(1 / 3)
    assert np.allclose(S @ T, omega * T @ S, atol=1e-14)
    assert np.allclose(np.linalg.matrix_power(T, 3), np.eye(3), atol=1e-14)
    assert np.allclose(N @ N, np.eye(3), atol=1e-14)
    assert np.allclose(P @ P, np.eye(9), atol=1e-14)
    v = np.arange(9, dtype=complex)
    assert np.allclose(P @ v, v.reshape(3, 3).T.reshape(-1))


def test_r_identity_at_zero(p31):
    assert np.max(np.abs(r_matrix(p31, 0.0) - np.eye(9))) < 1e-12


def test_r_commutes_with_diagonal_symmetries(p31):
    ops = basis_ops(p31)
    R = r_matrix(p31, 0.21 - 0.04j)
    for name in ("S", "T"):
        G = np.kron(ops[name], ops[name])
        assert _rel(G @ R - R @ G, R) < 1e-12


def test_shift_law_period_over_n(p31):
    ops = basis_ops(p31)
    Sk = np.linalg.matrix_power(ops["S"], p31.k)
    z = 0.17 + 0.06j
    lhs = r_matrix(p31, z + 1 / 3)
    R = r_matrix(p31, z)
    rhs = np.kron(np.eye(3), np.linalg.inv(Sk)) @ R @ np.kron(Sk, np.eye(3))
    assert _rel(lhs - rhs, lhs) < 1e-12


def test_shift_law_eta_over_n(p31):
    ops = basis_ops(p31)
    T = ops["T"]
    z = -0.09 + 0.11j
    lhs = r_matrix(p31, z + p31.eta / 3)
    rhs = b_fn(p31, z) * np.kron(np.eye(3), np.linalg.inv(T)) @ r_matrix(p31, z) @ np.kron(T, np.eye(3))
    assert _rel(lhs - rhs, lhs) < 1e-12


def test_negation_law(p31):
    P = basis_ops(p31)["P"]
    z = 0.23 - 0.07j
    lhs = r_matrix(p31, -z)
    rhs = e_fn(9 * z) * P @ r_matrix(p31.with_tau(-p31.tau), z) @ P
    assert _rel(lhs - rhs, lhs) < 1e-12


def test_general_torsion_shift(p31):
    zeta = HalfPeriodPoint(1, 2)
    C = torsion_op(p31, zeta.a, zeta.b)
    Cinv = np.linalg.inv(C)
    z = 0.13 + 0.04j
    lhs = r_matrix(p31, z + zeta.value(3, p31.eta))
    rhs = f_fn(p31, z, zeta) * np.kron(np.eye(3), Cinv) @ r_matrix(p31, z) @ np.kron(C, np.eye(3))
    assert _rel(lhs - rhs, lhs) < 1e-12


def test_inverse_pair_scalar(p31):
    z = 0.19 - 0.05j
    prod = r_matrix(p31, z) @ r_matrix(p31, -z)
    c = prod[0, 0]
    assert _rel(prod - c * np.eye(9), prod) < 1e-12


def test_det_closed_form(p31, p32):
    for p in (p31, p32):
        for z in (0.21 + 0.03j, -0.14 + 0.08j):
            ratio = np.linalg.det(r_matrix(p, z)) / det_closed_form(p, z)
            assert abs(ratio - 1) < 1e-10


def test_det_k_independent(p31, p32):
    z = 0.11 - 0.02j
    d1 = np.linalg.det(r_matrix(p31, z))
    d2 = np.linalg.det(r_matrix(p32, z))
    assert abs(d1 - d2) < 1e-10 * abs(d1)


def test_alt_normalization_det_and_prefactor():
    # n = 2 fixes the sign (-1)^{n(n-1)/2}; n = 5 needs the factors combined
    # in the exponent, where e(m n^2 tau) alone underflows
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)):
        p = make_params(n, k)
        for z in (0.23 + 0.05j, 0.363 + 0.102j, 0.357 - 0.12j, -0.11 + 0.03j):
            pref = alt_norm_prefactor(p, z)
            lhs = np.linalg.det(r_matrix(p, z)) / pref ** (n * n)
            assert abs(lhs / alt_norm_det_closed_form(p, z) - 1) < 1e-9, (n, k, z)


def test_nullities_at_torsion_points(p31):
    n = 3
    r_plus, _ = svd_rank(r_matrix(p31, p31.tau), p31.ranks)
    r_minus, _ = svd_rank(r_matrix(p31, -p31.tau), p31.ranks)
    assert n * n - r_plus == comb(n + 1, 2)
    assert n * n - r_minus == comb(n, 2)


def test_sym_op():
    S1 = sym_op(1, 3)
    P = basis_ops(make_params(3, 1))["P"]
    assert np.allclose(S1, np.eye(9) - P)
    assert np.allclose(sym_op(-1, 3), np.eye(9) + P)


def test_r_plus_limit_matches_extrapolation():
    # relative agreement of the exact conjugation construction with small-eps
    # evaluation of R at sign*tau + zeta
    n, k = 3, 1
    zeta = HalfPeriodPoint(1, 1)
    for sign in (1, -1):
        target = r_plus_limit(make_params(n, k, tau=1e-6), zeta, sign)
        eps = 1e-6
        pe = make_params(n, k, tau=eps)
        approx = r_matrix(pe, sign * eps + zeta.value(n, pe.eta))
        assert _rel(approx - target, target) < 1e-3


def test_weight_family_relation_to_r(p31):
    P = basis_ops(p31)["P"]
    z = 0.08 - 0.03j
    lhs = weight_op_k(p31, -3 * z)
    rhs = 3 * e_fn(0.5 * 3 * 4 * z) * P @ r_matrix(p31, z)
    assert _rel(lhs - rhs, lhs) < 1e-12


def test_weight_family_qybe(p31):
    n = 3
    P = basis_ops(p31)["P"]
    eye = np.eye(n)
    u, v = 0.11 + 0.02j, -0.07 + 0.05j

    def e12(A):
        return np.kron(A, eye)

    def e23(A):
        return np.kron(eye, A)

    def e13(A):
        P23 = np.kron(eye, P)
        return P23 @ e12(A) @ P23

    Su, Sv, Suv = weight_op(p31, u), weight_op(p31, v), weight_op(p31, u + v)
    lhs = e12(Su) @ e13(Suv) @ e23(Sv)
    rhs = e23(Sv) @ e13(Suv) @ e12(Su)
    assert _rel(lhs - rhs, lhs) < 1e-12


def _kron_weight_sum(params, z, step):
    """The weight sum term by term: w_{(a,b)}(z) J ⊗ J^{-1} with
    J = I_{(step*a, b)}, I_{(a,b)} x_i = omega^{i b} x_{i - a}."""
    n = params.n
    idx = np.arange(n)
    w = w_fn(idx[:, None], idx, z, params.tau, params.theta)
    total = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            J = np.zeros((n, n), dtype=complex)
            for i in range(n):
                J[(i - step * a) % n, i] = e_fn(i * b / n)
            total += w[a, b] * np.kron(J, np.linalg.inv(J))
    return total


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_weight_sum_matches_kron_loop_reference(n):
    for k in range(1, n):
        if math.gcd(n, k) != 1:
            continue
        p = make_params(n, k)
        for z in (0.0, 0.13 + 0.02j, -0.21 + 0.05j):
            for got, step in ((weight_op(p, z), 1), (weight_op_k(p, z), -p.k_prime)):
                ref = _kron_weight_sum(p, z, step)
                assert _rel(got - ref, ref) < 1e-13, (n, k, z, step)


def test_dual_transpose(p31, p32):
    for p in (p31, p32, make_params(5, 2)):
        assert dual_transpose_check(p, 0.13 - 0.04j) < 1e-12


def test_qybe_two_parameter(p31):
    n = 3
    eye = np.eye(n)
    u, v = 0.09 + 0.04j, -0.13 + 0.02j
    Ru, Rv, Ruv = r_matrix(p31, u), r_matrix(p31, v), r_matrix(p31, u + v)
    lhs = np.kron(Ru, eye) @ np.kron(eye, Ruv) @ np.kron(Rv, eye)
    rhs = np.kron(eye, Rv) @ np.kron(Ruv, eye) @ np.kron(eye, Ru)
    assert _rel(lhs - rhs, lhs) < 1e-12


def _reference_r(params, z):
    """R_tau(z) entry by entry from the docstring formula, the factor
    theta_{j-i-r}(-z) cancelled against the front product."""
    n, k, tau, ctx = params.n, params.k, params.tau, params.theta
    th_mz = [theta_alpha(a, -z, ctx) for a in range(n)]
    th_mzt = [theta_alpha(a, -z + tau, ctx) for a in range(n)]
    th_t = [theta_alpha(a, tau, ctx) for a in range(n)]
    denom0 = math.prod(theta_alpha(a, 0.0, ctx) for a in range(1, n))
    M = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for r in range(n):
                s = (j - i - r) % n
                front = math.prod(th_mz[a] for a in range(n) if a != s)
                M[((j - r) % n) * n + (i + r) % n, i * n + j] += (
                    front * th_mzt[(j - i + r * (k - 1)) % n] / (denom0 * th_t[(k * r) % n])
                )
    return M


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_r_matrix_matches_entrywise_reference(n):
    for k in range(1, n):
        if math.gcd(n, k) != 1:
            continue
        p = make_params(n, k)
        for z in (0.21 - 0.04j, -0.37 + 0.12j, 0.05 + 0.3j + p.eta):
            R = r_matrix(p, z)
            assert _rel(R - _reference_r(p, z), R) < 1e-13, (n, k, z)
        assert np.max(np.abs(r_matrix(p, 0.0) - np.eye(n * n))) < 1e-12, (n, k)


def test_nonconverging_lattice_is_refused_at_construction():
    with pytest.raises(TruncationError, match="^theta series did not converge"):
        make_params(3, 1, eta=0.3 + 1e-4j)


def test_params_are_frozen_and_with_tau_is_fresh(p31):
    with pytest.raises(dataclasses.FrozenInstanceError):
        p31.tau = 0.2
    r_matrix(p31, 0.1)  # fills the cached parameter-only rows of p31
    tau = 0.17 + 0.3j
    moved = p31.with_tau(tau)
    fresh = make_params(3, 1, tau=tau)
    assert np.array_equal(moved._r_denominators, fresh._r_denominators)
    assert not np.allclose(moved._r_denominators, p31._r_denominators)
    assert np.array_equal(r_matrix(moved, 0.1), r_matrix(fresh, 0.1))


def test_repeat_r_matrix_makes_one_series_evaluation(monkeypatch):
    # a second build on the same params takes its two z-dependent theta rows
    # in one series call: no recomputed tau/0 rows, no per-alpha calls
    for n, k in ((3, 1), (5, 2)):
        p = make_params(n, k)
        r_matrix(p, 0.11 + 0.02j)
        calls = []
        series = theta_module._series

        def counted(*args, **kwargs):
            calls.append(args[0].shape if hasattr(args[0], "shape") else ())
            return series(*args, **kwargs)

        monkeypatch.setattr(theta_module, "_series", counted)
        r_matrix(p, -0.23 + 0.05j)
        monkeypatch.undo()
        assert calls == [(2, n, n)], (n, calls)
