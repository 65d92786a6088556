"""R-matrix unit tests: normalization, symmetry operators, transformation
laws, determinant closed forms, torsion limits, and the duality laws."""

import cmath
import dataclasses
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ellr.theta as theta_module
from ellr.theta import (
    TruncationError, e_fn, theta_alpha, theta_alpha_rows, theta_char_shift_check, w_fn,
)
from ellr.linalg import svd_rank
from ellr.rmatrix import (
    DEFAULT_ETA,
    AlgebraParams,
    HalfPeriodPoint,
    TorsionParameterError,
    make_params,
    basis_ops,
    torsion_op,
    r_matrix,
    r_matrices,
    sym_op,
    b_fn,
    f_fn,
    weight_ops,
    det_closed_form,
    transpose_residual,
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


def test_r_identity_at_zero():
    # every off-diagonal entry of R(0) carries the factor theta_0(0), an
    # exact zero of the theta series; the diagonal is 1 to rounding
    for n in range(2, 6):
        R = r_matrix(make_params(n, 1), 0.0)
        diag = np.diag(R)
        assert np.all(R - np.diag(diag) == 0), n
        assert np.max(np.abs(diag - 1)) <= 1e-15, n


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


def alt_norm_det_closed_form(params, z):
    """Closed form for the determinant of the alternative normalization
    R^alt(z) := R_tau(z) / prod_alpha (theta_alpha(-z+tau)/theta_alpha(tau)):

    (-1)^m e(m n^2 tau)
      * (prod_alpha theta_alpha(-z-tau) / prod_alpha theta_alpha(-z+tau))^m,  m = n(n-1)/2.

    The three factors are combined in the exponent, exp(m (2 pi i n^2 tau +
    log ratio)), since apart they underflow and overflow at n = 5.
    """
    n, tau = params.n, params.tau
    num, den = theta_alpha_rows([-z - tau, -z + tau], params.theta)
    ratio = complex(np.prod(num / den))
    m = n * (n - 1) // 2
    return (-1) ** m * cmath.exp(m * (2j * cmath.pi * n * n * tau + cmath.log(ratio)))


def alt_norm_prefactor(params, z):
    """prod_alpha theta_alpha(-z+tau)/theta_alpha(tau), the scalar relating
    R_tau(z) to the alternative normalization."""
    num, den = theta_alpha_rows([-z + params.tau, params.tau], params.theta)
    return complex(np.prod(num / den))


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


def r_plus_limit(params, zeta, sign):
    """The limit operators R_+-(zeta) = lim_{tau->0} R_tau(+-tau + zeta), exactly:
    R_+-(zeta) = f(0, zeta, 0) (I (x) C^{-1}) sym_{+-1} (C (x) I), C = T^b S^{ka}."""
    n, a, b, eta = params.n, zeta.a, zeta.b, params.eta
    f0 = e_fn((b + a * (n - 1)) / 2 - b * (n + b) * eta / 2)  # f(0, zeta, 0)
    C = torsion_op(params, a, b)
    eye = np.eye(n, dtype=complex)
    return f0 * np.kron(eye, np.linalg.inv(C)) @ sym_op(sign, n) @ np.kron(C, eye)


def weight_op(params, z):
    """S(z), the one-point stack of ``weight_ops``."""
    return weight_ops(params, [z])[0]


def weight_op_k(params, z):
    """S_k(z), the one-point stack of ``weight_ops`` at step -k', with
    S_k(-n z) = n e(n(n+1) z / 2) P R_{n,k,tau}(z)."""
    return weight_ops(params, [z], -params.k_prime)[0]


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


def dual_transpose_check(params, zs):
    """Worst relative residual over zs of
    R_{n,k,tau}(z)^T = e(-n^2 z) R_{n,n-k,-tau}(-z), the transpose taken in
    the x-basis.  Each side is one r_matrices call."""
    n, zs = params.n, list(zs)
    dual = AlgebraParams(n, n - params.k, -params.tau, params.theta, params.ranks)
    return transpose_residual(n, zs, r_matrices(params, zs), r_matrices(dual, [-z for z in zs]))


def test_dual_transpose(p31, p32):
    for p in (p31, p32, make_params(5, 2)):
        assert dual_transpose_check(p, [0.13 - 0.04j]) < 1e-12


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


_coord = st.floats(-1.0, 1.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(2, 5), last_k=st.booleans(), eta_re=st.floats(-0.5, 0.5),
       eta_im=st.one_of(st.floats(0.3, 2.0), st.floats(2.0, 12.0)),
       coords=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=6))
def test_batched_weights_and_theta_rows_equal_one_point_builds(n, last_k, eta_re, eta_im,
                                                               coords):
    # every entry of a batched build, large Im(eta) included, is the
    # one-point build at its z, bit for bit
    eta = complex(eta_re, eta_im)
    p = make_params(n, n - 1 if last_k else 1, eta=eta)
    zs = [x + y * eta for x, y in coords]
    for step, one_point in ((1, weight_op), (-p.k_prime, weight_op_k)):
        for z, S in zip(zs, weight_ops(p, zs, step)):
            np.testing.assert_array_equal(S, one_point(p, z))
    idx = np.arange(n)
    for z, w in zip(zs, w_fn(idx[:, None], idx, zs, p.tau, p.theta)):
        np.testing.assert_array_equal(w, w_fn(idx[:, None], idx, z, p.tau, p.theta))
    for z, row in zip(zs, theta_alpha_rows(zs, p.theta)):
        np.testing.assert_array_equal(row, theta_alpha_rows([z], p.theta)[0])
    for z, resid in zip(zs, theta_char_shift_check(0.3, 0.6, 2, -1, zs, eta)):
        assert resid == theta_char_shift_check(0.3, 0.6, 2, -1, z, eta)


def test_first_r_matrices_call_fills_the_denominators_from_its_series(monkeypatch):
    # a fresh params' first build appends [tau, 0] to its one series and
    # caches the denominators a separate [tau, 0] series would give
    calls = []
    series = theta_module._series

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return series(*args, **kwargs)

    p, ref = make_params(5, 2), make_params(5, 2)
    monkeypatch.setattr(theta_module, "_series", counted)
    stack = r_matrices(p, [0.1, -0.2 + 0.03j])
    assert calls == [(2 * 2 + 2, 5, 5)]
    monkeypatch.undo()
    assert np.array_equal(p._r_denominators, ref._r_denominators)
    for z, R in zip([0.1, -0.2 + 0.03j], stack):
        assert np.array_equal(R, r_matrix(ref, z))


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


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_r_matrices_rows_equal_single_builds(n):
    # one theta series for the whole stack, and every row bit-identical to
    # its one-point build: random z, 0, +-tau and torsion-shifted +-tau
    rng = np.random.default_rng(n)
    for k in range(1, n):
        if math.gcd(n, k) != 1:
            continue
        p = make_params(n, k)
        zs = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(6)]
        zs += [0.0, p.tau, -p.tau] + [
            sign * p.tau + HalfPeriodPoint(a, b).value(n, p.eta)
            for sign in (1, -1) for a, b in ((1, 0), (0, 1), (n - 1, n - 1))]
        stack = r_matrices(p, zs)
        assert stack.shape == (len(zs), n * n, n * n)
        for z, R in zip(zs, stack):
            assert np.array_equal(R, r_matrix(p, z)), (n, k, z)


def test_r_matrices_take_one_series_call_and_empty_input(monkeypatch, p31):
    r_matrix(p31, 0.1)  # fills the cached parameter-only rows
    calls = []
    series = theta_module._series

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return series(*args, **kwargs)

    monkeypatch.setattr(theta_module, "_series", counted)
    r_matrices(p31, [0.1, -0.2 + 0.03j, 0.3j, p31.tau])
    assert calls == [(8, 3, 3)]
    for n, k in ((2, 1), (5, 2)):
        assert r_matrices(make_params(n, k), []).shape == (0, n * n, n * n)


def test_r_matrices_refuse_a_torsion_tau():
    pt = make_params(3, 1, tau=1 / 3)
    with pytest.raises(TorsionParameterError):
        r_matrices(pt, [0.1, 0.2j])
    with pytest.raises(TorsionParameterError):
        r_matrix(pt, 0.1)
