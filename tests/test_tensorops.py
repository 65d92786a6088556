"""Tensor-power operator tests: scaled arithmetic, embeddings, chain
products and their factorizations, the rectangular array operator, the
multiplication identity, and the annihilation/rank structure."""

import itertools
import math
from math import comb

import numpy as np
import pytest

from ellr.linalg import (
    svd_rank, spectrum, image, kernel, subspace_equal, subspace_sum, subspace_intersect,
)
from ellr.rmatrix import make_params, r_matrix, basis_ops
from ellr.tensorops import (
    ScaledOp,
    scaled_residual,
    scaled_rank,
    embed_pair,
    site_product,
    perm_op,
    perm_sign,
    symmetrizer,
    antisymmetrizer,
    chain_asc,
    chain_asc_rev,
    chain_desc,
    chain_desc_rev,
    t_op,
    f_op,
    m_op,
    embedded_copies,
)

P31 = make_params(3, 1)
ZS = [0.11 + 0.02j, -0.07 + 0.05j, 0.13 - 0.03j]


def _rel(A, B):
    return float(np.max(np.abs(A - B)) / np.max(np.abs(A)))


def _pair(sign=1):
    """Spectrum of R(sign*tau), whose image and kernel the relation spaces embed."""
    return spectrum(r_matrix(P31, sign * P31.tau), P31.ranks)


# ---------------------------------------------------------------------------
# ScaledOp
# ---------------------------------------------------------------------------


def test_scaled_wrap_and_dense():
    M = 1e30 * (np.arange(4).reshape(2, 2) + 1.0)
    op = ScaledOp.wrap(M)
    assert abs(op.max_abs() - 1.0) < 1e-15
    assert np.allclose(op.dense(), M)


def test_scaled_matmul_accumulates_log_scale():
    A = ScaledOp.wrap(2e5 * np.eye(2))
    B = ScaledOp.wrap(3e7 * np.eye(2))
    C = A @ B
    assert abs(C.log_scale - (math.log(2e5) + math.log(3e7))) < 1e-9
    assert np.allclose(C.dense(), 6e12 * np.eye(2))


def test_scaled_matmul_keeps_cancellation_visible():
    # a product that cancels to zero must leave a tiny .mat, not be
    # renormalized back to unit size
    A = ScaledOp.wrap(np.array([[1.0, 1.0], [1.0, 1.0]]))
    B = ScaledOp.wrap(np.array([[1.0], [-1.0]]))
    assert (A @ B).max_abs() < 1e-15


def test_scaled_kron():
    A = ScaledOp.wrap(5.0 * np.eye(2))
    B = ScaledOp.wrap(7.0 * np.eye(3))
    K = A.kron(B)
    assert np.allclose(K.dense(), 35.0 * np.eye(6))


def test_scaled_residual_scale_matching():
    A = ScaledOp(np.eye(2), 10.0)
    B = ScaledOp(math.e * np.eye(2), 9.0)
    assert scaled_residual(A, B) < 1e-14


def test_scaled_rank_zero_detection():
    dim = 4
    noise = ScaledOp(1e-14 * np.random.default_rng(0).standard_normal((dim, dim)), 200.0)
    rank, gap = scaled_rank(noise)
    assert rank == 0 and gap == math.inf


# ---------------------------------------------------------------------------
# Embeddings and permutation operators
# ---------------------------------------------------------------------------


def test_embed_pair_is_swap_transposition():
    n, d = 3, 4
    P = basis_ops(P31)["P"]
    for pos in (1, 2, 3):
        sigma = list(range(d))
        sigma[pos - 1], sigma[pos] = sigma[pos], sigma[pos - 1]
        assert np.allclose(embed_pair(P, pos, n, d), perm_op(sigma, n, d))


def test_perm_op_moves_each_tensorand_to_its_slot():
    # reference: the basis vector with digits (i_0..i_{d-1}) goes to the one
    # whose digit in slot sigma[s] is i_s
    for n, d in ((2, 1), (2, 3), (3, 2), (3, 4)):
        digits = np.unravel_index(np.arange(n ** d), (n,) * d)
        for sigma in itertools.permutations(range(d)):
            moved = [None] * d
            for s, t in enumerate(sigma):
                moved[t] = digits[s]
            expect = np.zeros((n ** d, n ** d))
            expect[np.ravel_multi_index(moved, (n,) * d), np.arange(n ** d)] = 1.0
            assert np.array_equal(perm_op(sigma, n, d), expect), (n, d, sigma)


def test_perm_op_composition():
    n, d = 2, 3
    s1, s2 = (1, 0, 2), (0, 2, 1)
    comp = tuple(s1[s2[i]] for i in range(d))
    assert np.allclose(perm_op(s1, n, d) @ perm_op(s2, n, d), perm_op(comp, n, d))


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_symmetrizer_ranks():
    n, d = 3, 3
    s_rank, _ = svd_rank(symmetrizer(n, d))
    a_rank, _ = svd_rank(antisymmetrizer(n, d))
    assert s_rank == comb(n + d - 1, d)
    assert a_rank == comb(n, d)


def test_symmetrizer_quasi_idempotent():
    n, d = 2, 3
    S = symmetrizer(n, d)
    assert np.allclose(S @ S, math.factorial(d) * S)


# ---------------------------------------------------------------------------
# Chain products
# ---------------------------------------------------------------------------


def _E(A, pos, d=3, n=3):
    return embed_pair(A, pos, n, d)


def test_chain_pins_d3():
    # all four chain variants over positions 1..3 with distinct arguments
    t1, t2 = ZS[0], ZS[1]
    R = lambda w: r_matrix(P31, w)
    asc = chain_asc(P31, 3, 1, 3, [t1, t2]).dense()
    assert _rel(asc, _E(R(t1 + t2), 1) @ _E(R(t2), 2)) < 1e-12
    asc_r = chain_asc_rev(P31, 3, 1, 3, [t1, t2]).dense()
    assert _rel(asc_r, _E(R(t1), 1) @ _E(R(t1 + t2), 2)) < 1e-12
    desc = chain_desc(P31, 3, 3, 1, [t1, t2]).dense()
    assert _rel(desc, _E(R(t1 + t2), 2) @ _E(R(t2), 1)) < 1e-12
    desc_r = chain_desc_rev(P31, 3, 3, 1, [t1, t2]).dense()
    assert _rel(desc_r, _E(R(t1), 2) @ _E(R(t1 + t2), 1)) < 1e-12


SITES = ((1, 2), (2, 3), (1, 3))


def _dense_site(A, sites, n):
    """The dense reference embedding of A at ``sites`` of V^{(x)3}; (1, 3) is
    the (1, 2) embedding conjugated by the swap of tensorands 2 and 3."""
    if sites == (1, 3):
        P23 = perm_op((0, 2, 1), n, 3)
        return P23 @ embed_pair(A, 1, n, 3) @ P23
    return embed_pair(A, sites[0], n, 3)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_site_product_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    mats = [rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
            for _ in range(3)]
    for sites in SITES:
        assert _rel(site_product(n, 3, [(mats[0], sites)]), _dense_site(mats[0], sites, n)) < 1e-13
    for triple in itertools.product(SITES, repeat=3):
        factors = list(zip(mats, triple))
        dense = np.linalg.multi_dot([_dense_site(A, s, n) for A, s in factors])
        assert _rel(site_product(n, 3, factors), dense) < 1e-13, triple
    assert np.array_equal(site_product(n, 3, []), np.eye(n ** 3))
    with pytest.raises(ValueError):
        site_product(n, 3, [(mats[0], (2, 4))])


def test_chain_products_form_no_embedding(monkeypatch):
    # every factor acts in place on the running product: neither the dense
    # embedding nor any Kronecker product is formed on the chain path
    import ellr.tensorops as tops

    def refuse(*args, **kwargs):
        raise AssertionError("dense embedding formed on the chain path")

    monkeypatch.setattr(tops, "embed_pair", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    d, ts = 4, ZS
    for p in (P31, make_params(5, 2)):
        dim = p.n ** d
        for build in (chain_asc, chain_asc_rev):
            assert build(p, d, 1, d, ts).mat.shape == (dim, dim)
        for build in (chain_desc, chain_desc_rev):
            assert build(p, d, d, 1, ts).mat.shape == (dim, dim)
        t_op(p, d, ts)
        f_op(p, d, -p.tau)
        m_op(p, 2, 2, 0.13 + 0.02j, validate=True)


def test_chain_trivial_and_errors():
    assert np.allclose(chain_asc(P31, 3, 2, 2, []).dense(), np.eye(27))
    with pytest.raises(ValueError):
        chain_asc(P31, 3, 1, 3, [0.1])  # wrong argument count
    with pytest.raises(ValueError):
        chain_asc(P31, 3, 3, 1, [])  # endpoints out of order


def test_t3_pin():
    z1, z2 = ZS[0], ZS[1]
    R = lambda w: r_matrix(P31, w)
    expect = _E(R(z1), 1) @ _E(R(z1 + z2), 2) @ _E(R(z2), 1)
    assert _rel(t_op(P31, 3, [z1, z2]).dense(), expect) < 1e-12


def test_f_op_is_t_op_with_equal_args():
    z = 0.21 - 0.04j
    assert np.allclose(f_op(P31, 3, z).dense(), t_op(P31, 3, [z, z]).dense())


def test_t_factorizations():
    d = 4
    zs = ZS
    I1 = np.eye(3)
    T = t_op(P31, d, zs).dense()
    Tl = t_op(P31, d - 1, zs[:-1]).dense()
    Tr = t_op(P31, d - 1, zs[1:]).dense()
    v1 = np.kron(Tl, I1) @ chain_desc(P31, d, d, 1, zs).dense()
    v2 = np.kron(I1, Tr) @ chain_asc(P31, d, 1, d, zs[::-1]).dense()
    v3 = chain_asc_rev(P31, d, 1, d, zs).dense() @ np.kron(Tr, I1)
    v4 = chain_desc_rev(P31, d, d, 1, zs[::-1]).dense() @ np.kron(I1, Tl)
    for v in (v1, v2, v3, v4):
        assert _rel(T, v) < 1e-12


# ---------------------------------------------------------------------------
# Rectangular array operator M_{a,b}
# ---------------------------------------------------------------------------


def test_m_op_hand_expansion_2x3():
    n, a, b = 3, 2, 3
    x = [0.21 - 0.06j]
    y = [0.05 + 0.03j, -0.12 + 0.01j]
    z = 0.17 + 0.02j
    R = lambda w: r_matrix(P31, w)
    E = lambda A, pos: embed_pair(A, pos, n, a + b)
    hand = (E(R(z), 2) @ E(R(z + y[0]), 3) @ E(R(z + y[0] + y[1]), 4)
            @ E(R(z + x[0]), 1) @ E(R(z + x[0] + y[0]), 2)
            @ E(R(z + x[0] + y[0] + y[1]), 3))
    assert _rel(m_op(P31, a, b, z, xs=x, ys=y).dense(), hand) < 1e-12


def test_m_op_row_column_assemblies_agree():
    # validate=True compares the row-wise and column-wise products
    m_op(P31, 2, 2, 0.13 + 0.02j, xs=[0.07 - 0.01j], ys=[-0.04 + 0.03j],
         validate=True)


def test_m_op_default_increments_are_z():
    z = 0.19 - 0.03j
    assert np.allclose(m_op(P31, 2, 2, z).dense(), m_op(P31, 2, 2, z, xs=[z], ys=[z]).dense())


def test_m_op_degenerate_is_identity():
    assert np.allclose(m_op(P31, 0, 2, 0.1).dense(), np.eye(9))
    assert np.allclose(m_op(P31, 2, 0, 0.1).dense(), np.eye(9))


def test_tmt_identity():
    # T_{a+b}(x, z, y) = M_{a,b}(z; x reversed; y) (I (x) T_a(x)) (T_b(y) (x) I)
    p = make_params(2, 1)
    n, a, b = 2, 3, 2
    x = [0.11 + 0.02j, -0.07 + 0.05j]
    y = [0.13 - 0.03j]
    z = 0.09 + 0.04j
    T = t_op(p, a + b, x + [z] + y).dense()
    M = m_op(p, a, b, z, xs=x[::-1], ys=y).dense()
    rhs = (M @ np.kron(np.eye(n ** b), t_op(p, a, x).dense())
           @ np.kron(t_op(p, b, y).dense(), np.eye(n ** a)))
    assert _rel(T, rhs) < 1e-12


def test_t_m_commutation_laws():
    p = make_params(2, 1)
    n, a, b = 2, 3, 2
    x = [0.11 + 0.02j, -0.07 + 0.05j]
    y = [0.13 - 0.03j]
    z = 0.09 + 0.04j
    M = m_op(p, a, b, z, xs=x[::-1], ys=y).dense()
    TLa = np.kron(t_op(p, a, x).dense(), np.eye(n ** b))
    TRa = np.kron(np.eye(n ** b), t_op(p, a, x).dense())
    lhs1 = TLa @ m_op(p, a, b, z + sum(x), xs=[-v for v in x], ys=y).dense()
    assert _rel(lhs1, M @ TRa) < 1e-12
    TLb = np.kron(t_op(p, b, y).dense(), np.eye(n ** a))
    TRb = np.kron(np.eye(n ** a), t_op(p, b, y).dense())
    lhs2 = TRb @ m_op(p, a, b, z + sum(y), xs=x[::-1], ys=[-v for v in y][::-1]).dense()
    assert _rel(lhs2, M @ TLb) < 1e-12


def test_multiplication_identity():
    # M_{b,a}(s tau) (F_a (x) F_b) = F_{a+b}(s tau), both signs
    tau = P31.tau
    for (a, b) in ((1, 2), (2, 2)):
        for s in (1, -1):
            M = m_op(P31, b, a, s * tau)
            FF = f_op(P31, a, s * tau).kron(f_op(P31, b, s * tau))
            resid = scaled_residual(M @ FF, f_op(P31, a + b, s * tau))
            assert resid < 1e-10


# ---------------------------------------------------------------------------
# Annihilation and rank structure
# ---------------------------------------------------------------------------


def test_embedded_relation_annihilates_f():
    F = f_op(P31, 3, -P31.tau).dense()
    Rt = r_matrix(P31, P31.tau)
    scale = np.max(np.abs(Rt)) * np.max(np.abs(F))
    for pos in (1, 2):
        E = embed_pair(Rt, pos, 3, 3)
        assert np.max(np.abs(E @ F)) / scale < 1e-10
        assert np.max(np.abs(F @ E)) / scale < 1e-10


def test_f_rank_and_kernel():
    n, d = 3, 3
    F = f_op(P31, d, -P31.tau)
    rank, _ = scaled_rank(F, P31.ranks)
    assert rank == comb(n + d - 1, d)
    ker = kernel(F.mat, P31.ranks)
    relations = subspace_sum(embedded_copies(_pair().image, n, d), P31.ranks)
    eq, angle = subspace_equal(ker, relations, 1e-6)
    assert eq


def test_f_dual_rank_and_vanishing():
    n = 3
    r3, _ = scaled_rank(f_op(P31, 3, P31.tau), P31.ranks)
    assert r3 == 1
    r4, gap = scaled_rank(f_op(P31, 4, P31.tau), P31.ranks)
    assert r4 == 0 and gap == math.inf


def test_f_image_is_embedded_kernel_intersection():
    F = f_op(P31, 3, -P31.tau)
    cap = subspace_intersect(embedded_copies(_pair().kernel, 3, 3), P31.ranks)
    eq, angle = subspace_equal(image(F.mat, P31.ranks), cap, 1e-6)
    assert eq


@pytest.mark.parametrize("sign", (1, -1))
def test_embedded_copies_match_embedded_projector_images(sign):
    # reference: the image of the embedded orthogonal projector onto W
    n, d = 3, 4
    pair = _pair(sign)
    for W in (pair.image, pair.kernel):
        copies = embedded_copies(W, n, d)
        assert len(copies) == d - 1
        for pos, copy in enumerate(copies, start=1):
            gram = copy.basis.conj().T @ copy.basis
            assert np.allclose(gram, np.eye(copy.dim), atol=1e-13)
            reference = image(embed_pair(W.projector(), pos, n, d), P31.ranks)
            eq, angle = subspace_equal(copy, reference, 1e-6)
            assert eq, (sign, pos, angle)

