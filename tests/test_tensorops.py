"""Tensor-power operator tests: scaled arithmetic, embeddings, chain
products and their factorizations, the rectangular array operator, the
multiplication identity, and the annihilation/rank structure."""

import itertools
import math
from math import comb

import numpy as np
import pytest

from ellr.linalg import NonFiniteMatrixError, kernel_span_bound, svd_rank, image, kernel
from ellr.classical import classical_w_dim
from ellr.rmatrix import make_params, r_matrix, basis_ops
from ellr.tensorops import (
    ZERO_OPERATOR_TOL,
    BeyondCapError,
    beyond_cap,
    ScaledOp,
    scaled_residual,
    scaled_cut,
    scaled_rank,
    grade_index,
    pair_blocks,
    site_product,
    perm_op,
    perm_sign,
    symmetrizer,
    antisymmetrizer,
    _chain_factors,
    factor_mats,
    r_product,
    t_op,
    f_factors,
    m_factors,
    copy_stacks,
    lattice_dims,
)
from ellr.verifiers import M_AGREEMENT_TOL
from test_linalg import basis, block_diag, dense_sine, dim, kernel_span_sine

P31 = make_params(3, 1)
ZS = [0.11 + 0.02j, -0.07 + 0.05j, 0.13 - 0.03j]


def _rel(A, B):
    return float(np.max(np.abs(A - B)) / np.max(np.abs(A)))


def embed_pair(op, pos, n, d):
    """The dense embedding of a two-site operator at tensorands (pos, pos+1),
    pos one-based: the reference the in-place site products are tested on."""
    return np.kron(np.kron(np.eye(n ** (pos - 1)), op), np.eye(n ** (d - pos - 1)))


def _chain(params, d, factors):
    """The product of the (argument, position) ``factors`` on V^(x)d."""
    return r_product(params.n, d, factors, factor_mats(params, factors))


def dense(op):
    """The plain matrix of a scaled operator, exp(log_scale) * matrix()."""
    return math.exp(op.log_scale) * op.matrix()


def f_op(params, d, z):
    """F_d(z) = T_d(z, ..., z)."""
    return t_op(params, d, [z] * max(d - 1, 0))


def m_op(params, a, b, z, xs=None, ys=None):
    """The rectangular array product M_{a,b}(z; xs; ys), its rows top to
    bottom (see ``m_factors``)."""
    return _chain(params, a + b, m_factors(a, b, z, xs, ys)[0])


def f_pair_op(params, a, b, z):
    """F_a(z) (x) F_b(z) on V^(x)(a+b) as one product: the factors of F_a,
    then those of F_b moved by a (the two act on disjoint tensorands)."""
    return _chain(params, a + b, f_factors(a, z) + f_factors(b, z, a))


def chain_asc(params, d, i, j, ts):
    """Ascending chain from position i to j with arguments ts = [t_i..t_{j-1}]:
    the witness the chain factor lists are tested on."""
    return _chain(params, d, _chain_factors(d, i, j, ts, False, False))


def chain_asc_rev(params, d, i, j, ts):
    """Reversed ascending chain from i to j with ts = [t_i..t_{j-1}]."""
    return _chain(params, d, _chain_factors(d, i, j, ts, False, True))


def chain_desc(params, d, j, i, ts):
    """Descending chain from position j down to i, ts in display order [t_{j-1}..t_i]."""
    return _chain(params, d, _chain_factors(d, i, j, list(ts)[::-1], True, False))


def chain_desc_rev(params, d, j, i, ts):
    """Reversed descending chain from j down to i, ts in display order [t_{j-1}..t_i]."""
    return _chain(params, d, _chain_factors(d, i, j, list(ts)[::-1], True, True))


def dense_site_product(n, d, factors, cols=None):
    """The dense reference for ``site_product``: the columns ``cols`` (all
    by default) of the product on V^(x)d, each factor left-multiplying the
    rows through an (n^(p-1), n^2, rest) view, with the axes between p and
    q swapped out of the way."""
    dim = n ** d
    cols = np.arange(dim) if cols is None else np.asarray(cols)
    out = np.zeros((dim, cols.size), dtype=complex)
    out[cols, np.arange(cols.size)] = 1.0
    for mat, (p, q) in reversed(factors):
        shape = (n ** (p - 1), n, n ** (q - p - 1), n, n ** (d - q) * cols.size)
        lead, _, gap, _, trail = shape
        view = out.reshape(shape).transpose(0, 1, 3, 2, 4).reshape(lead, n * n, gap * trail)
        out = np.matmul(mat, view).reshape(lead, n, n, gap, trail).transpose(0, 1, 3, 2, 4)
        out = out.reshape(dim, cols.size)
    return out


def _graded_columns(stack, n, d, cols):
    """The columns ``cols`` of the operator on V^(x)d whose grade stack is
    ``stack``, in the natural coordinates."""
    idx, grade = grade_index(n, d), _grades(n, d)[cols]
    out = np.zeros((n ** d, len(cols)), dtype=complex)
    out[idx[grade].T, np.arange(len(cols))] = stack[grade, :, np.asarray(cols) // n].T
    return out


def _pair(sign=1):
    """Image and kernel of R(sign*tau), each one orthonormal block per pair
    grade: the subspaces the relation spaces embed."""
    blocks = pair_blocks(r_matrix(P31, sign * P31.tau), 3)
    return image(blocks, P31.ranks), kernel(blocks, P31.ranks)


def _copies(W, n, d):
    """The d-1 embedded copies of W, each grade by grade, cut out of
    :func:`copy_stacks` at its column starts."""
    stacks, starts = copy_stacks(W, n, d)
    return [tuple(X[:, starts[p, g]:starts[p + 1, g]] for g, X in enumerate(stacks))
            for p in range(d - 1)]


def _projector(S):
    """The orthogonal projector onto S, from its orthonormal basis."""
    Q = basis(S)
    return Q @ Q.conj().T


def intersect(spaces, policy):
    """Intersection of subspaces through stacked projector complements: v
    lies in it iff (I - P_i) v = 0 for every member, so it is the kernel of
    the vertically stacked complements, grade by grade at one cut.  The
    dense witness the complements and the rank-only lattice are tested on."""
    stacks = [np.vstack([np.eye(len(B)) - B @ B.conj().T for B in grade])
              for grade in zip(*spaces)]
    return kernel(stacks, policy)


def _dense(S, n, d):
    """A subspace of V^(x)d given grade by grade, as one dense basis in the
    natural coordinates."""
    out = np.zeros((n ** d, dim(S)), dtype=complex)
    out[grade_index(n, d).ravel()] = basis(S)
    return (out,)


# ---------------------------------------------------------------------------
# ScaledOp
# ---------------------------------------------------------------------------


def _stack(*blocks):
    """A grade stack of the given square blocks."""
    return np.array(blocks, dtype=complex)


def test_scaled_op_holds_only_a_grade_stack():
    with pytest.raises(ValueError):
        ScaledOp(np.eye(4))


def test_scaled_matmul_accumulates_log_scale():
    # blockwise, the log scales added; exp(200 + 300) overflows a float
    A = ScaledOp(_stack([[1.0, 0.5], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]), 200.0)
    B = ScaledOp(_stack([[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]), 300.0)
    C = A @ B
    assert C.log_scale == 500.0
    assert np.array_equal(C.mat, _stack([[2.0, 0.5], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]))


def test_scaled_matmul_keeps_cancellation_visible():
    # a product that cancels to zero in one grade must leave a tiny .mat
    # there, not be renormalized back to unit size
    A = ScaledOp(_stack([[1.0, 1.0], [1.0, 1.0]], np.eye(2)), 40.0)
    B = ScaledOp(_stack([[1.0, 0.0], [-1.0, 0.0]], np.zeros((2, 2))), 40.0)
    C = A @ B
    assert C.max_abs() < 1e-15 and C.log_scale == 80.0
    rank, gap = scaled_rank(C)
    assert rank == 0 and gap == math.inf


def test_scaled_residual_scale_matching():
    A = ScaledOp(_stack(np.eye(2), 0.5 * np.eye(2)), 10.0)
    B = ScaledOp(math.e * _stack(np.eye(2), 0.5 * np.eye(2)), 9.0)
    assert scaled_residual(A, B) < 1e-14
    C = ScaledOp(math.e * _stack(np.eye(2), 0.6 * np.eye(2)), 9.0)
    assert abs(scaled_residual(A, C) - 0.1) < 1e-14


def test_scaled_rank_zero_detection():
    noise = ScaledOp(1e-14 * np.random.default_rng(0).standard_normal((2, 2, 2)), 200.0)
    rank, gap = scaled_rank(noise)
    assert rank == 0 and gap == math.inf
    assert scaled_cut(noise) == (0, math.inf, 0.0)


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
    asc = dense(chain_asc(P31, 3, 1, 3, [t1, t2]))
    assert _rel(asc, _E(R(t1 + t2), 1) @ _E(R(t2), 2)) < 1e-12
    asc_r = dense(chain_asc_rev(P31, 3, 1, 3, [t1, t2]))
    assert _rel(asc_r, _E(R(t1), 1) @ _E(R(t1 + t2), 2)) < 1e-12
    desc = dense(chain_desc(P31, 3, 3, 1, [t1, t2]))
    assert _rel(desc, _E(R(t1 + t2), 2) @ _E(R(t2), 1)) < 1e-12
    desc_r = dense(chain_desc_rev(P31, 3, 3, 1, [t1, t2]))
    assert _rel(desc_r, _E(R(t1), 2) @ _E(R(t1 + t2), 1)) < 1e-12


def _graded_random(rng, n, batch=()):
    """Random operators on V (x) V that keep the pair grade."""
    shape = batch + (n * n, n * n)
    grade = _grades(n, 2)
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return np.where(grade[:, None] == grade, mats, 0)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_site_product_matches_dense_reference(n):
    # grade-keeping factors at every adjacent site and at (1, 3), alone and
    # in products over all of them (each factor twice, in both orders), with
    # and without a batch axis (one unbatched factor broadcast against the
    # others), against the dense product's columns: all of them up to
    # n^d = 1024, every 31st at 5^5
    rng = np.random.default_rng(n)
    for d in (d for d in (2, 3, 4, 5) if n ** d <= 3125):
        sites = [(p, p + 1) for p in range(1, d)] + [(1, 3)] * (d > 2)
        cols = np.arange(0, n ** d, 1 if n ** d <= 1024 else 31)
        for batch in ((), (2,)):
            mats = [_graded_random(rng, n, batch) for _ in sites]
            chain = list(zip(mats, sites))
            lists = [[factor] for factor in chain] + [chain + chain[::-1]]
            if batch:
                lists.append([(_graded_random(rng, n), sites[-1])] + chain)
            for factors in lists:
                got = site_product(n, d, factors)
                assert got.shape == batch + (n, n ** (d - 1), n ** (d - 1))
                for b in np.ndindex(batch):
                    ref = dense_site_product(
                        n, d, [(A[b] if A.ndim > 2 else A, s) for A, s in factors], cols)
                    assert _rel(ref, _graded_columns(got[b], n, d, cols)) < 1e-13, (d, factors)
    eye = np.eye(n * n)
    assert np.array_equal(site_product(n, 3, []), np.broadcast_to(eye, (n,) + eye.shape))
    with pytest.raises(ValueError):
        site_product(n, 3, [(eye, (2, 4))])


def test_an_operator_that_mixes_grades_is_refused():
    # one entry between two pair grades, however small, refuses the factor
    # at a site inside the block coordinates and at a site on the last digit
    mixed = np.eye(9, dtype=complex)
    mixed[0, 1] = 1e-300
    with pytest.raises(ValueError, match="grade"):
        pair_blocks(mixed, 3)
    for sites in ((1, 2), (2, 3), (1, 3)):
        for factors in ([(mixed, sites)], [(mixed, sites), (np.eye(9), (1, 2))]):
            with pytest.raises(ValueError, match="grade"):
                site_product(3, 3, factors)
    overflowed = np.eye(9, dtype=complex)
    overflowed[0, 0] = np.nan
    with pytest.raises(NonFiniteMatrixError):
        site_product(3, 3, [(np.eye(9), (1, 2)), (overflowed, (2, 3))])


def test_chain_products_form_no_embedding(monkeypatch):
    # every factor acts in place on the running product: no Kronecker
    # product, so no dense embedding, is formed on the chain path
    def refuse(*args, **kwargs):
        raise AssertionError("dense embedding formed on the chain path")

    monkeypatch.setattr(np, "kron", refuse)
    d, ts = 4, ZS
    for p in (P31, make_params(5, 2)):
        shape = (p.n, p.n ** (d - 1), p.n ** (d - 1))
        for build in (chain_asc, chain_asc_rev):
            assert build(p, d, 1, d, ts).mat.shape == shape
        for build in (chain_desc, chain_desc_rev):
            assert build(p, d, d, 1, ts).mat.shape == shape
        t_op(p, d, ts)
        f_op(p, d, -p.tau)
        m_op(p, 2, 2, 0.13 + 0.02j)
        for factors in m_factors(2, 2, 0.13 + 0.02j):
            _chain(p, 4, factors)


def test_chain_trivial_and_errors():
    assert np.allclose(dense(chain_asc(P31, 3, 2, 2, [])), np.eye(27))
    with pytest.raises(ValueError):
        chain_asc(P31, 3, 1, 3, [0.1])  # wrong argument count
    with pytest.raises(ValueError):
        chain_asc(P31, 3, 3, 1, [])  # endpoints out of order


def test_t3_pin():
    z1, z2 = ZS[0], ZS[1]
    R = lambda w: r_matrix(P31, w)
    expect = _E(R(z1), 1) @ _E(R(z1 + z2), 2) @ _E(R(z2), 1)
    assert _rel(dense(t_op(P31, 3, [z1, z2])), expect) < 1e-12


def test_f_op_is_t_op_with_equal_args():
    z = 0.21 - 0.04j
    assert np.allclose(dense(f_op(P31, 3, z)), dense(t_op(P31, 3, [z, z])))


def test_t_factorizations():
    d = 4
    zs = ZS
    I1 = np.eye(3)
    T = dense(t_op(P31, d, zs))
    Tl = dense(t_op(P31, d - 1, zs[:-1]))
    Tr = dense(t_op(P31, d - 1, zs[1:]))
    v1 = np.kron(Tl, I1) @ dense(chain_desc(P31, d, d, 1, zs))
    v2 = np.kron(I1, Tr) @ dense(chain_asc(P31, d, 1, d, zs[::-1]))
    v3 = dense(chain_asc_rev(P31, d, 1, d, zs)) @ np.kron(Tr, I1)
    v4 = dense(chain_desc_rev(P31, d, d, 1, zs[::-1])) @ np.kron(I1, Tl)
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
    assert _rel(dense(m_op(P31, a, b, z, xs=x, ys=y)), hand) < 1e-12


def test_m_op_row_column_assemblies_agree():
    # m_op is the row-wise product, and the column-wise one agrees with it
    # within the tolerance mult_identity_check holds the two to
    z, xs, ys = 0.13 + 0.02j, [0.07 - 0.01j], [-0.04 + 0.03j]
    rows, columns = m_factors(2, 2, z, xs, ys)
    M = m_op(P31, 2, 2, z, xs=xs, ys=ys)
    assert scaled_residual(M, _chain(P31, 4, rows)) == 0.0
    assert scaled_residual(M, _chain(P31, 4, columns)) < M_AGREEMENT_TOL


def test_m_factors_give_both_assemblies():
    # the row and column lists hold the same a*b entries of the array (their
    # arguments summed in two orders), and their products agree
    z, x, y = 0.13 + 0.02j, [0.07 - 0.01j], [-0.04 + 0.03j, 0.05 + 0.01j]
    rows, columns = m_factors(2, 3, z, xs=x, ys=y)
    entries = [sorted(fs, key=lambda f: (f[1], f[0].real)) for fs in (rows, columns)]
    assert [pos for _, pos in entries[0]] == [pos for _, pos in entries[1]] == [1, 2, 2, 3, 3, 4]
    assert np.allclose(*([arg for arg, _ in fs] for fs in entries), rtol=0, atol=1e-15)
    assert scaled_residual(_chain(P31, 5, rows), _chain(P31, 5, columns)) < 1e-12
    assert m_factors(0, 2, z) == m_factors(2, 0, z) == ([], [])
    with pytest.raises(ValueError):
        m_factors(2, 2, z, xs=[])


def test_m_op_default_increments_are_z():
    z = 0.19 - 0.03j
    assert np.allclose(dense(m_op(P31, 2, 2, z)), dense(m_op(P31, 2, 2, z, xs=[z], ys=[z])))


def test_m_op_degenerate_is_identity():
    assert np.allclose(dense(m_op(P31, 0, 2, 0.1)), np.eye(9))
    assert np.allclose(dense(m_op(P31, 2, 0, 0.1)), np.eye(9))


def test_tmt_identity():
    # T_{a+b}(x, z, y) = M_{a,b}(z; x reversed; y) (I (x) T_a(x)) (T_b(y) (x) I)
    p = make_params(2, 1)
    n, a, b = 2, 3, 2
    x = [0.11 + 0.02j, -0.07 + 0.05j]
    y = [0.13 - 0.03j]
    z = 0.09 + 0.04j
    T = dense(t_op(p, a + b, x + [z] + y))
    M = dense(m_op(p, a, b, z, xs=x[::-1], ys=y))
    rhs = (M @ np.kron(np.eye(n ** b), dense(t_op(p, a, x)))
           @ np.kron(dense(t_op(p, b, y)), np.eye(n ** a)))
    assert _rel(T, rhs) < 1e-12


def test_t_m_commutation_laws():
    p = make_params(2, 1)
    n, a, b = 2, 3, 2
    x = [0.11 + 0.02j, -0.07 + 0.05j]
    y = [0.13 - 0.03j]
    z = 0.09 + 0.04j
    M = dense(m_op(p, a, b, z, xs=x[::-1], ys=y))
    TLa = np.kron(dense(t_op(p, a, x)), np.eye(n ** b))
    TRa = np.kron(np.eye(n ** b), dense(t_op(p, a, x)))
    lhs1 = TLa @ dense(m_op(p, a, b, z + sum(x), xs=[-v for v in x], ys=y))
    assert _rel(lhs1, M @ TRa) < 1e-12
    TLb = np.kron(dense(t_op(p, b, y)), np.eye(n ** a))
    TRb = np.kron(np.eye(n ** a), dense(t_op(p, b, y)))
    lhs2 = TRb @ dense(m_op(p, a, b, z + sum(y), xs=x[::-1], ys=[-v for v in y][::-1]))
    assert _rel(lhs2, M @ TLb) < 1e-12


def test_f_pair_op_is_the_kronecker_product_of_f():
    z = 0.09 + 0.04j
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        pair = f_pair_op(P31, a, b, z)
        assert pair.mat.shape == (3, 3 ** (a + b - 1), 3 ** (a + b - 1))
        assert _rel(np.kron(dense(f_op(P31, a, z)), dense(f_op(P31, b, z))),
                    dense(pair)) < 1e-12


def test_multiplication_identity():
    # M_{b,a}(s tau) (F_a (x) F_b) = F_{a+b}(s tau), both signs
    tau = P31.tau
    for (a, b) in ((1, 2), (2, 2)):
        for s in (1, -1):
            M = m_op(P31, b, a, s * tau)
            FF = f_pair_op(P31, a, b, s * tau)
            resid = scaled_residual(M @ FF, f_op(P31, a + b, s * tau))
            assert resid < 1e-10


# ---------------------------------------------------------------------------
# Annihilation and rank structure
# ---------------------------------------------------------------------------


def test_embedded_relation_annihilates_f():
    F = dense(f_op(P31, 3, -P31.tau))
    Rt = r_matrix(P31, P31.tau)
    scale = np.max(np.abs(Rt)) * np.max(np.abs(F))
    for pos in (1, 2):
        E = embed_pair(Rt, pos, 3, 3)
        assert np.max(np.abs(E @ F)) / scale < 1e-10
        assert np.max(np.abs(F @ E)) / scale < 1e-10


def test_f_rank_and_kernel():
    n, d = 3, 3
    F = f_op(P31, d, -P31.tau)
    cut = scaled_cut(F, P31.ranks)
    assert cut[:2] == scaled_rank(F, P31.ranks) and cut[0] == comb(n + d - 1, d)
    relations = copy_stacks(_pair()[0], n, d)[0]
    bound = kernel_span_bound(F.mat, relations, P31.ranks, cut)
    dense = block_diag(F.mat), block_diag(relations)
    assert kernel_span_sine(*dense) <= bound < 1e-12


def test_f_dual_rank_and_vanishing():
    n = 3
    r3, _ = scaled_rank(f_op(P31, 3, P31.tau), P31.ranks)
    assert r3 == 1
    r4, gap = scaled_rank(f_op(P31, 4, P31.tau), P31.ranks)
    assert r4 == 0 and gap == math.inf


def test_f_image_is_embedded_kernel_intersection():
    # the intersection of the embedded kernels of R(tau) is the complement
    # of the sum of the embedded copies of im R(tau)^H = (ker R(tau))^perp,
    # so im F = Cap is ker F^H = that sum, on F's own cut
    F = f_op(P31, 3, -P31.tau)
    cut = scaled_cut(F, P31.ranks)
    coimage = image(pair_blocks(r_matrix(P31, P31.tau).conj().T, 3), P31.ranks)
    adjoint = F.mat.conj().swapaxes(-1, -2)
    assert kernel_span_bound(adjoint, copy_stacks(coimage, 3, 3)[0], P31.ranks, cut) < 1e-12
    # the projector witness of the intersection is im F, by the dense reference
    witness = intersect(_copies(_pair()[1], 3, 3), P31.ranks)
    im_f = image(F.mat, P31.ranks)
    assert [B.shape[1] for B in witness] == [B.shape[1] for B in im_f]
    assert dense_sine(basis(witness), basis(im_f)) < 1e-12


@pytest.mark.parametrize("sign", (1, -1))
def test_embedded_copies_match_embedded_projector_images(sign):
    # reference: the image of the embedded orthogonal projector onto W
    n, d = 3, 4
    for W in _pair(sign):
        copies = _copies(W, n, d)
        assert len(copies) == d - 1
        for pos, copy in enumerate(copies, start=1):
            gram = basis(copy).conj().T @ basis(copy)
            assert np.allclose(gram, np.eye(dim(copy)), atol=1e-13)
            reference = image(embed_pair(_projector(_dense(W, n, 2)), pos, n, d), P31.ranks)
            angle = dense_sine(basis(_dense(copy, n, d)), basis(reference))
            assert angle < 1e-12, (sign, pos, angle)


def test_copy_stacks_set_the_copies_side_by_side():
    # a copy V^(p-1) (x) W (x) V^(d-p-1) meets grade g in dim W * n^(d-3)
    # columns: the d-2 other digits take every sum mod n equally often
    n, d = 3, 4
    for W in _pair():
        stacks, starts = copy_stacks(W, n, d)
        assert starts.shape == (d, n) and not starts[0].any()
        assert np.all(np.diff(starts, axis=0) == dim(W) * n ** (d - 3))
        assert [X.shape for X in stacks] == [(n ** (d - 1), width) for width in starts[-1]]
    with pytest.raises(ValueError, match="degree at least 2"):
        copy_stacks(_pair()[0], n, 1)
    with pytest.raises(ValueError, match="pair-grade blocks"):
        copy_stacks(_pair()[0][:2], n, d)


def test_every_builder_past_the_cap_raises_the_typed_refusal():
    # one size rule: a builder past the cap raises BeyondCapError, a
    # ValueError whose message is the beyond_cap note the checks refuse with
    note = beyond_cap(8, 4)
    assert note == "n^d = 4096 exceeds the dense cap 3125" and beyond_cap(8, 3) is None
    for build in (lambda: site_product(8, 4, []), lambda: copy_stacks(_pair()[0], 8, 4),
                  lambda: symmetrizer(8, 4)):
        with pytest.raises(BeyondCapError) as exc:
            build()
        assert isinstance(exc.value, ValueError) and str(exc.value) == note


def _rotation(size, angle, rng):
    """A unitary I + O(angle): the Cayley transform of angle times a random
    anti-Hermitian matrix of unit 2-norm."""
    G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    K = G - G.conj().T
    K /= np.linalg.norm(K, 2)
    eye = np.eye(size)
    return np.linalg.solve(eye - angle / 2 * K, eye + angle / 2 * K)


def _f_sides(p, d, sign):
    """F_d(-sign*tau)'s cut and both sides of the rule: (M, copies of W) for
    the kernel, M = F, and the image, M = F^H."""
    n = p.n
    F = f_op(p, d, -sign * p.tau)
    blocks = pair_blocks(r_matrix(p, sign * p.tau), n)
    sides = [(F.mat, image(blocks, p.ranks)),
             (F.mat.conj().swapaxes(-1, -2), image(blocks.conj().swapaxes(-1, -2), p.ranks))]
    return scaled_cut(F, p.ranks), [(M, copy_stacks(W, n, d)) for M, W in sides]


@pytest.mark.parametrize("n, d", [(n, d) for n in (2, 3, 4) for d in (2, 3, 4)
                                  if n ** d <= 256 and not (n == 2 and d > 2)])
def test_the_bound_is_never_below_the_true_sine(n, d):
    # over both sides, both signs and the relation copies turned by
    # (I + angle G) on each grade, the bound is at least the sine the dense
    # reference reads, and resolves the untouched equality far below 1e-9.
    # At (2, 2) the bound is tight (one copy, orthonormal, and F_2 with
    # equal kept values), so both sides agree to their rounding, ~1e-16
    p, rng = make_params(n, 1), np.random.default_rng(n * 10 + d)
    for sign in (1, -1):
        cut, sides = _f_sides(p, d, sign)
        if cut[0] == 0:
            continue
        for M, (B, _) in sides:
            dense = block_diag(M)
            for angle in (0.0, 1e-10, 1e-7, 1e-4):
                turned = [(np.eye(len(X)) + angle * rng.standard_normal((len(X),) * 2)) @ X
                          for X in B]
                bound = kernel_span_bound(M, turned, p.ranks, cut)
                sine = kernel_span_sine(dense, block_diag(turned))
                assert bound >= sine - 1e-15, (sign, angle, bound, sine)
                if angle == 0.0:
                    assert bound < 1e-10


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("d", (2, 3))
def test_a_copy_turned_by_1e_5_fails(sign, d):
    # copy 1 of the relation space turned by a unitary 1e-5 from the
    # identity on each grade: the rule must not pass it.  At d = 2 it is
    # the only copy, the dimensions still agree, and the bound itself must
    # read the turn; at d = 3 the turned copy no longer meets copy 2 as
    # before, and the dimensions differ
    cut, sides = _f_sides(P31, d, sign)
    rng = np.random.default_rng(5)
    for M, (B, starts) in sides:
        turned = [X.copy() for X in B]
        for g, X in enumerate(turned):
            first = slice(starts[0, g], starts[1, g])
            X[:, first] = _rotation(len(X), 1e-5, rng) @ X[:, first]
        assert kernel_span_bound(M, B, P31.ranks, cut) < 1e-12
        bound = kernel_span_bound(M, turned, P31.ranks, cut)
        assert 1e-6 <= bound and (bound < 1e-3 if d == 2 else bound == 1.0), bound


@pytest.mark.parametrize("n", (2, 3, 4))
def test_the_relation_space_of_the_wrong_sign_fails(n):
    # ker F_d(-tau) is the sum of the copies of im R(tau), not of im R(-tau)
    p, d = make_params(n, 1), 3
    F = f_op(p, d, -p.tau)
    cut = scaled_cut(F, p.ranks)
    for sign in (1, -1):
        blocks = pair_blocks(r_matrix(p, sign * p.tau), n)
        bound = kernel_span_bound(F.mat, copy_stacks(image(blocks, p.ranks), n, d)[0],
                                  p.ranks, cut)
        assert (bound < 1e-12) if sign == 1 else (bound >= 1e-6), (sign, bound)


# ---------------------------------------------------------------------------
# Grade blocks
# ---------------------------------------------------------------------------

NDS = [(n, d) for n in (2, 3, 4, 5) for d in (2, 3, 4)]


def _grades(n, d):
    """The total grade (digit sum mod n) of every flat index of V^(x)d."""
    digits = np.unravel_index(np.arange(n ** d), (n,) * d)
    return sum(digits) % n


@pytest.mark.parametrize("n, d", [(n, d) for n in (2, 3, 4, 5) for d in (1, 2, 3, 4)])
def test_grade_index_partitions_the_tensor_power(n, d):
    idx = grade_index(n, d)
    assert idx.shape == (n, n ** (d - 1))
    assert np.array_equal(np.sort(idx.ravel()), np.arange(n ** d))
    assert np.all(np.diff(idx, axis=1) > 0)
    assert np.array_equal(_grades(n, d)[idx], np.repeat(np.arange(n)[:, None], n ** (d - 1), 1))
    # the index f sits at position f // n of its row
    assert np.array_equal(idx // n, np.broadcast_to(np.arange(n ** (d - 1)), idx.shape))
    assert grade_index(n, d) is idx and not idx.flags.writeable


def _products(p, d):
    """F_d(+-tau), T_d at generic arguments, and M_{a,b} for a + b = d."""
    yield f_op(p, d, p.tau)
    yield f_op(p, d, -p.tau)
    yield t_op(p, d, ZS[: d - 1])
    for a in range(1, d):
        yield m_op(p, a, d - a, ZS[0])


@pytest.mark.parametrize("n, d", NDS)
def test_products_are_block_diagonal_in_the_total_grade(n, d, monkeypatch):
    # every grade stack the chains build holds the blocks of the dense
    # reference product of its factors, whose entries between two different
    # grades are exactly zero
    import ellr.tensorops

    built = []

    def recorded(n, d, factors):
        built.append((factors, site_product(n, d, factors)))
        return built[-1][1]

    monkeypatch.setattr(ellr.tensorops, "site_product", recorded)
    grades, idx = _grades(n, d), grade_index(n, d)
    ops = list(_products(make_params(n, 1), d))
    assert len(ops) == len(built) and all(op.mat is stack for op, (_, stack) in zip(ops, built))
    for factors, stack in built:
        dense = dense_site_product(n, d, factors)
        assert not np.any(dense[grades[:, None] != grades[None, :]])
        blocks = dense[idx[:, :, None], idx[:, None, :]]
        assert np.max(np.abs(stack - blocks)) < 1e-13 * max(1.0, np.max(np.abs(blocks)))


def _t_table_ops(p, d):
    """The T_d operators of t_rank_table's primary and mirror cases."""
    n, eta, tau = p.n, p.eta, p.tau
    zs = [0.171 - 0.083j, (d - 1) * tau, (d - 1) * tau + 1 / n, -tau, -tau + eta / n]
    zs += [m * tau for m in range(1, d - 1)]
    for z in zs:
        yield t_op(p, d, [z] + [-tau] * (d - 2))
    for z in [0.171 - 0.083j, -(d - 1) * tau, tau] + [-m * tau for m in range(1, d - 1)]:
        yield t_op(p, d, [tau] * (d - 2) + [z])


def _assert_block_certificate_is_dense(op, n, d, policy):
    if op.max_abs() < ZERO_OPERATOR_TOL:
        assert scaled_rank(op, policy)[0] == 0
        return
    (rank, gap), (dense_rank, dense_gap) = svd_rank(op.mat, policy), svd_rank(op.matrix(), policy)
    assert rank == dense_rank
    assert scaled_rank(op, policy)[0] == dense_rank
    # the largest dropped singular value is rounding noise, which the dense
    # and the block SVDs round differently: only its decade is reproducible
    assert gap == dense_gap or abs(math.log10(gap / dense_gap)) < 1
    for part in (image, kernel):
        P = _projector(_dense(part(op.mat, policy), n, d))
        assert np.max(np.abs(P - _projector(part(op.matrix(), policy)))) < 1e-10, part


@pytest.mark.parametrize("n, d", NDS)
def test_block_certificate_of_f_matches_the_dense_spectrum(n, d):
    p = make_params(n, 1)
    for sign in (1, -1):
        _assert_block_certificate_is_dense(f_op(p, d, sign * p.tau), n, d, p.ranks)


@pytest.mark.parametrize("n, d", [(n, d) for n, d in NDS if d > 2])
def test_block_certificate_of_the_t_table_matches_the_dense_spectrum(n, d):
    p = make_params(n, 1)
    for op in _t_table_ops(p, d):
        _assert_block_certificate_is_dense(op, n, d, p.ranks)


def test_ragged_grade_ranks():
    # the grades of F_d(-tau) need not have equal ranks
    for n, d, ranks in ((3, 3, [4, 3, 3]), (4, 4, [10, 8, 9, 8])):
        p = make_params(n, 1)
        F = f_op(p, d, -p.tau).mat
        assert [B.shape[1] for B in image(F, p.ranks)] == ranks
        assert [B.shape[1] for B in kernel(F, p.ranks)] == [n ** (d - 1) - r for r in ranks]


@pytest.mark.parametrize("n, d", NDS)
def test_grade_ranks_of_f_agree_along_the_shift_orbits(n, d):
    # F_d commutes with T^(x)d, which carries grade g to g + d mod n
    p = make_params(n, 1)
    T = basis_ops(p)["T"]
    for sign in (1, -1):
        op = f_op(p, d, sign * p.tau)
        if op.max_abs() < ZERO_OPERATOR_TOL:
            continue
        Td = T
        for _ in range(d - 1):
            Td = np.kron(Td, T)
        F = op.matrix()
        assert np.max(np.abs(Td @ F - F @ Td)) < 1e-12
        ranks = [B.shape[1] for B in image(op.mat, p.ranks)]
        assert all(ranks[g] == ranks[(g + d) % n] for g in range(n)), ranks


def _sum(spaces, policy):
    """The sum of ungraded subspaces: the certified image of their bases
    side by side."""
    return image(np.hstack([basis(S) for S in spaces]), policy)


def _dense_lattice(pair, n, d, policy):
    """The corners and modular-triple sides of :func:`lattice_dims`, from
    orthonormal bases of dense Kronecker copies of ``pair``, every sum
    re-orthonormalized and every intersection the :func:`intersect`
    witness."""
    W = basis(_dense(pair, n, 2))
    copies = [(np.kron(np.kron(np.eye(n ** (p - 1)), W), np.eye(n ** (d - p - 1))),)
              for p in range(1, d)]
    whole = (np.eye(n ** d, dtype=complex),)
    sig = [whole] + [_sum(copies[:ell], policy) for ell in range(1, d)]
    cap = [whole] + [intersect(copies[d - 1 - r:], policy) for r in range(1, d)]
    # the end corners are Cap_{d-1} and Sig_{d-1} themselves (I - P of a
    # whole space is rounding noise, which no cut reads as zero)
    corners = [dim(cap[d - 1])] + [dim(intersect([sig[ell], cap[d - 1 - ell]], policy))
                                   for ell in range(1, d - 1)] + [dim(sig[d - 1])]
    triples = []
    for ell in range(1, d - 1):
        r = d - 1 - ell
        if ell == 1:
            # inside the triple Sig_0 is the zero space: the sides are
            # Cap_{r+1} and the corner Sig_1 ^ Cap_r
            triples.append((dim(cap[r + 1]), corners[1]))
            continue
        inner = _sum([sig[ell - 1], cap[r]], policy)
        triples.append((dim(_sum([sig[ell - 1], cap[r + 1]], policy)),
                        dim(intersect([sig[ell], inner], policy))))
    return corners, triples


def _complement(pair):
    """The orthogonal complement of a pair subspace, block by block."""
    return tuple(np.linalg.qr(B, mode="complete")[0][:, B.shape[1]:] for B in pair)


@pytest.mark.parametrize("n, d", [(n, d) for n, d in NDS if d > 2])
def test_graded_koszul_dims_match_the_dense_ones(n, d):
    # every corner and both sides of every modular triple of the rank-only
    # lattice of im R(tau), with (im R)^perp = ker R(tau)^H, equal the dense
    # ones, and equal the exact oracle at the corners
    p = make_params(n, 1)
    blocks = pair_blocks(r_matrix(p, p.tau), n)
    pair = image(blocks, p.ranks)
    complement = kernel(blocks.conj().swapaxes(-1, -2), p.ranks)
    corners, triples = lattice_dims(pair, complement, n, d, p.ranks)
    assert (corners, triples) == _dense_lattice(pair, n, d, p.ranks)
    assert corners == [classical_w_dim(n, d, ell, d - 1 - ell) for ell in range(d)]
    assert all(lhs == rhs for lhs, rhs in triples)
    assert (corners, triples) == lattice_dims(pair, _complement(pair), n, d, p.ranks)


@pytest.mark.parametrize("n, d, dims, sides", [
    (2, 4, [1, 1], (8, 12)),
    (3, 4, [1, 2, 1], (36, 47)),
])
def test_random_lattices_break_the_modular_triple(n, d, dims, sides):
    # a random graded W generates a lattice that is not distributive: a
    # triple rule that always read equal sides would miss it
    rng = np.random.default_rng(7)
    pair = tuple(np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
                 for k in dims)
    corners, triples = lattice_dims(pair, _complement(pair), n, d, P31.ranks)
    assert (corners, triples) == _dense_lattice(pair, n, d, P31.ranks)
    assert sides in triples
