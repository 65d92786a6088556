"""Exact-arithmetic classical oracle.

Computes, over arbitrary-precision integers, every "classical" (undeformed)
dimension the numerical pipeline is compared against: spans and
intersections of the subspaces

    L_i   = V^{(x)(i-1)} (x) Alt2(V) (x) V^{(x)(d-i-1)}   (1 <= i <= d-1)
    Sig_s = L_1 + ... + L_s
    I_t   = L_{d-t} ^ ... ^ L_{d-1}          (^ = intersection)

inside V^{(x)d} with V = C^n, plus the symmetric/exterior Hilbert
dimensions and the group-algebra shuffle decomposition.  No floating point
enters any result.

Content grading.  Every spanning row w - swap_i(w) of L_i lies in the span
of the words with the same content (multiset of letters) as w, so each L_i
is the direct sum of its parts in the content classes.  Sums and
intersections of subspaces that split this way split the same way, so
every dimension above is the sum over content classes of the dimension of
the same construction inside that class.  A permutation of the letters maps
each L_i onto itself (up to the sign of its rows) and one content class
onto another, so a class's dimensions depend only on its partition type
lambda |- d (the letter multiplicities, sorted), with at most n parts.  The
dimensions are therefore computed once per type, on the multinomial(lambda)
words of one representative class, and weighted by the number of contents
of that type.  This is an exact identity of integer dimensions, not an
approximation: each dimension is one integer rank on at most
multinomial(lambda) columns (12 at n=3, d=4 instead of 81).

Annihilators.  Every subspace above is cut out by functions on the words
that are constant on orbits of slot permutations, so its annihilator is
written down directly instead of eliminated for.  ann(L_pos) is spanned by
the 0/1 indicators of the orbits {w, swap_pos(w)}; ann(Sig_ell), the
intersection of ann(L_1), ..., ann(L_ell), by the indicators of the
S_{ell+1}-orbits on slots 1..ell+1; and ann(I_r) is the sum of the
ann(L_pos) over the positions of I_r.  Hence, on a block of N words,

    dim(Sig_ell ^ I_r) = N - rank(ann(Sig_ell) rows + ann(L_{d-r}) rows
                                  + ... + ann(L_{d-1}) rows),

one fraction-free integer elimination of 0/1 rows per dimension.

Conventions: an empty sum of subspaces (Sig_0) and an empty intersection
(I_0) both denote the full ambient space (they contribute no annihilator
rows), so the lattice dimension dim(Sig_ell ^ I_r) with ell + r = d - 1
reduces to dim I_{d-1} at ell = 0 and to dim Sig_{d-1} at r = 0.  The flat
spanning sets lambda_rows, sigma_rows and i_rows use the row-major
multi-index basis of V^{(x)d}.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, factorial, prod

from .linalg import exact_nullspace, exact_rank

MAX_CLASSICAL_DEGREE = 5
MAX_SHUFFLE_SIZE = 6


def _check(n: int, d: int):
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= d <= MAX_CLASSICAL_DEGREE:
        raise ValueError(f"degree {d} outside supported range 0..{MAX_CLASSICAL_DEGREE}")


# ---------------------------------------------------------------------------
# Spanning sets over a list of words closed under permuting slots
# ---------------------------------------------------------------------------


def _pair_rows(words, pos: int):
    """Rows w - swap_pos(w) of L_pos, one per word w with w[pos-1] < w[pos].

    Columns are indexed by the position of each word in `words`, which must
    contain every slot permutation of each of its words.
    """
    index = {w: c for c, w in enumerate(words)}
    rows = []
    for w in words:
        i, j = w[pos - 1], w[pos]
        if i < j:
            row = [0] * len(words)
            row[index[w]] = 1
            row[index[w[:pos - 1] + (j, i) + w[pos + 1:]]] = -1
            rows.append(row)
    return rows


def _orbit_rows(words, first: int, last: int):
    """0/1 indicator rows of the orbits of the permutations of slots
    first..last (1-based) on `words`: two words share an orbit when they
    agree outside those slots.  The rows span ann(L_pos) for
    (first, last) = (pos, pos+1) and ann(Sig_ell) for (1, ell+1)."""
    orbits = {}
    for c, w in enumerate(words):
        key = (w[:first - 1], tuple(sorted(w[first - 1:last])), w[last:])
        orbits.setdefault(key, []).append(c)
    rows = []
    for cols in orbits.values():
        row = [0] * len(words)
        for c in cols:
            row[c] = 1
        rows.append(row)
    return rows


def _w_dim(words, ell: int, r: int) -> int:
    """dim(Sig_ell ^ I_r) inside the span of `words`: their number minus the
    rank of the annihilator rows of Sig_ell (none at ell = 0) and of
    L_{d-r}, ..., L_{d-1} (none at r = 0)."""
    d = len(words[0])
    rows = _orbit_rows(words, 1, ell + 1) if ell else []
    for pos in range(d - r, d):
        rows += _orbit_rows(words, pos, pos + 1)
    return len(words) - exact_rank(rows)


def _all_words(n: int, d: int):
    return list(itertools.product(range(n), repeat=d))


# ---------------------------------------------------------------------------
# Content classes
# ---------------------------------------------------------------------------


def _partitions(d: int, max_parts: int, largest: int | None = None):
    """Partitions of d into at most max_parts parts, parts non-increasing."""
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(d, d if largest is None else largest), 0, -1):
        for rest in _partitions(d - first, max_parts - 1, first):
            yield (first,) + rest


def _content_blocks(n: int, d: int):
    """One (count, words) pair per partition type lambda |- d with at most n parts.

    `words` lists, in row-major order, the distinct words whose letter
    0, 1, ... occurs lambda_0, lambda_1, ... times; `count` is the number of
    contents of V^{(x)d} of type lambda.  The counts sum to C(n+d-1, d) and
    count * len(words) sums to n^d.
    """
    for lam in _partitions(d, n):
        count = factorial(n) // factorial(n - len(lam))
        count //= prod(factorial(m) for m in Counter(lam).values())
        rep = tuple(letter for letter, part in enumerate(lam) for _ in range(part))
        yield count, sorted(set(itertools.permutations(rep)))


def _graded(n: int, d: int, block_dim) -> int:
    return sum(count * block_dim(words) for count, words in _content_blocks(n, d))


# ---------------------------------------------------------------------------
# Flat spanning sets (reference bases of V^{(x)d})
# ---------------------------------------------------------------------------


def lambda_rows(n: int, d: int, pos: int):
    """Integer row span of L_pos: alternating pairs at slots (pos, pos+1).

    Rows are x_{..} (x) (x_i (x) x_j - x_j (x) x_i) (x) x_{..} for i < j.
    """
    _check(n, d)
    if not 1 <= pos <= d - 1:
        raise ValueError(f"pair position {pos} out of range for degree {d}")
    return _pair_rows(_all_words(n, d), pos)


def sigma_rows(n: int, d: int, s: int):
    """Integer row span of Sig_s = L_1 + ... + L_s; s = 0 gives the ambient space."""
    _check(n, d)
    if not 0 <= s <= d - 1:
        raise ValueError(f"sum index {s} out of range for degree {d}")
    if s == 0:
        return exact_nullspace([], n ** d)
    words = _all_words(n, d)
    return [row for pos in range(1, s + 1) for row in _pair_rows(words, pos)]


def i_rows(n: int, d: int, t: int):
    """Integer row basis of I_t = L_{d-t} ^ ... ^ L_{d-1}: the null space of
    the annihilator rows of L_{d-t}, ..., L_{d-1}; t = 0 gives the ambient space."""
    _check(n, d)
    if not 0 <= t <= d - 1:
        raise ValueError(f"intersection index {t} out of range for degree {d}")
    words = _all_words(n, d)
    ann = [row for pos in range(d - t, d) for row in _orbit_rows(words, pos, pos + 1)]
    return exact_nullspace(ann, len(words))


# ---------------------------------------------------------------------------
# Dimensions, computed per content class
# ---------------------------------------------------------------------------


def classical_w_dim(n: int, d: int, ell: int, r: int) -> int:
    """Exact dim(Sig_ell ^ I_r) for ell + r = d - 1."""
    _check(n, d)
    if ell + r != d - 1:
        raise ValueError("lattice dimension requires ell + r = d - 1")
    return _graded(n, d, lambda words: _w_dim(words, ell, r))


def inclusion_exclusion_check(n: int, d: int, ell: int) -> dict:
    """Exact verification of the three-term intersection identity

        dim((X + Y) ^ Z) = dim(X ^ Z) + dim(Y ^ Z) - dim(X ^ Y ^ Z)

    with X = L_1 + ... + L_{ell-1}, Y = L_{ell,ell+1}, and
    Z = L_{ell+1} ^ ... ^ L_{d-1}; requires 1 <= ell <= d-1.  Returns the
    four dimensions; the identity itself encodes the distributivity of the
    classical subspace lattice at this corner.
    """
    _check(n, d)
    if not 1 <= ell <= d - 1:
        raise ValueError("inclusion-exclusion check needs 1 <= ell <= d-1")
    # X ^ Z, Y ^ Z and X ^ Y ^ Z are lattice corners too: Y ^ Z = I_{r+1},
    # and X = Sig_{ell-1} is the zero space (not Sig_0) at ell = 1
    r = d - 1 - ell

    def dim(s: int, t: int) -> int:
        return _graded(n, d, lambda words: _w_dim(words, s, t))

    lhs, yz = dim(ell, r), dim(0, r + 1)
    xz, xyz = (dim(ell - 1, r), dim(ell - 1, r + 1)) if ell > 1 else (0, 0)
    rhs = xz + yz - xyz
    return {
        "lhs": lhs,
        "dim_x_cap_z": xz,
        "dim_y_cap_z": yz,
        "dim_x_cap_y_cap_z": xyz,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


def classical_hilbert(n: int, d: int) -> dict:
    """Dimensions of degree-d symmetric and exterior powers of C^n.

    Returns {"poly_dim": C(n+d-1,d), "ext_dim": C(n,d)}, with the binomials
    verified against the oracle's own dimensions: S^d = V^{(x)d} / Sig_{d-1}
    and Lambda^d = I_{d-1}, summed over content classes.
    """
    _check(n, d)
    poly_dim = comb(n + d - 1, d)
    ext_dim = comb(n, d)
    if d >= 1:
        # dim S^d is the rank of ann(Sig_{d-1}), the S_d-orbit rows; at d = 1
        # these are the identity rows, since the quotient is by the empty sum,
        # the zero space, and not by the Sig_0 = ambient convention
        sym_dim = _graded(n, d, lambda words: exact_rank(_orbit_rows(words, 1, d)))
        anti_dim = _graded(n, d, lambda words: _w_dim(words, 0, d - 1))
        if sym_dim != poly_dim or anti_dim != ext_dim:
            raise AssertionError(
                f"oracle dimensions ({sym_dim}, {anti_dim}) of S^d and Lambda^d "
                f"disagree with binomials ({poly_dim}, {ext_dim})"
            )
    return {"poly_dim": poly_dim, "ext_dim": ext_dim}


def _compose(p, q):
    """(p o q)(i) = p(q(i)); permutations in one-line notation over 0..m-1."""
    return tuple(p[q[i]] for i in range(len(p)))


def shuffle_identity_check(a: int, b: int) -> bool:
    """Exact group-algebra identity: every permutation of a+b letters
    factors uniquely as omega o alpha o beta with

      omega  an (a,b)-shuffle (increasing on the first a and last b slots),
      alpha  fixing every slot past a,
      beta   fixing every slot up to a.

    Verified by brute-force enumeration; requires a + b <= 6.
    """
    if a < 0 or b < 0 or a + b > MAX_SHUFFLE_SIZE:
        raise ValueError(f"shuffle check supports 0 <= a+b <= {MAX_SHUFFLE_SIZE}")
    m = a + b
    perms = list(itertools.permutations(range(m)))
    shuffles = [
        w
        for w in perms
        if all(w[i] < w[i + 1] for i in range(a - 1))
        and all(w[i] < w[i + 1] for i in range(a, m - 1))
    ]
    left = [p for p in perms if all(p[i] == i for i in range(a, m))]
    right = [p for p in perms if all(p[i] == i for i in range(a))]
    counts = {p: 0 for p in perms}
    for w in shuffles:
        for al in left:
            for be in right:
                counts[_compose(w, _compose(al, be))] += 1
    return all(c == 1 for c in counts.values())


def classical_dims(n: int, d: int) -> dict:
    """Full classical dimension table for degree d.

    Returns {"w": {ell: dim(Sig_ell ^ I_{d-1-ell})}, "sigma": {...},
    "cap": {...}} with the boundary conventions above.
    """
    _check(n, d)
    w = {ell: classical_w_dim(n, d, ell, d - 1 - ell) for ell in range(d)}
    sig = {s: _graded(n, d, lambda words, s=s: _w_dim(words, s, 0)) for s in range(d)}
    cap = {t: _graded(n, d, lambda words, t=t: _w_dim(words, 0, t)) for t in range(d)}
    return {"w": w, "sigma": sig, "cap": cap}
