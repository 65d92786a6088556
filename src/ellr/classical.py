"""Exact-arithmetic classical oracle.

Computes, over arbitrary-precision integers, every "classical" (undeformed)
dimension the numerical pipeline is compared against: spans and
intersections of the subspaces

    L_i   = V^{(x)(i-1)} (x) Alt2(V) (x) V^{(x)(d-i-1)}   (1 <= i <= d-1)
    Sig_s = L_1 + ... + L_s
    I_t   = L_{d-t} ^ ... ^ L_{d-1}          (^ = intersection)

inside V^{(x)d} with V = C^n, and the group-algebra shuffle
decomposition.  No floating point enters any result.

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
reduces to dim I_{d-1} at ell = 0 and to dim Sig_{d-1} at r = 0.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, prod

from .linalg import exact_rank

MAX_CLASSICAL_DEGREE = 5
MAX_SHUFFLE_SIZE = 6


def _check(n: int, d: int):
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= d <= MAX_CLASSICAL_DEGREE:
        raise ValueError(f"degree {d} outside supported range 0..{MAX_CLASSICAL_DEGREE}")


# ---------------------------------------------------------------------------
# Annihilator rows over a list of words closed under permuting slots
# ---------------------------------------------------------------------------


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
# Dimensions, computed per content class
# ---------------------------------------------------------------------------


def classical_w_dim(n: int, d: int, ell: int, r: int) -> int:
    """Exact dim(Sig_ell ^ I_r) for ell + r = d - 1."""
    _check(n, d)
    if ell + r != d - 1:
        raise ValueError("lattice dimension requires ell + r = d - 1")
    return _graded(n, d, lambda words: _w_dim(words, ell, r))


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
