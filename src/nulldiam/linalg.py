"""Exact integer linear algebra for adjacency spectra.

Everything here runs on Python's arbitrary-precision integers; there are
no rationals and no floating point, so rank, nullity and eigenvalue
multiplicities are tolerance-free.  Two independent channels are kept on
purpose: fraction-free Gaussian elimination for ranks, and Berkowitz's
division-free characteristic polynomial for cross checks, so a bug in one
cannot silently confirm itself through the other.  ``char_poly`` takes
symmetric matrices only (every caller passes ``A - mu*I``): each walk
count ``c^T B^i c`` that Berkowitz needs is then the dot product of two
Krylov vectors ``B^a c`` and ``B^b c`` with ``a + b = i``, so it builds
half of them.  The number of distinct eigenvalues comes from the
characteristic polynomial by its gcd with its derivative: a gcd of 1
modulo the prime ``2^61 - 1`` certifies that it is square-free, and
otherwise a primitive pseudo-remainder gcd over the integers decides.
``rank_gf2`` and ``rank_gf3`` are ranks modulo the primes 2 and 3, read
word-parallel off bit rows; each is a lower bound on the rational rank.
The per-graph table (``lemmas._GraphFacts``) uses the rank mod 2 to rule
graphs out of extremality, and certifies a matrix's rank from the two
primes: a lower bound that meets the number of distinct nonzero rows, an
upper bound, is the rank, and ``rank_exact`` eliminates only where
neither does.  The rank mod 3 is read only where the rank mod 2 falls
short.  ``rank_exact``, ``nullity`` and the ``invariants``
command stay Bareiss-only.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .graphs import Graph


class IntMatrix:
    """Square matrix of Python ints (adjacency matrices and their shifts)."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        for row in entries:
            if len(row) != len(entries):
                raise ValueError("matrix must be square")
        self.entries = entries

    @property
    def order(self) -> int:
        return len(self.entries)


def adjacency_matrix(g: Graph) -> IntMatrix:
    return shifted_matrix(g.rows, 0)


def shifted_matrix(rows: Sequence[int], mu: int) -> IntMatrix:
    """A - mu*I as an exact integer matrix, for the 0/1 matrix A whose row
    ``i`` has the bits of ``rows[i]`` (a graph's adjacency bitmasks)."""
    columns = range(len(rows))
    entries = []
    for i, mask in enumerate(rows):
        row = [mask >> j & 1 for j in columns]
        row[i] -= mu
        entries.append(tuple(row))
    return IntMatrix(tuple(entries))


def rank_exact(m: IntMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    Row pivoting with column skipping; every division is exact by the
    Sylvester identity, so intermediate entries stay integral.  A row whose
    entry in the pivot column is 0 would only be rescaled by piv / prev, so
    it is skipped when the pivot equals the previous one.
    """
    n = m.order
    a = [list(row) for row in m.entries]
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for r in range(rank, n):
            if a[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        piv = a[rank][col]
        top = a[rank]
        for i in range(rank + 1, n):
            ai = a[i]
            f = ai[col]
            if not f and piv == prev:
                continue
            for j in range(col + 1, n):
                ai[j] = (ai[j] * piv - f * top[j]) // prev
            ai[col] = 0
        prev = piv
        rank += 1
    return rank


def rank_gf2(rows: Sequence[int]) -> int:
    """Rank over GF(2) of the 0/1 matrix whose row ``i`` has the bits of
    ``rows[i]`` (a graph's adjacency bitmasks), by XOR elimination.

    This is a lower bound on the rational rank.  A k x k minor that is odd
    is not zero, so k rows independent mod 2 are independent over the
    rationals: rank_GF2 <= rank_Q.  The bound can be strict: K_3 has rank
    2 mod 2 and 3 over the rationals.  So rank_GF2 >= d + 2 certifies
    rank > d + 1, that is eta < n - d - 1, while rank_GF2 <= d + 1 decides
    nothing by itself.  Where it equals an upper bound, such as the number
    of distinct nonzero rows, it is the rational rank (``lemmas._GraphFacts.rank``);
    elsewhere the rank needs ``rank_gf3`` or ``rank_exact``.
    """
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for r in rows:
        while r:
            lead = r.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = r
                break
            r ^= pivot
    return len(basis)


def rank_gf3(rows: Iterable[tuple[int, int]]) -> int:
    """Rank over GF(3) of the matrix held bit-sliced as ``(plus, minus)``
    masks per row: bit j of ``plus`` is set where the row holds 1 (mod 3),
    bit j of ``minus`` where it holds -1, and no bit is set in both.

    Like ``rank_gf2``, it keeps a dict from leading bit to reduced row, with
    each pivot scaled to +1 at its leading bit.  A row whose leading bit is
    a pivot's has that pivot subtracted (its entry there is +1) or added
    (-1), both as ``x + y`` on bit-sliced operands (bit-sliced GF(3) as in
    Boothby and Bradshaw, arXiv:0901.1413): ``t = (x+ | y-) ^ (x- | y+)``
    and then ``x + y = ((x- | y-) ^ t, (x+ | y+) ^ t)``, six word
    operations, which is correct bit by bit on all nine pairs of entries.
    Subtracting ``y`` adds ``(y-, y+)``.

    This is a lower bound on the rational rank for the same reason as the
    rank mod 2: a k x k minor that is nonzero mod 3 is nonzero, so
    rank_GF3 <= rank_Q.  The two primes miss different matrices: K_3 has
    rank 2 mod 2 and 3 mod 3 (its determinant is 2), and A(K_3) - 2I has
    rank 1 mod 3 and 2 mod 2 and over the rationals.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> reduced row, +1 there
    for plus, minus in rows:
        while lead := (plus | minus).bit_length():
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = (plus, minus) if plus >> lead - 1 else (minus, plus)
                break
            if plus >> lead - 1:  # subtract the pivot: add (p, m) = (pivot-, pivot+)
                m, p = pivot
            else:
                p, m = pivot
            t = (plus | m) ^ (minus | p)
            plus, minus = (minus | m) ^ t, (plus | p) ^ t
    return len(basis)


def nullity(g: Graph) -> int:
    """Multiplicity of eigenvalue 0, computed as n - rank(A)."""
    return g.n - rank_exact(adjacency_matrix(g))


def char_poly(m: IntMatrix) -> tuple[int, ...]:
    """Exact characteristic polynomial det(xI - m) of a symmetric matrix by
    Berkowitz's division-free algorithm (Berkowitz 1984), as its
    coefficients in ascending order; the last is 1.  A matrix that is not
    symmetric raises ``ValueError``.

    The polynomial of each leading principal block is built from the one
    before it: bordering the k x k block B by row r, column c and corner
    a multiplies it by the lower-triangular Toeplitz matrix with first
    column 1, -a, -W(0), ..., -W(k-1), where W(i) = r B^i c.  Only ring
    operations are used (no division, no elimination), which keeps it
    independent of ``rank_exact``.

    For a symmetric matrix r is c transposed and B is symmetric, so with
    x_j = B^j c, W(i) = (B^a c) . (B^b c) for a = ceil(i/2), b = floor(i/2).
    Step k therefore builds only x_0, ..., x_(k//2), by k//2 products with
    B, and reads each W(i) as the dot product of x_a and x_b.

    Each row of the leading block is held sparse, in two parts: the
    columns where it holds 1, and the columns and entries of its other
    nonzero entries, the diagonal included.  A row times a vector is then
    a plain sum of picked entries, plus a weighted sum only for rows with
    other entries; an adjacency matrix has none.  The rows grow by one
    column per step.  The Toeplitz product is one dot product per
    coefficient with the reversed first column.
    """
    a = m.entries
    if tuple(zip(*a)) != a:
        raise ValueError("char_poly needs a symmetric matrix")
    ones: list[list[int]] = []  # ones[i]: the columns j < k with a[i][j] == 1
    cols: list[list[int]] = []  # cols[i], vals[i]: the other nonzero entries
    vals: list[list[int]] = []
    coeffs = [1]  # descending, for the leading k x k block
    for k in range(m.order):
        ak = a[k]
        rows = list(zip(ones, cols, vals))  # the block B
        x = ak[:k]  # x_0 = c, which is r as well
        krylov = [x]
        for _ in range(k // 2):
            get = x.__getitem__
            x = [
                sum(map(get, o)) + sum(map(mul, map(get, c), v)) if c else sum(map(get, o))
                for o, c, v in rows
            ]
            krylov.append(x)
        toeplitz = [-sum(map(mul, krylov[i - i // 2], krylov[i // 2])) for i in range(k - 1, -1, -1)]
        toeplitz += (-ak[k], 1)  # toeplitz[i - j] is now toeplitz[k + 1 - i + j]
        coeffs = [sum(map(mul, toeplitz[k + 1 - i :], coeffs)) for i in range(k + 2)]
        ones.append([j for j in range(k) if ak[j] == 1])  # row k joins the block
        cols.append([j for j in range(k) if ak[j] and ak[j] != 1])
        vals.append([ak[j] for j in cols[k]])
        for i in range(k + 1):  # every row of the next block gains column k
            entry = a[i][k]
            if entry == 1:
                ones[i].append(k)
            elif entry:
                cols[i].append(k)
                vals[i].append(entry)
    return tuple(reversed(coeffs))


def distinct_eigenvalue_count(g: Graph, *, adjacency: IntMatrix | None = None) -> int:
    """Number of distinct eigenvalues: degree of the square-free part of
    the characteristic polynomial, deg p - deg gcd(p, p').  A caller that
    holds ``adjacency_matrix(g)`` already passes it as ``adjacency``.

    A gcd of 1 modulo the prime q = 2^61 - 1 settles it first: then p is
    square-free and the count is n, with no integer gcd.  This is sound
    because p is monic.  A common factor of p and p' of positive degree
    over the rationals may be taken monic, and a monic rational factor of
    the monic integer p has integer coefficients (Gauss's lemma).  So such
    a factor h is a monic integer polynomial, and dividing p' by it leaves
    an integer quotient.  Modulo q, h keeps its degree and still divides p
    and p' (also when p' vanishes mod q), so their gcd mod q has positive
    degree too.  Where the gcd mod q is not 1, the integer pseudo-remainder
    sequence decides.
    """
    p = list(char_poly(adjacency_matrix(g) if adjacency is None else adjacency))
    dp = [i * c for i, c in enumerate(p)][1:]
    if _coprime_mod_q(p, dp):
        return g.n
    return (len(p) - 1) - _gcd_degree(p, dp)


#: The Mersenne prime 2^61 - 1, the modulus of the square-free certificate.
_Q = (1 << 61) - 1


def _coprime_mod_q(a: list[int], b: list[int]) -> bool:
    """Whether integer polynomials ``a`` and ``b`` (ascending coefficients)
    have gcd 1 modulo ``_Q``, by Euclid's algorithm over GF(q)."""
    a = _trimmed([c % _Q for c in a])
    b = _trimmed([c % _Q for c in b])
    while b:
        inv = pow(b[-1], -1, _Q)
        b = [c * inv % _Q for c in b]  # monic
        db = len(b) - 1
        while len(a) > db:
            f = a.pop()
            shift = len(a) - db
            a[shift:] = [(x - f * c) % _Q for x, c in zip(a[shift:], b)]
            _trimmed(a)
        a, b = b, a
    return len(a) == 1


def _trimmed(p: list[int]) -> list[int]:
    """``p`` without its zero leading coefficients, trimmed in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over the rationals, for integer polynomials with
    ascending coefficients, ``a`` nonzero and ``b`` zero (empty) or of
    lower degree.

    Primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): each
    pseudo-remainder is divided by its content, so the coefficients stay
    integral and small and the gcd's degree is unchanged.
    """
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return len(a) - 1


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b, trimmed (empty when zero)."""
    a = a[:]
    db, lead_b = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        lead_a = a[-1]
        common = math.gcd(lead_a, lead_b)
        scale, f = lead_b // common, lead_a // common
        if scale != 1:
            a = [scale * c for c in a]
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _trimmed(a)
    return a


def _primitive_part(p: list[int]) -> list[int]:
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p
