"""Exact integer linear algebra for adjacency spectra.

Everything here runs on Python's arbitrary-precision integers; there are
no rationals and no floating point, so rank, nullity and eigenvalue
multiplicities are tolerance-free.  Two independent channels are kept on
purpose: fraction-free Gaussian elimination for ranks, and Berkowitz's
division-free characteristic polynomial for cross checks, so a bug in one
cannot silently confirm itself through the other.  The number of distinct
eigenvalues comes from the characteristic polynomial by a primitive
pseudo-remainder gcd with its derivative, again over the integers.
``rank_gf2`` is a lower bound on the rational rank.  The per-graph table
(``lemmas._GraphFacts``) uses it to rule graphs out of extremality, and
takes it as the rank of a matrix when it meets the number of distinct
rows, an upper bound; it eliminates with ``rank_exact`` only where the
two differ.  ``rank_exact``, ``nullity`` and the ``invariants`` command
stay Bareiss-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Sequence

from .graphs import Graph


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of Python ints (adjacency matrices and their shifts)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != len(self.entries):
                raise ValueError("matrix must be square")

    @classmethod
    def _square(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap ``entries`` that are square by construction, skipping the
        shape check (a principal submatrix of a square matrix is square)."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.entries)

    def principal(self, keep: Sequence[int]) -> "IntMatrix":
        """The principal submatrix on rows and columns ``keep``, in that
        order.  For the matrix of a graph this is the matrix of the subgraph
        induced on ``keep``, relabelled as ``Graph.induced`` relabels it."""
        if len(keep) < 2:  # itemgetter takes one index or more, and one gives no tuple
            return IntMatrix._square(tuple((self.entries[i][i],) for i in keep))
        pick = itemgetter(*keep)
        return IntMatrix._square(tuple(map(pick, pick(self.entries))))


@dataclass(frozen=True)
class IntPolynomial:
    """Monic integer polynomial, coefficients ascending (c0..cn, cn = 1)."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[-1] != 1:
            raise ValueError("expected a monic polynomial")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def adjacency_matrix(g: Graph) -> IntMatrix:
    return shifted_adjacency(g, 0)


def shifted_adjacency(g: Graph, mu: int) -> IntMatrix:
    """A(g) - mu*I as an exact integer matrix."""
    columns = range(len(g.rows))
    entries = []
    for i, mask in enumerate(g.rows):
        row = [mask >> j & 1 for j in columns]
        row[i] -= mu
        entries.append(tuple(row))
    return IntMatrix._square(tuple(entries))


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


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank over GF(p) for an odd prime p.

    Always at most the rational rank; equality holds unless p divides the
    determinant of every maximal nonsingular minor, which makes this a
    cheap independent witness for ``rank_exact``.
    """
    if p <= 2 or not _is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    n = m.order
    a = [[x % p for x in row] for row in m.entries]
    rank = 0
    for col in range(n):
        pivot_row = None
        for r in range(rank, n):
            if a[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][col], -1, p)
        top = [x * inv % p for x in a[rank]]
        a[rank] = top
        for i in range(rank + 1, n):
            f = a[i][col]
            if f:
                a[i] = [(x - f * t) % p for x, t in zip(a[i], top)]
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
    of distinct rows, it is the rational rank (``lemmas._GraphFacts.rank``);
    elsewhere the rank needs ``rank_exact``.
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def nullity(g: Graph) -> int:
    """Multiplicity of eigenvalue 0, computed as n - rank(A)."""
    return g.n - rank_exact(adjacency_matrix(g))


def integer_eigenvalue_multiplicity(g: Graph, mu: int) -> int:
    """Multiplicity of the integer eigenvalue ``mu``: n - rank(A - mu*I)."""
    return g.n - rank_exact(shifted_adjacency(g, mu))


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - m) by Berkowitz's
    division-free algorithm (Berkowitz 1984).

    The polynomial of each leading principal block is built from the one
    before it: bordering the k x k block B by row r, column c and corner
    a multiplies it by the lower-triangular Toeplitz matrix with first
    column 1, -a, -r c, -r B c, ..., -r B^(k-1) c.  Only ring operations
    are used (no division, no elimination), which keeps it independent of
    ``rank_exact``.

    Each row of the leading block is held sparse, in two parts: the
    columns where it holds 1, and the columns and entries of its other
    nonzero entries, the diagonal included.  A row times a vector is then
    a plain sum of picked entries, plus a weighted sum only for rows with
    other entries; an adjacency matrix has none.  The rows grow by one
    column per step, so the border row r of step k is row k as it stands.
    The Toeplitz product is one dot product per coefficient with the
    reversed first column.
    """
    a = m.entries
    ones: list[list[int]] = []  # ones[i]: the columns j < k with a[i][j] == 1
    cols: list[list[int]] = []  # cols[i], vals[i]: the other nonzero entries
    vals: list[list[int]] = []
    coeffs = [1]  # descending, for the leading k x k block
    for k in range(m.order):
        ak = a[k]
        ones.append([j for j in range(k) if ak[j] == 1])
        cols.append([j for j in range(k) if ak[j] and ak[j] != 1])
        vals.append([ak[j] for j in cols[k]])
        rows = list(zip(ones, cols, vals))  # the block's rows, then the border row r
        col = [a[i][k] for i in range(k)]
        toeplitz = [1, -ak[k]]
        for _ in range(k):
            get = col.__getitem__
            col = [
                sum(map(get, o)) + sum(map(mul, map(get, c), v)) if c else sum(map(get, o))
                for o, c, v in rows
            ]
            toeplitz.append(-col.pop())  # r times the vector; B times it stays
        toeplitz.reverse()  # toeplitz[i - j] is now toeplitz[k + 1 - i + j]
        coeffs = [sum(map(mul, toeplitz[k + 1 - i :], coeffs)) for i in range(k + 2)]
        for i in range(k + 1):  # every row of the next block gains column k
            x = a[i][k]
            if x == 1:
                ones[i].append(k)
            elif x:
                cols[i].append(k)
                vals[i].append(x)
    return IntPolynomial(tuple(reversed(coeffs)))


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0: index of the lowest nonzero coefficient."""
    for i, c in enumerate(p.coefficients):
        if c:
            return i
    raise ValueError("the zero polynomial has no root multiplicities")


def distinct_eigenvalue_count(g: Graph) -> int:
    """Number of distinct eigenvalues: degree of the square-free part of
    the characteristic polynomial, deg p - deg gcd(p, p')."""
    p = list(char_poly(adjacency_matrix(g)).coefficients)
    dp = [i * c for i, c in enumerate(p)][1:]
    return (len(p) - 1) - _gcd_degree(p, dp)


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
        while a and not a[-1]:
            a.pop()
    return a


def _primitive_part(p: list[int]) -> list[int]:
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def path_nullity(m: int) -> int:
    """Nullity of the path on ``m`` vertices: 1 for odd ``m``, else 0."""
    if m < 1:
        raise ValueError("a path needs at least one vertex")
    return m % 2


def cycle_nullity(m: int) -> int:
    """Nullity of the cycle on ``m`` vertices: 2 when 4 | m, else 0."""
    if m < 3:
        raise ValueError("a cycle needs at least three vertices")
    return 2 if m % 4 == 0 else 0
