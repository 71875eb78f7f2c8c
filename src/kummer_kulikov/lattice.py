"""Exact integer linear algebra: the one elimination core of the package.

Determinant and rank come from one fraction-free (Bareiss) Gauss–Jordan
elimination, and inverses and solves from the same pass, which gives the
determinant and adj(m)·B together (Cramer's rule); cokernels come from the
Smith normal form.  These functions take and return matrices as plain
rows, checked only for equal lengths; ``IntMatrix`` is the checked,
immutable matrix of a datum or a fan document's lattice.  All arithmetic is
over Python's arbitrary-precision integers, so nothing here can overflow.
The Smith normal form uses a deterministic pivot rule (smallest absolute
value, ties broken in row-major order) so the transform matrices are
reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import SingularPairing


def _bareiss(rows: Sequence[Sequence[int]], cols: int) -> tuple[int, int, list[list[int]]]:
    """Fraction-free Gauss–Jordan elimination on the first ``cols`` columns
    of the rows [m | B]: (rank, last pivot, the eliminated rows).

    A pivot step updates the other rows right of the pivot column only, and
    skips a column that is zero in every row not yet pivoted.  The updated
    entries are minors (Sylvester's identity), so every division by the
    previous pivot is exact; a swap negates the row moved down, keeping their
    signs.  For a square m of full rank the last pivot is det m and the
    columns past m hold adj(m)·B; with no pivot at all the last pivot is 1.
    """
    a = list(map(list, rows))
    n = len(a)
    width = len(a[0]) if a else cols
    rank, prev = 0, 1
    for col in range(cols):
        piv = rank
        while piv < n and a[piv][col] == 0:
            piv += 1
        if piv == n:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], [-x for x in a[rank]]
        top = a[rank]
        p = top[col]
        # Rows above the pivot are read again only for B.
        for row in a[rank + 1:] if width == cols else a[:rank] + a[rank + 1:]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        rank += 1
        if rank == n:
            break
    return rank, prev, a


def _width(rows: Sequence[Sequence[int]]) -> int:
    """The common length of the rows, 0 for none; ValueError if they differ."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError("ragged rows")
    return widths.pop() if widths else 0


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of the square matrix with these rows (Bareiss)."""
    n = _width(rows)
    if len(rows) != n:
        raise ValueError("determinant of non-square matrix")
    found, last, _ = _bareiss(rows, n)
    return last if found == n else 0


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of the matrix with these rows (Bareiss)."""
    return _bareiss(rows, _width(rows))[0]


class IntMatrix:
    """Immutable integer matrix, checked on construction: the matrices of a
    datum and of a fan document's lattice.  The shape is read off the rows,
    which must have one length; degenerate shapes (0 rows/cols) are allowed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", _width(rows))
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
              for j in range(other.cols)] for i in range(self.rows)])

    def det(self) -> int:
        return det(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def smith_normal_form(m: Sequence[Sequence[int]]
                      ) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The Smith form U·m·V = D of the matrix with the rows ``m``: the
    diagonal of D, and the rows of U and of V.

    The diagonal entries, min(rows, cols) of them, are nonnegative and form a
    divisibility chain, and U, V are unimodular.  Pivots are chosen by
    smallest absolute value with row-major tie-breaking, so the output is
    deterministic.
    """
    r, c = len(m), _width(m)
    # One block matrix [[m, I_r], [I_c, 0]]: a step on its first r rows acts on
    # m and U together, and a step on its first c columns on m and V together.
    a = [[*row, *(int(i == j) for j in range(r))] for i, row in enumerate(m)]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]

    def row_sub(i, k, q):
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]

    def col_sub(j, k, q):
        if q == 0:
            return
        for row in a:
            row[j] -= q * row[k]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]

    for k in range(min(r, c)):
        # Smallest-absolute-value pivot in the trailing block, row-major ties.
        pivot = min(((abs(a[i][j]), i, j) for i in range(k, r) for j in range(k, c)
                     if a[i][j]), default=None)
        if pivot is None:
            break
        a[k], a[pivot[1]] = a[pivot[1]], a[k]
        swap_cols(k, pivot[2])

        while True:
            dirty = False
            for i in range(k + 1, r):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_sub(i, k, q)
                    if a[i][k] != 0:
                        # Remainder is strictly smaller; promote it to pivot.
                        a[i], a[k] = a[k], a[i]
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, c):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_sub(j, k, q)
                    if a[k][j] != 0:
                        swap_cols(j, k)
                        dirty = True
            if dirty:
                continue
            # Divisibility: the pivot must divide the trailing block.
            offender = next((i for i in range(k + 1, r) for j in range(k + 1, c)
                             if a[i][j] % a[k][k]), None)
            if offender is None:
                break
            row_sub(k, offender, -1)

        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]

    return (tuple(a[i][i] for i in range(min(r, c))), [tuple(row[c:]) for row in a[:r]],
            [tuple(row[:c]) for row in a[r:]])


def solve(m: Sequence[Sequence[int]],
          rhs: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], int]:
    """m·X = B by Cramer's rule, for the rows ``m`` of a square matrix and
    the rows ``rhs`` of B (any one width): the integer pair (rows of
    adj(m)·B, det m) from one elimination of [m | B].  The solution is
    X = adj(m)·B / det m."""
    n = len(m)
    if _width(m) != n or len(rhs) != n:
        raise ValueError("shape mismatch")
    _width(rhs)  # refuses ragged rows of B too
    found, d, rows = _bareiss([(*row, *b) for row, b in zip(m, rhs)], n)
    if found < n:
        raise ValueError("singular system")
    return [tuple(row[n:]) for row in rows], d


def leading_principal_minors(m: Sequence[Sequence[int]]) -> list[int]:
    """det of the top-left k x k blocks, k = 1..n (Sylvester's criterion)."""
    return [det([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]


class ComponentGroup(namedtuple("ComponentGroup", "divisors")):
    """Finite abelian group ⊕ Z/d_i with d_1 | d_2 | ... | d_t, all d_i > 1."""

    __slots__ = ()

    def __new__(cls, divisors: Iterable[int]):
        ds = tuple(int(d) for d in divisors)
        if any(d < 2 for d in ds):
            raise ValueError("divisors must be > 1 (trivial factors are dropped)")
        for a, b in zip(ds, ds[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        return super().__new__(cls, ds)

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def __repr__(self) -> str:
        if not self.divisors:
            return "ComponentGroup(trivial)"
        return "ComponentGroup(" + " x ".join(f"Z/{d}" for d in self.divisors) + ")"


def component_group(b: IntMatrix) -> ComponentGroup:
    """Component group of the Neron model: coker(Y -> X^v), y -> b(y,-).

    The map's matrix (columns = images of the Y basis) is b^T; its cokernel
    is Z^t modulo the lattice spanned by the rows of b.  Its elementary
    divisors are those of b, since U·b·V = D gives V^T·b^T·U^T = D.
    """
    if b.rows != b.cols:
        raise ValueError("pairing matrix must be square")
    divisors, _, _ = smith_normal_form(b.entries)
    if 0 in divisors:
        raise SingularPairing("pairing has determinant 0; Y -> X^v is not injective")
    return ComponentGroup(tuple(x for x in divisors if x != 1))


def two_torsion_order(group: ComponentGroup) -> int:
    """#Phi[2] = prod gcd(d_i, 2); equals 2^t when every divisor is even."""
    return math.prod(math.gcd(d, 2) for d in group.divisors)

