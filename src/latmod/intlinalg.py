"""Exact integer linear algebra: matrices, Smith normal form, saturated kernels.

Everything here runs over arbitrary-precision integers.  The Smith normal
form comes with full unimodular witnesses ``U * A * V == D`` so that every
downstream torsion-freeness verdict can be replayed from the returned data.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Sequence, Set, Tuple


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(int(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Tuple[int, ...]) -> "IntMatrix":
        """Wrap a tuple of ``rows * cols`` Python ints built in this module,
        without the per-entry conversion and checks of ``__init__``."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        return self

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: List[int] = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return cls._of(rows, cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._of(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._of(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, rc: Tuple[int, int]) -> int:
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Tuple[int, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        flat: List[int] = []
        for j in range(self.cols):
            flat.extend(self.col(j))
        return IntMatrix._of(self.cols, self.rows, tuple(flat))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        oc = other.cols
        # Only the nonzeros of both factors are visited.
        orows = [
            [(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)
        ]
        out: List[int] = []
        for i in range(self.rows):
            acc = [0] * oc
            for a, orow in zip(self.row(i), orows):
                if a:
                    for j, b in orow:
                        acc[j] += a * b
            out.extend(acc)
        return IntMatrix._of(self.rows, oc, tuple(out))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``U * A * V == D`` with unimodular U, V.

    ``invariants`` lists the full diagonal of D (nonzero divisors first,
    then zeros), of length ``min(rows, cols)``.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariants: Tuple[int, ...]


def snf(A: IntMatrix) -> SnfResult:
    """Smith normal form with transformation witnesses.

    Sparse elimination: the working matrix is one ``{col: value}`` dict per
    active row plus, per column, the set of active rows that hold a nonzero
    there.  Each pivot is the active entry of least absolute value, ties
    broken by the Markowitz cost ``(row nnz - 1) * (col nnz - 1)``, so unit
    pivots with short rows and columns go first and fill stays low.  Row
    operations clear the pivot column; column operations then clear the
    pivot row, and once the column is clear they touch only the pivot row.
    A remainder restarts the pivot search, and a finished pivot that fails
    to divide the rest of the active block has an offending row folded
    into its own, which keeps the divisibility chain.

    Row operations are mirrored on the sparse rows of U and column
    operations on the sparse columns of V.  The dense U, D and V are built
    once at the end, with the pivot rows and columns moved to the front in
    pivot order, and ``U * A * V == D`` is checked exactly before returning.
    """
    rows, cols = A.rows, A.cols
    m: Dict[int, Dict[int, int]] = {}
    where: Dict[int, Set[int]] = {j: set() for j in range(cols)}
    for i in range(rows):
        m[i] = row = {j: v for j, v in enumerate(A.row(i)) if v}
        for j in row:
            where[j].add(i)
    U = {i: {i: 1} for i in range(rows)}  # sparse rows
    V = {j: {j: 1} for j in range(cols)}  # sparse columns

    def axpy(dst, src, c):
        # dst += c * src; c != 0, so a vanishing sum was already in dst
        for k, v in src.items():
            x = dst.get(k, 0) + c * v
            if x:
                dst[k] = x
            else:
                del dst[k]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        rd = m[dst]
        axpy(rd, m[src], c)
        for j in m[src]:
            if j in rd:
                where[j].add(dst)
            else:
                where[j].discard(dst)
        axpy(U[dst], U[src], c)

    def add_col(src, dst, c):
        # col[dst] += c * col[src]
        wd = where[dst]
        for i in where[src]:
            r = m[i]
            x = r.get(dst, 0) + c * r[src]
            if x:
                if dst not in r:
                    wd.add(i)
                r[dst] = x
            else:
                del r[dst]
                wd.discard(i)
        axpy(V[dst], V[src], c)

    def pick():
        best = None
        best_key = None
        for i, r in m.items():
            ri = len(r) - 1
            for j, v in r.items():
                key = (v if v > 0 else -v, ri * (len(where[j]) - 1))
                if best_key is None or key < best_key:
                    best, best_key = (i, j), key
                    if key == (1, 0):
                        return best
        return best

    pivots: List[Tuple[int, int, int]] = []
    pivot = pick()
    while pivot is not None:
        while True:
            r, c = pivot
            p = m[r][c]
            if p < 0:
                p = -p
                m[r] = {j: -v for j, v in m[r].items()}
                U[r] = {k: -v for k, v in U[r].items()}
            dirty = False
            # A quotient of 0 (an entry 0 < v < p, as a fold can leave in
            # the pivot row) is no operation; the entry stays and is dirty.
            for i in [i for i in where[c] if i != r]:
                q = m[i][c] // p
                if q:
                    add_row(r, i, -q)
                dirty = dirty or c in m[i]
            for j in [j for j in m[r] if j != c]:
                q = m[r][j] // p
                if q:
                    add_col(c, j, -q)
                dirty = dirty or j in m[r]
            if dirty:
                pivot = pick()
                continue
            # The pivot must divide the whole active block for the
            # divisibility chain; if it does not, fold an offender in.
            offender = None
            if p != 1:
                offender = next(
                    (i for i, row in m.items() if i != r and any(v % p for v in row.values())),
                    None,
                )
            if offender is None:
                break
            add_row(offender, r, 1)
        pivots.append((r, c, p))
        del m[r], where[c]
        pivot = pick()

    def dense(vecs, width):
        # one row per sparse vector
        flat = [0] * (len(vecs) * width)
        for t, vec in enumerate(vecs):
            for k, v in vec.items():
                flat[t * width + k] = v
        return IntMatrix._of(len(vecs), width, tuple(flat))

    # The rows and columns left in m and where are the non-pivot ones.
    diag = [{t: p} for t, (_, _, p) in enumerate(pivots)]
    result = SnfResult(
        U=dense([U[r] for r, _, _ in pivots] + [U[i] for i in m], rows),
        D=dense(diag + [{}] * (rows - len(pivots)), cols),
        V=dense([V[c] for _, c, _ in pivots] + [V[j] for j in where], cols).transpose(),
        invariants=tuple(p for _, _, p in pivots) + (0,) * (min(rows, cols) - len(pivots)),
    )
    if result.U * A * result.V != result.D:
        raise AssertionError("Smith normal form witness check failed: U * A * V != D")
    return result


def cokernel_invariants(A: IntMatrix) -> List[int]:
    """Elementary divisors of ``coker(A) = Z^rows / A Z^cols``.

    Unit and torsion invariants come first, then one ``0`` per free rank.
    The cokernel is torsion-free iff every nonzero invariant equals 1.
    """
    res = snf(A)
    nonzero = [d for d in res.invariants if d != 0]
    free_rank = A.rows - len(nonzero)
    return nonzero + [0] * free_rank


def saturated_kernel(A: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the right kernel ``{v : A v = 0}``.

    The kernel of an integer matrix is a saturated sublattice, and the
    basis read off the SNF witness V is a lattice basis: with
    ``U*A*V == D`` diagonal, the columns of V indexed by zero diagonal
    entries (and by columns beyond the diagonal) span the kernel.
    """
    res = snf(A)
    n = min(A.rows, A.cols)
    free_cols = [j for j in range(n) if res.invariants[j] == 0]
    free_cols += list(range(n, A.cols))
    basis: List[int] = []
    for j in free_cols:
        basis.extend(res.V.col(j))
    return IntMatrix._of(len(free_cols), A.cols, tuple(basis))


def solve_integer(A: IntMatrix, b: Sequence[int]) -> List[int] | None:
    """One integer solution x of ``A x = b``, or None if none exists."""
    if len(b) != A.rows:
        raise ValueError("length mismatch")
    res = snf(A)
    n = min(A.rows, A.cols)
    y = [0] * A.cols
    for i in range(A.rows):
        c = sum(map(mul, res.U.row(i), b))
        d = res.invariants[i] if i < n else 0
        if d == 0:
            if c != 0:
                return None
        else:
            if c % d != 0:
                return None
            y[i] = c // d
    return [sum(map(mul, res.V.row(i), y)) for i in range(A.cols)]


def row_stack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    if top.cols != bottom.cols and top.rows and bottom.rows:
        raise ValueError("column mismatch")
    cols = top.cols if top.rows else bottom.cols
    return IntMatrix._of(top.rows + bottom.rows, cols, top.entries + bottom.entries)


def lattice_membership(basis: IntMatrix, v: Sequence[int]) -> List[int] | None:
    """Coordinates of v in the row lattice of ``basis``, or None."""
    return solve_integer(basis.transpose(), list(v))
