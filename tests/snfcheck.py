"""Integer-matrix checks shared by the tests: the Bareiss determinant and
the replay of a Smith normal form's witnesses."""


def det(M) -> int:
    """Determinant of the square IntMatrix M by fraction-free (Bareiss)
    elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    m = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_diagonal(M) -> bool:
    return all(M[i, j] == 0 for i in range(M.rows) for j in range(M.cols) if i != j)


def snf_holds(res, A) -> bool:
    """Whether the SnfResult res is a Smith normal form of A: U * A * V == D
    with U, V unimodular, D diagonal, and each invariant dividing the next."""
    if res.U * A * res.V != res.D:
        return False
    if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
        return False
    if not is_diagonal(res.D):
        return False
    inv = list(res.invariants)
    for a, b in zip(inv, inv[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True
