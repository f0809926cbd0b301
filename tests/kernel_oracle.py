"""Reference kernel basis: Gauss-Jordan elimination over the rationals.

The oracle for the integer elimination of `lp.rational_kernel_basis`.
A reduced row echelon form is unique for its row space, so the two must
return the same basis, vector for vector.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple


def fraction_kernel_basis(
    rows: Sequence[Sequence], n_cols: int
) -> List[Tuple[Fraction, ...]]:
    """Basis of {y : row . y = 0 for every row}, by Gaussian elimination."""
    mat = [list(map(Fraction, r)) for r in rows if any(r)]
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                coef = mat[i][c]
                mat[i] = [a - coef * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        y = [Fraction(0)] * n_cols
        y[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            y[pc] = -mat[i][fc]
        basis.append(tuple(y))
    return basis
