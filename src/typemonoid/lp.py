"""Exact rational linear feasibility via phase-one simplex with Bland's rule.

Variables are implicitly nonnegative.  Constraints are equalities and
inequalities with Fraction coefficients; infeasibility comes with a Farkas
certificate that is re-checked by assertion before being returned, so no
floating point ever touches a verdict.

The kernel basis of a matrix (the conserved functionals of a congruence)
is computed by Gauss-Jordan elimination in Python ints; Fractions appear
only in the basis it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Row = Tuple[Tuple[Fraction, ...], Fraction]


@dataclass
class LPResult:
    feasible: bool
    point: Optional[Tuple[Fraction, ...]] = None
    farkas: Optional[Tuple[Fraction, ...]] = None  # one multiplier per row


def _as_fraction_row(coeffs: Sequence, rhs) -> Row:
    return tuple(Fraction(c) for c in coeffs), Fraction(rhs)


def exact_lp_feasible(
    n_vars: int,
    equalities: Sequence[Tuple[Sequence, object]] = (),
    ge_inequalities: Sequence[Tuple[Sequence, object]] = (),
) -> LPResult:
    """Feasibility of {x >= 0, Ax = b, Cx >= d} over the rationals.

    On success returns a rational point.  On failure returns Farkas
    multipliers y (one per constraint row, equalities first, then
    ge-rows) such that the aggregated constraint sum_i y_i * row_i has
    nonpositive coefficients on every variable but a positive right-hand
    side, which no x >= 0 can satisfy.  Signs: y is free on equalities
    and y >= 0 on ge-rows.  A row Ex <= f is the ge-row -Ex >= -f.
    """
    eq = [_as_fraction_row(c, r) for c, r in equalities]
    ge = [_as_fraction_row(c, r) for c, r in ge_inequalities]
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    n_slack = len(ge)
    # columns: x (n_vars) | slacks (n_slack); each ge row gets -slack
    for coeffs, b in eq:
        rows.append(list(coeffs) + [Fraction(0)] * n_slack)
        rhs.append(b)
    for slack_at, (coeffs, b) in enumerate(ge):
        row = list(coeffs) + [Fraction(0)] * n_slack
        row[n_vars + slack_at] = Fraction(-1)
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    n_total = n_vars + n_slack
    if m == 0:
        return LPResult(True, tuple(Fraction(0) for _ in range(n_vars)))
    # sign-normalize so b >= 0, remembering flips for the certificate
    flipped = []
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-c for c in rows[i]]
            rhs[i] = -rhs[i]
            flipped.append(True)
        else:
            flipped.append(False)

    # phase-one tableau: minimize the sum of one artificial per row
    width = n_total + m + 1
    tab = [rows[i] + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tab[i][n_total + i] = Fraction(1)
    basis = [n_total + i for i in range(m)]
    obj = [Fraction(0)] * width
    for i in range(m):  # objective row = -(sum of constraint rows) on non-art cols
        for j in range(width):
            obj[j] -= tab[i][j]
    for i in range(m):
        obj[n_total + i] = Fraction(0)

    def pivot(pr: int, pc: int) -> None:
        inv = Fraction(1) / tab[pr][pc]
        tab[pr] = [v * inv for v in tab[pr]]
        for r in range(m):
            if r != pr and tab[r][pc] != 0:
                coef = tab[r][pc]
                tab[r] = [a - coef * b for a, b in zip(tab[r], tab[pr])]
        coef = obj[pc]
        if coef != 0:
            for j in range(width):
                obj[j] -= coef * tab[pr][j]
        basis[pr] = pc

    while True:
        # Bland: smallest-index entering column with negative reduced cost
        enter = next(
            (j for j in range(n_total + m) if obj[j] < 0), None
        )
        if enter is None:
            break
        ratios = [
            (tab[r][width - 1] / tab[r][enter], basis[r], r)
            for r in range(m)
            if tab[r][enter] > 0
        ]
        if not ratios:
            break  # cannot happen in phase one; defensive
        _, _, leave = min(ratios)
        pivot(leave, enter)

    objective_value = -obj[width - 1]
    if objective_value == 0:
        # drive leftover artificials out of the basis where possible
        for r in range(m):
            if basis[r] >= n_total:
                pc = next(
                    (j for j in range(n_total) if tab[r][j] != 0), None
                )
                if pc is not None:
                    pivot(r, pc)
        x = [Fraction(0)] * n_total
        for r in range(m):
            if basis[r] < n_total:
                x[basis[r]] = tab[r][width - 1]
        point = tuple(x[:n_vars])
        for (coeffs, b) in eq:
            assert sum(c * v for c, v in zip(coeffs, point)) == b
        for (coeffs, b) in ge:
            assert sum(c * v for c, v in zip(coeffs, point)) >= b
        assert all(v >= 0 for v in point)
        return LPResult(True, point)

    # infeasible: read duals off the final objective row's artificial columns.
    # obj[art_i] = 1 - y_i with y the simplex multipliers of the
    # *sign-normalized* rows; un-flip to express the certificate in terms of
    # the input rows.
    y_norm = [Fraction(1) - obj[n_total + i] for i in range(m)]
    y = [(-v if flipped[i] else v) for i, v in enumerate(y_norm)]
    # audit the certificate exactly before returning it
    agg = [Fraction(0)] * n_vars
    agg_rhs = Fraction(0)
    all_rows = eq + ge
    for i, (coeffs, b) in enumerate(all_rows):
        for j in range(n_vars):
            agg[j] += y[i] * coeffs[j]
        agg_rhs += y[i] * b
    assert all(c <= 0 for c in agg), "farkas aggregation not nonpositive"
    assert agg_rhs > 0, "farkas rhs not positive"
    for i in range(len(eq), len(all_rows)):
        assert y[i] >= 0, "farkas sign on ge row"
    return LPResult(False, farkas=tuple(y))


def integer_scaling(row: Sequence) -> Tuple[List[int], int]:
    """(z, den): den is the lcm of the denominators of the row and
    z = den * row in integers.  An all-int row is taken as it is."""
    if all(type(c) is int for c in row):
        return list(row), 1
    fr = [c if type(c) is Fraction else Fraction(c) for c in row]
    den = math.lcm(*(c.denominator for c in fr))
    return [c.numerator * (den // c.denominator) for c in fr], den


def _cancel(row: List[int], pivot_row: List[int], c: int) -> List[int]:
    """p*row - q*pivot_row, with q/p the ratio at column c, divided by its gcd."""
    p, q = pivot_row[c], row[c]
    out = [p * a - q * b for a, b in zip(row, pivot_row)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def rational_kernel_basis(
    rows: Sequence[Sequence], n_cols: int
) -> List[Tuple[Fraction, ...]]:
    """Basis of {y : row . y = 0 for every row}, read off the reduced row
    echelon form: one vector per free column fc, with y[fc] = 1, zero on
    the other free columns.

    Gauss-Jordan runs fraction-free in integers, as in Bareiss 1968,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", but dividing by the gcd of the row: each row is scaled
    to integers (an all-int row is taken as it is), a row is cleared at a
    pivot column by p*row - q*pivot_row and divided by its gcd, and a row
    is dropped as soon as it is zero.  Fractions are built only for the
    output, each entry as -row[fc] / row[pc] of a pivot row.  The reduced
    row echelon form is unique for its row space, so the basis is the one
    that Gauss-Jordan over the rationals gives.
    """
    mat = [integer_scaling(r)[0] for r in rows if any(r)]
    pivots: List[Tuple[int, List[int]]] = []
    for c in range(n_cols):
        if not mat:
            break
        sel = next((i for i, row in enumerate(mat) if row[c]), None)
        if sel is None:
            continue
        prow = mat.pop(sel)
        rest = []
        for row in mat:
            if row[c]:
                row = _cancel(row, prow, c)
                if not any(row):
                    continue
            rest.append(row)
        mat = rest
        pivots = [(pc, _cancel(row, prow, c) if row[c] else row) for pc, row in pivots]
        pivots.append((c, prow))
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for fc in range(n_cols):
        if fc in pivot_cols:
            continue
        y = [Fraction(0)] * n_cols
        y[fc] = Fraction(1)
        for pc, row in pivots:
            y[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(y))
    return basis
