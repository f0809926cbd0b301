from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from typemonoid.lp import exact_lp_feasible, rational_kernel_basis

from kernel_oracle import fraction_kernel_basis


F = Fraction


class TestFeasible:
    def test_single_pinned_variable(self):
        res = exact_lp_feasible(1, equalities=[((1,), 1)])
        assert res.feasible
        assert res.point == (F(1),)

    def test_symmetry_forced_half(self):
        res = exact_lp_feasible(
            2, equalities=[((1, 1), 1), ((1, -1), 0)]
        )
        assert res.feasible
        assert res.point == (F(1, 2), F(1, 2))

    def test_infeasible_with_certificate(self):
        # x >= 1 and x <= 0, the second written as -x >= 0
        res = exact_lp_feasible(1, ge_inequalities=[((1,), 1), ((-1,), 0)])
        assert not res.feasible
        assert res.farkas is not None
        y_lo, y_hi = res.farkas
        assert y_lo >= 0 and y_hi >= 0
        # aggregated: (y_lo - y_hi) x >= y_lo * 1 + y_hi * 0 must be absurd
        assert y_lo - y_hi <= 0
        assert y_lo * 1 + y_hi * 0 > 0

    def test_inequalities_slack(self):
        res = exact_lp_feasible(
            2,
            ge_inequalities=[((1, 0), 2), ((-1, -1), -5)],  # x0 + x1 <= 5
        )
        assert res.feasible
        x = res.point
        assert x[0] >= 2 and x[0] + x[1] <= 5 and all(v >= 0 for v in x)

    def test_zero_variables_trivial(self):
        assert exact_lp_feasible(0).feasible

    def test_equality_negative_rhs(self):
        # x >= 0 cannot give a negative sum
        res = exact_lp_feasible(2, equalities=[((1, 1), -1)])
        assert not res.feasible


def fraction_strategy():
    return st.integers(-4, 4).map(F)


@st.composite
def random_system(draw):
    n = draw(st.integers(1, 4))
    n_eq = draw(st.integers(0, 3))
    n_ge = draw(st.integers(0, 3))
    n_le = draw(st.integers(0, 3))
    def rows(k):
        return [
            (
                [draw(fraction_strategy()) for _ in range(n)],
                draw(fraction_strategy()),
            )
            for _ in range(k)
        ]
    return n, rows(n_eq), rows(n_ge), rows(n_le)


class TestRandomSystems:
    @given(random_system())
    @settings(max_examples=120, deadline=None)
    def test_verdict_is_self_certifying(self, sys_):
        n, eq, ge, le = sys_
        # each row c.x <= b goes in as -c.x >= -b
        res = exact_lp_feasible(n, eq, ge + [([-c for c in cs], -b) for cs, b in le])
        if res.feasible:
            x = res.point
            assert all(v >= 0 for v in x)
            for coeffs, b in eq:
                assert sum(c * v for c, v in zip(coeffs, x)) == b
            for coeffs, b in ge:
                assert sum(c * v for c, v in zip(coeffs, x)) >= b
            for coeffs, b in le:
                assert sum(c * v for c, v in zip(coeffs, x)) <= b
        else:
            y = res.farkas
            assert y is not None
            rows = list(eq) + list(ge) + [([-c for c in cs], -b) for cs, b in le]
            assert len(y) == len(rows)
            for yi in y[len(eq):]:
                assert yi >= 0
            agg = [F(0)] * n
            agg_rhs = F(0)
            for yi, (coeffs, b) in zip(y, rows):
                for j, c in enumerate(coeffs):
                    agg[j] += yi * F(c)
                agg_rhs += yi * F(b)
            assert all(a <= 0 for a in agg)
            assert agg_rhs > 0


class TestKernelBasis:
    def test_simple_kernel(self):
        basis = rational_kernel_basis([(F(1), F(-1))], 2)
        assert len(basis) == 1
        y = basis[0]
        assert y[0] == y[1] != 0

    def test_full_kernel_when_no_rows(self):
        basis = rational_kernel_basis([], 3)
        assert len(basis) == 3

    def test_zero_kernel(self):
        rows = [(F(1), F(0)), (F(0), F(1))]
        assert rational_kernel_basis(rows, 2) == []

    @given(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * 3).map(
                lambda t: tuple(F(v) for v in t)
            ),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_basis_vectors_annihilate(self, rows):
        basis = rational_kernel_basis(rows, 3)
        for y in basis:
            assert any(v != 0 for v in y)
            for row in rows:
                assert sum(a * b for a, b in zip(row, y)) == 0
        # dimension law: rank + nullity = 3
        rank = 3 - len(basis)
        assert 0 <= rank <= min(3, len(rows)) or not rows


@st.composite
def kernel_matrices(draw):
    """Rows over n_cols in 0..8, with zero rows, duplicate rows and rows
    that combine two others (so the matrix is rank-deficient), as ints
    or as Fractions with mixed denominators."""
    n = draw(st.integers(0, 8))
    entry = st.integers(-4, 4)
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(base) - 1))
            j = draw(st.integers(0, len(base) - 1))
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
    rows += [[0] * n] * draw(st.integers(0, 2))
    if rows:
        rows += [rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        return [tuple(F(x, draw(st.integers(1, 6))) for x in r) for r in rows], n
    return [tuple(r) for r in rows], n


class TestIntegerKernelAgainstFractionOracle:
    @given(kernel_matrices())
    @settings(max_examples=400, deadline=None)
    def test_same_basis_as_fraction_gauss_jordan(self, matrix):
        rows, n = matrix
        assert rational_kernel_basis(rows, n) == fraction_kernel_basis(rows, n)

    def test_edge_shapes(self):
        cases = [
            ([], 0),
            ([()], 0),
            ([(0, 0, 0)], 3),
            ([(2, 4), (1, 2), (1, 2)], 2),
            ([(0, 3, -6), (0, 0, 0), (0, -1, 2)], 3),
            ([(F(1, 2), F(1, 3)), (3, 2)], 2),
        ]
        for rows, n in cases:
            assert rational_kernel_basis(rows, n) == fraction_kernel_basis(rows, n)
        assert rational_kernel_basis([(F(1, 2), F(1, 3)), (3, 2)], 2) == [(F(-2, 3), F(1))]

    def test_output_entries_are_fractions(self):
        basis = rational_kernel_basis([(2, -4, 0, 6), (1, -2, 1, 0)], 4)
        assert basis and all(type(c) is F for y in basis for c in y)
