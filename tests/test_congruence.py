import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typemonoid import congruence
from typemonoid.congruence import (
    EQUAL,
    LEQ,
    NOT_EQUAL,
    NOT_LEQ,
    UNKNOWN,
    Budget,
    Congruence,
    ExtVec,
    _primitive,
    indicator,
    unit_vec,
    vec_add,
    vec_geq,
    zero_vec,
)
from typemonoid.corpus import collapse_space, fixture_spaces, random_corpus, statspace_from_maps
from typemonoid.errors import SpaceMismatchError
from typemonoid.lp import exact_lp_feasible, rational_kernel_basis
from typemonoid.serial import report_to_json, space_from_dict
from typemonoid.types import AuditEntry, TypeEngine

from kernel_oracle import fraction_kernel_basis
from oracle_kb import CongruenceOracle, oracle_for_space, relations_from_space

# e0 absorbs e1 and e1 absorbs 2e0: the completed rules e0 + e1 -> e0,
# 2e0 -> e1 and 2e1 -> e1 take four additions, two past the relations
ABSORB = [((1, 0), (1, 1)), ((0, 1), (2, 1))]


def parity_congruence() -> Congruence:
    # four singleton atoms; symmetries swap 0<->2 and 1<->3
    return Congruence(
        4,
        [
            ((1, 0, 0, 0), (0, 0, 1, 0)),
            ((0, 0, 1, 0), (1, 0, 0, 0)),
            ((0, 1, 0, 0), (0, 0, 0, 1)),
            ((0, 0, 0, 1), (0, 1, 0, 0)),
        ],
    )


def collapse_congruence() -> Congruence:
    return Congruence(2, [((1, 0), (1, 1)), ((0, 1), (0, 0))])


def in_span(y, basis):
    """Membership of y in the rational span of basis vectors."""
    from typemonoid.lp import rational_kernel_basis

    # y in span(B) iff y is orthogonal to the kernel of B^T ... simpler:
    # solve by Gaussian elimination on the augmented system.
    rows = [list(b) for b in basis]
    n = len(y)
    target = [Fraction(v) for v in y]
    # reduce rows to echelon form while carrying the target
    pivots = []
    work = [list(map(Fraction, r)) for r in rows]
    col = 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [v / work[r][col] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    # eliminate target
    for i, col in enumerate(pivots):
        if target[col] != 0:
            f = target[col]
            target = [a - f * b for a, b in zip(target, work[i])]
    return all(v == 0 for v in target)


class TestConservedBasis:
    def test_parity_kernel(self):
        cong = parity_congruence()
        basis = cong.conserved_basis()
        assert len(basis) == 2
        assert in_span((1, 0, 1, 0), basis)
        assert in_span((0, 1, 0, 1), basis)
        assert not in_span((1, 1, 0, 0), basis)

    def test_collapse_kernel(self):
        basis = collapse_congruence().conserved_basis()
        assert len(basis) == 1
        assert in_span((1, 0), basis)

    def test_no_relations_full_kernel(self):
        assert len(Congruence(3, []).conserved_basis()) == 3

    def test_basis_of_distinct_differences_equals_raw_rows(self):
        # a reduced row echelon form is unique for its row space, so the
        # deduplicated matrix gives the basis of the raw, duplicated rows
        for ss in fixture_spaces().values():
            cong = TypeEngine(ss).congruence
            raw = [tuple(Fraction(a - b) for a, b in zip(l, r)) for l, r in cong.relations]
            assert cong.conserved_basis() == rational_kernel_basis(raw, cong.n)

    def test_basis_equals_fraction_oracle(self):
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        for ss in spaces:
            cong = TypeEngine(ss).congruence
            assert cong.conserved_basis() == fraction_kernel_basis(cong.differences(), cong.n)

    def test_kernel_counters(self):
        cong = TypeEngine(collapse_space()).congruence
        assert (cong.stats["kernel_rows"], cong.stats["kernel_rank"]) == (0, 0)
        cong.conserved_basis()
        cong.conserved_basis()
        assert (cong.stats["kernel_rows"], cong.stats["kernel_rank"]) == (2, 1)
        # the 8-cycle: one generator, so one row e_a - e_(a-1) per atom,
        # conserved only by the total
        cyclic8 = statspace_from_maps(
            points=[str(i) for i in range(8)],
            atoms=[[i] for i in range(8)],
            generators=[tuple((i + 1) % 8 for i in range(8))],
        )
        cong = TypeEngine(cyclic8).congruence
        assert len(cong.conserved_basis()) == 1
        assert (cong.stats["kernel_rows"], cong.stats["kernel_rank"]) == (8, 7)


class TestIntegerFunctionalCheck:
    def test_matrix_is_the_distinct_nonzero_differences(self):
        congs = _differential_congruences() + [parity_congruence(), Congruence(3, [])]
        for cong in congs:
            diffs = cong.differences()
            raw = {tuple(a - b for a, b in zip(l, r)) for l, r in cong.relations}
            assert set(diffs) == raw - {zero_vec(cong.n)}
            assert list(diffs) == sorted(set(diffs))
        # duplicated and identity relations add no row
        dup = Congruence(3, [((1, 0, 0), (0, 1, 0))] * 3 + [((0, 0, 1), (0, 0, 1))])
        assert dup.differences() == ((1, -1, 0),)

    def test_accepts_mixed_denominators_and_int_rays(self):
        cong = parity_congruence()
        cong._assert_functional((Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(2, 3)))
        cong._assert_functional(
            (Fraction(-1, 6), Fraction(5, 4), Fraction(-1, 6), Fraction(5, 4))
        )
        cong._assert_functional((1, 0, 1, 0), nonneg=True)
        cong._assert_functional((Fraction(3, 7), 0, Fraction(3, 7), 0), nonneg=True)
        with pytest.raises(AssertionError, match="not nonnegative"):
            cong._assert_functional((Fraction(-1, 6), 0, Fraction(-1, 6), 0), nonneg=True)

    def test_rejects_a_functional_missing_one_difference(self):
        dup = Congruence(
            3,
            [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0))],
        )
        dup._assert_functional((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(AssertionError, match="annihilate"):
            dup._assert_functional((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(AssertionError, match="wrong length"):
            dup._assert_functional((1, 1))
        # on every space: a y in the kernel of every distinct difference
        # but d (and -d) is refused
        refused = 0
        for cong in _differential_congruences():
            diffs = cong.differences()
            for d in diffs:
                rest = [
                    tuple(map(Fraction, e)) for e in diffs if _primitive(e) != _primitive(d)
                ]
                for b in rational_kernel_basis(rest, cong.n):
                    if sum(x * c for x, c in zip(b, d)) != 0:
                        y = tuple(c / 3 for c in b)
                        assert all(sum(x * c for x, c in zip(y, e)) == 0 for e in rest)
                        with pytest.raises(AssertionError, match="annihilate"):
                            cong._assert_functional(y)
                        refused += 1
                        break
        assert refused > 0

    def test_tampered_witness_fails_audit(self):
        eng = TypeEngine(fixture_spaces()["parity"])
        d = eng.decide_equal((1, 0, 0, 0), (0, 1, 0, 0))
        assert d.witness["kind"] == "functional"
        eng.audit_decisions()
        y = d.witness["y"]
        d.witness["y"] = (y[0] + Fraction(1, 3),) + tuple(y[1:])
        with pytest.raises(AssertionError, match="annihilate"):
            eng.audit_decisions()
        d.witness["y"] = y
        eng.audit_decisions()
        o = eng.decide_leq((1, 0, 0, 0), (0, 1, 0, 0))
        assert o.witness["kind"] == "functional" and o.witness["nonnegative"]
        o.witness["y"] = tuple(-c for c in o.witness["y"])
        with pytest.raises(AssertionError, match="not nonnegative"):
            eng.audit_decisions()

    def test_audit_does_not_trust_the_functional_memo(self):
        # e0 <= e1 and e2 <= e3 are refuted by the same (ray, value): the
        # even ray (1, 0, 1, 0) over 1, built once and shared
        eng = TypeEngine(fixture_spaces()["parity"])
        first = eng.decide_leq((1, 0, 0, 0), (0, 1, 0, 0))
        second = eng.decide_leq((0, 0, 1, 0), (0, 0, 0, 1))
        assert first.witness["y"] is second.witness["y"]
        built = eng.congruence.stats["functionals_built"]
        assert built == 1
        eng.audit_decisions()
        # a nonnegative y that moves mass across the swap e0 ~ e2
        first.witness["y"] = (1, 0, 0, 0)
        with pytest.raises(AssertionError, match="annihilate"):
            eng.audit_decisions()
        # the audit builds no functional and reads none from the memo
        assert eng.congruence.stats["functionals_built"] == built

    def test_zero_functional_fails_audit(self):
        # the zero vector annihilates every relation and is nonnegative,
        # so only the separation check can refuse it
        eng = TypeEngine(fixture_spaces()["parity"])
        d = eng.decide_equal((1, 0, 0, 0), (0, 1, 0, 0))
        o = eng.decide_leq((1, 0, 0, 0), (0, 1, 0, 0))
        assert d.witness["kind"] == o.witness["kind"] == "functional"
        eng.audit_decisions()
        for w in (d.witness, o.witness):
            y = w["y"]
            w["y"] = tuple(Fraction(0) for _ in y)
            with pytest.raises(AssertionError, match="does not separate"):
                eng.audit_decisions()
            w["y"] = y
        eng.audit_decisions()
        sep = d.witness["separation"]
        d.witness["separation"] = sep + 1
        with pytest.raises(AssertionError, match="separation does not match"):
            eng.audit_decisions()


class TestEqFinite:
    def test_syntactic(self):
        cong = parity_congruence()
        d = cong.eq_finite((1, 2, 0, 0), (1, 2, 0, 0))
        assert d.verdict == EQUAL
        assert d.witness == {"kind": "path", "start": (1, 2, 0, 0), "end": (1, 2, 0, 0), "steps": []}

    def test_parity_one_move(self):
        cong = parity_congruence()
        d = cong.eq_finite((1, 0, 0, 0), (0, 0, 1, 0))
        assert d.verdict == EQUAL
        assert d.witness["kind"] == "path"
        assert len(d.witness["steps"]) == 1

    def test_parity_not_equal(self):
        cong = parity_congruence()
        d = cong.eq_finite((1, 0, 0, 0), (0, 1, 0, 0))
        assert d.verdict == NOT_EQUAL
        assert d.witness["kind"] == "functional"

    def test_functional_witness_is_first_separating_oracle_vector(self):
        separated = fractional = 0
        # two copies of atom 0 make one of atom 1: the basis is (1/2, 1)
        congs = _differential_congruences() + [Congruence(2, [((2, 0), (0, 1))])]
        for cong in congs:
            oracle = fraction_kernel_basis(cong.differences(), cong.n)
            vecs = list(itertools.product(range(3), repeat=cong.n))
            for u, v in itertools.product(vecs, repeat=2):
                d = cong.eq_finite(u, v)
                if d.witness["kind"] != "functional":
                    continue
                separated += 1
                diff = [a - b for a, b in zip(u, v)]
                y = next(y for y in oracle if sum(a * b for a, b in zip(y, diff)) != 0)
                assert d.witness["y"] == y
                sep = d.witness["separation"]
                assert type(sep) is Fraction and sep == sum(a * b for a, b in zip(y, diff))
                fractional += sep.denominator > 1
        assert separated > 0 and fractional > 0

    def test_collapse_null_atom(self):
        cong = collapse_congruence()
        d = cong.eq_finite((0, 1), (0, 0))
        assert d.verdict == EQUAL

    def test_path_replays(self):
        cong = parity_congruence()
        d = cong.eq_finite((2, 1, 0, 0), (0, 1, 2, 0))
        assert d.verdict == EQUAL
        assert cong.replay_path((2, 1, 0, 0), d.witness["steps"]) == (0, 1, 2, 0)

    def test_saturation_negative(self):
        # single atom, no relations: distinct vectors have singleton classes
        cong = Congruence(1, [])
        d = cong.eq_finite((1,), (2,))
        assert d.verdict == NOT_EQUAL

    def test_honest_unknown(self):
        # the only rational conserved functional of ABSORB is zero and
        # classes are infinite; the completion needs two rules past its
        # two relations, and one may be added
        cong = Congruence(2, ABSORB, Budget(max_rules=1))
        d = cong.eq_finite((1, 0), (2, 0))
        assert d.verdict == UNKNOWN
        assert d.witness == {"kind": "budget", "max_rules": 1, "exhausted": ["max_rules"]}
        assert cong.stats["exhausted_max_rules"] == 1

    def test_unknown_names_max_rules_alone(self):
        # no rule may be added past the relations: the verdict and its
        # JSON form name max_rules, the only budget of a finite decision
        cong = Congruence(2, ABSORB, Budget(max_rules=0))
        for d in (cong.eq_finite((1, 0), (2, 0)), cong.leq_finite((1, 0), (0, 0))):
            assert d.verdict == UNKNOWN
            assert d.witness["exhausted"] == ["max_rules"]
            assert d.to_json()["witness"]["exhausted"] == ["max_rules"]
        assert cong.stats["exhausted_max_rules"] == 2

    def test_normal_forms_refute_what_no_functional_does(self):
        # the invariant of the x -> 2x congruence (mass mod 3) is invisible
        # to the linear probes; under the completed rules 2e0 -> e1 and
        # 2e1 -> e0 the normal forms of e0 and 2e0 are e0 and e1
        cong = Congruence(2, [((1, 0), (0, 2)), ((0, 1), (2, 0))])
        d = cong.eq_finite((1, 0), (2, 0))
        assert d.verdict == NOT_EQUAL
        assert d.witness == {
            "kind": "normal_form", "left": (1, 0), "right": (0, 1),
            "path_left": [], "path_right": [(1, -1)],
        }
        assert [r[:2] for r in cong._rules] == [((2, 0), (0, 1)), ((0, 2), (1, 0))]
        cong._assert_complete()
        cong._assert_normal_form(False, d.witness)
        # e1 <= 0 fails: the ideal of e1 has the minimal monomials e1 and
        # e0 (from 2e1 -> e0), and 0 lies above neither
        d = cong.leq_finite((0, 1), (0, 0))
        assert d.verdict == NOT_LEQ
        assert d.witness["monomials"] == [(0, 1), (1, 0)]
        cong._assert_normal_form(True, d.witness)

    def test_path_is_loop_free(self):
        # the normal forms of both sides are joined and every loop of the
        # walk is cut out: no vector is visited twice
        cong = Congruence(2, [((2, 1), (0, 2)), ((1, 2), (0, 1)), ((1, 0), (1, 2))])
        u, v = (2, 3), (1, 3)
        d = cong.eq_finite(u, v)
        assert d.verdict == EQUAL
        assert d.witness["kind"] == "path"
        assert (d.witness["start"], d.witness["end"]) == (u, v)
        assert cong.replay_path(u, d.witness["steps"]) == v
        walk = [u]
        for step in d.witness["steps"]:
            walk.append(cong.replay_path(walk[-1], [step]))
        assert len(set(walk)) == len(walk)


class TestLeqFinite:
    def test_zero_bottom(self):
        cong = parity_congruence()
        d = cong.decide_leq(ExtVec.from_vec((0, 0, 0, 0)), ExtVec.from_vec((0, 1, 0, 2)))
        assert d.verdict == LEQ

    def test_subset_domination(self):
        cong = parity_congruence()
        d = cong.leq_finite((1, 0, 0, 0), (1, 1, 0, 0))
        assert d.verdict == LEQ
        assert d.witness["gamma"] == (0, 1, 0, 0)

    def test_parity_not_leq(self):
        cong = parity_congruence()
        d = cong.leq_finite((1, 0, 1, 0), (1, 0, 0, 0))
        assert d.verdict == NOT_LEQ
        assert d.witness["kind"] == "functional"
        y = d.witness["y"]
        assert all(c >= 0 for c in y)

    def test_domination_through_moves(self):
        # [{2}] <= [{0,1}] needs the move 2 -> 0 before domination shows
        cong = parity_congruence()
        d = cong.leq_finite((0, 0, 1, 0), (1, 1, 0, 0))
        assert d.verdict == LEQ

    def test_collapse_null_leq(self):
        cong = collapse_congruence()
        d = cong.leq_finite((0, 3), (0, 0))
        assert d.verdict == LEQ


class TestOmega:
    def test_normalize_finite_identity(self):
        cong = parity_congruence()
        v = ExtVec.from_vec((1, 2, 0, 0))
        assert cong.normalize(v) == v

    def test_parity_closure_even(self):
        cong = parity_congruence()
        out = cong.normalize(ExtVec((0, 0, 0, 0), frozenset({0})))
        assert out.omega == frozenset({0, 2})

    def test_collapse_null_joins_support(self):
        cong = collapse_congruence()
        out = cong.normalize(ExtVec((0, 0), frozenset({0})))
        assert out.omega == frozenset({0, 1})

    def test_omega_absorbs_even_not_odd(self):
        cong = parity_congruence()
        e_even = ExtVec((0, 0, 0, 0), frozenset({0}))
        plus_even = ExtVec((0, 0, 4, 0), frozenset({0}))
        plus_odd = ExtVec((0, 1, 0, 0), frozenset({0}))
        assert cong.decide_eq(e_even, plus_even).verdict == EQUAL
        d = cong.decide_eq(e_even, plus_odd)
        assert d.verdict == NOT_EQUAL
        assert d.witness["kind"] == "functional"

    def test_omega_null_support_equals_zero(self):
        cong = collapse_congruence()
        d = cong.decide_eq(ExtVec((0, 0), frozenset({1})), ExtVec.from_vec((0, 0)))
        assert d.verdict == EQUAL

    def test_top_vs_even_order(self):
        cong = parity_congruence()
        top = ExtVec((0, 0, 0, 0), frozenset({0, 1, 2, 3}))
        e_even = ExtVec((0, 0, 0, 0), frozenset({0}))
        assert cong.decide_leq(e_even, top).verdict == LEQ
        d = cong.decide_leq(top, e_even)
        assert d.verdict == NOT_LEQ
        assert d.witness["value_left"] == "inf"

    def test_finite_below_omega(self):
        cong = parity_congruence()
        e_even = ExtVec((0, 0, 0, 0), frozenset({0}))
        assert cong.decide_leq(ExtVec.from_vec((2, 0, 2, 0)), e_even).verdict == LEQ
        d = cong.decide_leq(ExtVec.from_vec((0, 1, 0, 0)), e_even)
        assert d.verdict == NOT_LEQ

    def test_support_closure_values(self):
        cong = parity_congruence()
        closed, cert = cong.support_closure(frozenset({0}))
        assert 2 in closed and 1 not in closed
        _replay_support_closure(cong, frozenset({0}), closed, cert)
        col = collapse_congruence()
        closed, cert = col.support_closure(frozenset())
        assert 1 in closed
        _replay_support_closure(col, frozenset(), closed, cert)

    def test_same_class_omega_vectors(self):
        cong = parity_congruence()
        p = ExtVec((3, 0, 0, 0), frozenset({1}))
        q = ExtVec((1, 0, 2, 0), frozenset({3}))
        d = cong.decide_eq(p, q)
        assert d.verdict == EQUAL
        assert d.witness["kind"] == "omega_equal"

    def test_dimension_mismatch(self):
        cong = parity_congruence()
        with pytest.raises(SpaceMismatchError):
            cong.decide_eq(ExtVec.from_vec((1, 0)), ExtVec.from_vec((1, 0, 0, 0)))

    def test_finite_mass_under_right_omega_is_absorbed(self):
        # m*[even] <= omega*[even] for every m
        cong = TypeEngine(fixture_spaces()["two_point"]).congruence
        d = cong.decide_leq(
            ExtVec((9, 0), frozenset({1})), ExtVec((0, 0), frozenset({0, 1}))
        )
        assert d.verdict == LEQ
        assert d.witness["kind"] == "omega_leq"
        assert d.witness["under_omega"] == {0: 9}

    def test_cyclic4_closed_supports_decide_at_absorption_k_zero(self):
        # the closed supports of cyclic4 are all or nothing, so q's three
        # omega atoms absorb its finite mass with no shift loop
        cong = TypeEngine(fixture_spaces()["cyclic4"]).congruence
        p = ExtVec((0, 0, 0, 0), frozenset({0, 1, 2, 3}))
        q = ExtVec((2, 0, 0, 0), frozenset({1, 2, 3}))
        assert cong.decide_eq(p, q).verdict == EQUAL
        assert cong.decide_leq(p, q).verdict == LEQ

    def test_omega_unknown_adds_inner_causes(self):
        budget = Budget(max_rules=1)
        cong = Congruence(3, [((l0, l1, 0), (r0, r1, 0)) for (l0, l1), (r0, r1) in ABSORB], budget)
        q = ExtVec((0, 0, 0), frozenset({2}))
        # U({2}) = {2}: atoms 0 and 1 lie outside it
        for p, outside in (
            (ExtVec((0, 0, 0), frozenset({0})), [0]),
            (ExtVec.from_vec((0, 1, 0)), [1]),
        ):
            d = cong.decide_leq(p, q)
            assert d.verdict == NOT_LEQ
            assert d.witness == {"kind": "support", "closed": frozenset({2}), "outside": outside}
        # [e1] = [e0] in the quotient by {2} is a finite eq that no
        # functional refutes, and the quotient's completion needs two rules
        # past its relations
        p, q = ExtVec((0, 1, 0), frozenset({2})), ExtVec((1, 0, 0), frozenset({2}))
        d = cong.decide_eq(p, q)
        assert d.verdict == UNKNOWN
        assert d.witness["exhausted"] == ["max_rules"]
        assert d.budget is budget
        assert d.to_json()["witness"]["exhausted"] == ["max_rules"]
        # completed, the quotient refutes, which is no refutation here
        full = Congruence(3, cong.relations)
        assert full.decide_eq(p, q).witness == {"kind": "budget", "omega": True, "exhausted": []}

    def test_absorption_past_absorption_k(self):
        # [e0] = [10 e1] is below no k*[e1] with k <= 8, yet e0 is in U({1})
        cong = Congruence(2, [((1, 0), (0, 10))])
        d = cong.decide_leq(ExtVec((0, 0), frozenset({0})), ExtVec((0, 0), frozenset({1})))
        assert d.verdict == LEQ

    def test_quotient_decides_what_no_shift_does(self):
        # e0 + k e1 and e2 + k e1 differ by 10 in the conserved e1 - 10 e2
        # for every k, but omega*e1 absorbs the 10 e1 of one step
        cong = Congruence(3, [((1, 0, 0), (0, 10, 1))])
        p = ExtVec((1, 0, 0), frozenset({1}))
        q = ExtVec((0, 0, 1), frozenset({1}))
        d = cong.decide_eq(p, q)
        assert d.verdict == EQUAL
        assert d.witness == {
            "kind": "omega_equal",
            "support": frozenset({1}),
            "finite": {"kind": "path", "start": (1, 0, 0), "end": (0, 10, 1), "steps": [(0, 1)]},
        }
        d = cong.decide_leq(p, q)
        assert d.verdict == LEQ and d.witness["kind"] == "omega_leq"
        _check_lifted(cong, "eq", p, q, cong.decide_eq(p, q))
        _check_lifted(cong, "leq", p, q, d)
        # no shift decides the equality; the order needs k = 10
        assert _shift_oracle(cong, "eq", p, q, k_max=64) == UNKNOWN
        assert _shift_oracle(cong, "leq", p, q) == UNKNOWN
        assert _shift_oracle(cong, "leq", p, q, k_max=10) == LEQ

    def test_quotient_refutation_is_unknown(self):
        # (1,1,0) is alone in its class of the quotient by {2}, which
        # refutes by normal forms; that is no refutation of the omega query
        cong = Congruence(3, [((1, 2, 2), (2, 2, 2))])
        d = cong.decide_eq(ExtVec((1, 1, 0), frozenset({2})), ExtVec((2, 1, 0), frozenset({2})))
        assert d.verdict == UNKNOWN
        assert d.witness["exhausted"] == []

    def test_support_refutes_what_no_functional_does(self):
        # no conserved functional is positive on atom 1, and atom 1 is
        # outside U({2}) = {2}; the quotient by {2} refutes
        # (0, 1, 0) = (0, 0, 0) too, but that is no refutation here
        cong = Congruence(3, [((1, 0, 0), (0, 2, 0)), ((0, 1, 0), (2, 0, 0))])
        d = cong.decide_eq(ExtVec((0, 1, 0), frozenset({2})), ExtVec((0, 0, 0), frozenset({2})))
        assert d.verdict == NOT_EQUAL
        assert d.witness == {"kind": "support", "closed": frozenset({2}), "outside": [1]}


def _replay_support_closure(cong, support, closed, cert):
    """Re-derive a support closure from its certificate, then check that
    the result is closed under every relation."""
    cur = set(support)
    for b, (idx, direction) in cert["added"].items():
        l, r = cong.relations[idx]
        given, forced = (l, r) if direction == 1 else (r, l)
        assert all(i in cur for i, c in enumerate(given) if c)
        assert forced[b] and b not in cur
        cur.add(b)
    assert cur == closed
    for l, r in cong.relations:
        assert all(i in cur for i, c in enumerate(l) if c) == all(
            i in cur for i, c in enumerate(r) if c
        )


ABSORPTION_K = 8


def _bounded_absorption_closure(cong, support):
    """Close a support by search: add b while [b] <= k*[closed] for some
    k <= ABSORPTION_K (k = 0 only when the support is empty), through
    leq_finite."""
    closed = set(support)
    changed = True
    while changed:
        changed = False
        for b in range(cong.n):
            if b in closed:
                continue
            chi = indicator(cong.n, closed)
            for k in range(ABSORPTION_K + 1 if closed else 1):
                if cong.leq_finite(unit_vec(cong.n, b), tuple(k * c for c in chi)).verdict == LEQ:
                    closed.add(b)
                    changed = True
                    break
    return frozenset(closed)


class TestSupportClosureOracle:
    def test_matches_bounded_absorption(self):
        spaces = list(fixture_spaces().values()) + [e.statspace for e in random_corpus(seed=5)]
        checked = 0
        for ss in spaces:
            cong = TypeEngine(ss).congruence
            for r in range(cong.n + 1):
                for combo in itertools.combinations(range(cong.n), r):
                    w = frozenset(combo)
                    closed, cert = cong.support_closure(w)
                    assert closed == _bounded_absorption_closure(cong, w), (ss, w)
                    _replay_support_closure(cong, w, closed, cert)
                    checked += 1
        assert checked > 500


def _shift_oracle(cong, op, p, q, k_max=ABSORPTION_K):
    """An omega eq or leq decided by searching over finite shifts.

    After the same refutations as the engine, p = q holds when
    pf + k*chi ~ qf + k*chi, with chi the union of the omega sets, and
    p <= q when pf <= qf + k*chi_V, for some k <= k_max; past that the
    answer is unknown.  Runs on a fresh copy of the congruence, under its
    budget."""
    cong = Congruence(cong.n, cong.relations, cong.budget)
    order = op == "leq"
    pn, qn = cong.normalize(p), cong.normalize(q)
    assert not (pn.is_finite() and qn.is_finite()), "not an omega query"
    if order and pn.is_zero():
        return LEQ
    if not order and pn == qn:
        return EQUAL
    sep = cong._saturating_separation(pn, qn, order)
    if sep is None:
        sep = cong._support_refutation(p, q, order)
    if sep is not None:
        return sep.verdict
    W, V = pn.omega, qn.omega
    if not order and cong.support_closure(W)[0] == cong.support_closure(V)[0]:
        chi = indicator(cong.n, W | V)
        for k in range(k_max + 1):
            shift = tuple(k * c for c in chi)
            if cong.eq_finite(vec_add(pn.finite, shift), vec_add(qn.finite, shift)).verdict == EQUAL:
                return EQUAL
    if order and pn.omega <= cong.support_closure(V)[0]:
        fin_p = tuple(0 if i in V else c for i, c in enumerate(pn.finite))
        chi = indicator(cong.n, V)
        for k in range(k_max + 1 if V else 1):
            shift = tuple(k * c for c in chi)
            if cong.leq_finite(fin_p, vec_add(qn.finite, shift)).verdict == LEQ:
                return LEQ
    return UNKNOWN


def _check_lifted(cong, op, p, q, d):
    """An omega witness names a closed support holding both omega sets,
    its paths replay against cong's own relations, and their ends match p
    and q off the support."""
    w = d.witness
    support, inner = w["support"], w["finite"]
    assert cong.support_closure(support)[0] == support
    assert p.omega | q.omega <= support

    def off(v):
        return tuple(0 if i in support else c for i, c in enumerate(v))

    if op == "eq":
        assert w["kind"] == "omega_equal"
        assert off(inner["start"]) == off(p.finite)
        assert off(inner["end"]) == off(q.finite)
        assert cong.replay_path(inner["start"], inner["steps"]) == inner["end"]
    else:
        assert w["kind"] == "omega_leq"
        assert off(inner["start"]) == off(q.finite)
        assert cong.replay_path(inner["start"], inner["path"]) == inner["w"]
        assert vec_add(off(p.finite), inner["gamma"]) == off(inner["w"])
        assert vec_geq(off(inner["w"]), off(p.finite))


def _random_omega_pair(rng, n):
    """Two extended vectors over n atoms, at least one with omega mass."""
    out = []
    for _ in range(2):
        omega = frozenset(i for i in range(n) if rng.random() < 0.3)
        out.append(ExtVec(tuple(0 if i in omega else rng.randint(0, 2) for i in range(n)), omega))
    if not (out[0].omega or out[1].omega):
        j = rng.randrange(n)
        out[0] = ExtVec(tuple(0 if i == j else c for i, c in enumerate(out[0].finite)), frozenset({j}))
    return out


class TestShiftOracle:
    """The quotient decision against the bounded search over shifts: every
    positive of the search is positive, no definite verdict contradicts
    it, and every lifted witness replays."""

    def _compare(self, cong, op, p, q, tally):
        d = (cong.decide_eq if op == "eq" else cong.decide_leq)(p, q)
        ref = _shift_oracle(cong, op, p, q)
        if ref != UNKNOWN:
            assert d.verdict == ref, (cong.relations, op, p, q)
        if d.verdict != UNKNOWN:
            assert ref in (d.verdict, UNKNOWN), (cong.relations, op, p, q)
        if d.witness["kind"] in ("omega_equal", "omega_leq"):
            _check_lifted(cong, op, p, q, d)
            tally[op] += 1
        return d

    def test_spaces(self):
        rng = random.Random(5)
        tally = {"eq": 0, "leq": 0}
        spaces = list(fixture_spaces().values()) + [e.statspace for e in random_corpus(seed=5)]
        for ss in spaces:
            eng = TypeEngine(ss)
            for _ in range(6):
                p, q = _random_omega_pair(rng, eng.n)
                for op in ("eq", "leq"):
                    d = self._compare(eng.congruence, op, p, q, tally)
                    eng.audit_log.append(AuditEntry(op, p, q, d))
            eng.audit_decisions()
        assert tally["eq"] > 0 and tally["leq"] > 0

    def test_random_congruences(self):
        rng = random.Random(7)
        tally = {"eq": 0, "leq": 0}
        for _ in range(60):
            n = rng.randint(2, 3)
            rels = [
                (tuple(rng.randint(0, 2) for _ in range(n)), tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            ]
            cong = Congruence(n, rels)
            for _ in range(8):
                p, q = _random_omega_pair(rng, n)
                for op in ("eq", "leq"):
                    self._compare(cong, op, p, q, tally)
        assert tally["eq"] > 0 and tally["leq"] > 0


def _one_sided_eq(cong, u, v, max_members=400):
    """Finite equality by the one-sided search: a conserved vector of the
    Fraction basis with y.u != y.v refutes; otherwise u's class is
    searched breadth first for v, then v's for u, and a saturated class
    that misses the other side refutes.  Unknown when neither class is
    saturated within max_members."""
    if u == v:
        return EQUAL
    if any(sum(a * (b - c) for a, b, c in zip(y, u, v)) for y in cong.conserved_basis()):
        return NOT_EQUAL
    for start, target in ((u, v), (v, u)):
        rec = cong.class_closure(start, max_members)
        if target in rec.members:
            return EQUAL
        if rec.saturated:
            return NOT_EQUAL
    return UNKNOWN


def _walk(cong, rng, u, steps):
    """The end of up to `steps` random applicable relation steps from u."""
    for _ in range(steps):
        moves = [
            (a, b)
            for l, r in cong.relations
            for a, b in ((l, r), (r, l))
            if vec_geq(u, a)
        ]
        if not moves:
            break
        a, b = rng.choice(moves)
        u = tuple(c - x + y for c, x, y in zip(u, a, b))
    return u


class TestOneSidedOracle:
    """Completion against the one-sided class search: every definite
    verdict of the search is reproduced, no decision is unknown, and
    every path replays (and, on spaces, passes the soundness audit)."""

    def _pairs(self, cong, rng):
        for _ in range(3):
            u = tuple(rng.randint(0, 2) for _ in range(cong.n))
            yield u, tuple(rng.randint(0, 2) for _ in range(cong.n))
            yield u, _walk(cong, rng, u, rng.randint(1, 6))

    def _compare(self, cong, oracle, u, v, tally):
        d = cong.eq_finite(u, v)
        ref = _one_sided_eq(oracle, u, v)
        assert d.verdict != UNKNOWN
        if ref != UNKNOWN:
            assert d.verdict == ref, (cong.relations, u, v)
        kind = (d.verdict, d.witness["kind"])
        tally[kind] = tally.get(kind, 0) + 1
        _check_witness(cong, u, v, d)
        return d

    def test_spaces(self):
        rng = random.Random(14)
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        tally = {}
        for ss in spaces:
            eng = TypeEngine(ss)
            oracle = Congruence(eng.n, eng.congruence.relations)
            for u, v in self._pairs(eng.congruence, rng):
                d = self._compare(eng.congruence, oracle, u, v, tally)
                eng.audit_log.append(AuditEntry("eq", ExtVec(u), ExtVec(v), d))
            eng.audit_decisions()
        assert tally[(EQUAL, "path")] > 100 and tally[(NOT_EQUAL, "functional")] > 100

    def test_random_congruences(self):
        rng = random.Random(7)
        tally = {}
        for cong in _random_family():
            oracle = Congruence(cong.n, cong.relations)
            for u, v in self._pairs(cong, rng):
                self._compare(cong, oracle, u, v, tally)
        assert tally.keys() >= {
            (EQUAL, "path"), (NOT_EQUAL, "functional"), (NOT_EQUAL, "normal_form"),
        }


def _lp_feasible(cong, p, zero):
    eqs = [(d, 0) for d in cong.differences()]
    eqs += [(unit_vec(cong.n, i), 0) for i in zero]
    return exact_lp_feasible(cong.n, equalities=eqs, ge_inequalities=[(p, 1)]).feasible


def _with_omega(finite, omega):
    return ExtVec(tuple(0 if i in omega else c for i, c in enumerate(finite)), frozenset(omega))


class TestConservedCone:
    def _fixture_congruence(self, name):
        return TypeEngine(fixture_spaces()[name]).congruence

    def test_known_cones(self):
        assert self._fixture_congruence("cyclic4").conserved_rays() == [(1, 1, 1, 1)]
        assert parity_congruence().conserved_rays() == [(1, 0, 1, 0), (0, 1, 0, 1)]
        assert self._fixture_congruence("parity").conserved_rays() == [
            (1, 0, 1, 0),
            (0, 1, 0, 1),
        ]
        # the null atom 1 carries no conserved mass
        assert collapse_congruence().conserved_rays() == [(1, 0)]
        assert self._fixture_congruence("collapse").conserved_rays() == [(1, 0)]
        assert Congruence(3, []).conserved_rays() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # the cuts also make (1, 1, 1, 1), which is the sum of the two rays
        cone = Congruence(4, [((0, 0, 1, 1), (1, 0, 1, 0)), ((1, 0, 1, 0), (0, 1, 0, 1))])
        assert cone.conserved_rays() == [(1, 0, 0, 1), (0, 1, 1, 0)]
        # x -> 2x both ways: only the zero functional is conserved
        assert Congruence(2, [((1, 0), (0, 2)), ((0, 1), (2, 0))]).conserved_rays() == []

    def test_rays_are_reduced_conserved_and_deterministic(self):
        congs = _differential_congruences()
        for cong in congs:
            rays = cong.conserved_rays()
            assert cong.stats["cone_rays"] == len(rays)
            for r in rays:
                assert all(isinstance(c, int) and c >= 0 for c in r)
                assert math.gcd(*r) == 1
                for d in cong.differences():
                    assert sum(a * b for a, b in zip(r, d)) == 0
            assert len(set(rays)) == len(rays)
            assert Congruence(cong.n, cong.relations).conserved_rays() == rays

    def test_feasibility_matches_simplex(self):
        rng = random.Random(23)
        congs = [TypeEngine(ss).congruence for ss in fixture_spaces().values()]
        congs += [
            TypeEngine(e.statspace).congruence
            for e in random_corpus(seed=5, count=12)
            if e.statspace.n_atoms <= 4
        ][:6]
        # random relations give larger cones than the spaces above
        for _ in range(12):
            n = rng.randint(3, 6)
            congs.append(
                Congruence(
                    n,
                    [
                        tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in "lr")
                        for _ in range(rng.randint(1, 3))
                    ],
                )
            )
        found = 0
        for cong in congs:
            n = cong.n
            for _ in range(25):
                p = tuple(rng.randint(-2, 2) for _ in range(n))
                zero = [i for i in range(n) if rng.random() < 0.3]
                f = cong._nonneg_conserved(p, zero)
                assert (f is not None) == _lp_feasible(cong, p, zero)
                if f is not None:
                    found += 1
                    y = f.y
                    cong._assert_functional(y, nonneg=True)
                    assert list(f.z) == [c * f.den for c in y]
                    assert all(isinstance(c, Fraction) for c in y)
                    assert sum(a * b for a, b in zip(y, p)) == 1
                    assert all(y[i] == 0 for i in zero)
            assert cong.stats["lp_fallbacks"] == 0
        assert found > 0

    def test_each_functional_is_built_once(self):
        cong = parity_congruence()
        # the same ray and value: the same checked functional, built once
        f = cong._nonneg_conserved((1, -1, 0, 0))
        assert f.y == (1, 0, 1, 0) and (f.z, f.den) == ((1, 0, 1, 0), 1)
        assert cong._nonneg_conserved((0, 0, 1, -1)) is f
        assert cong.stats["functionals_built"] == 1
        # the same ray at another value is another functional
        g = cong._nonneg_conserved((2, -1, 0, 0))
        assert g.y == (Fraction(1, 2), 0, Fraction(1, 2), 0) and (g.z, g.den) == ((1, 0, 1, 0), 2)
        assert cong.stats["functionals_built"] == 2
        # the kernel rows are built with the basis, and a refutation
        # hands one out without building another
        basis = cong.conserved_basis()
        assert cong.stats["functionals_built"] == 2 + len(basis)
        for u, v in (((1, 0, 0, 0), (0, 1, 0, 0)), ((2, 0, 0, 0), (0, 0, 0, 1))):
            d = cong.eq_finite(u, v)
            assert d.witness["kind"] == "functional"
            assert any(d.witness["y"] is y for y in basis)
        assert cong.stats["functionals_built"] == 2 + len(basis)

    def test_simplex_fallback_past_ray_limit(self, monkeypatch):
        rng = random.Random(31)
        spaces = list(fixture_spaces().values())
        rays_first = [TypeEngine(ss).congruence for ss in spaces]
        for cong in rays_first:
            assert cong.conserved_rays() is not None
        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        for ray_cong, ss in zip(rays_first, spaces):
            lp_cong = TypeEngine(ss).congruence
            assert lp_cong.conserved_rays() is None
            n = lp_cong.n
            for _ in range(15):
                u = tuple(rng.randint(0, 2) for _ in range(n))
                v = tuple(rng.randint(0, 2) for _ in range(n))
                assert (
                    lp_cong.leq_finite(u, v).verdict
                    == ray_cong.leq_finite(u, v).verdict
                )
                p, q = (
                    _with_omega(w, {i for i in range(n) if rng.random() < 0.3})
                    for w in (u, v)
                )
                for op in ("decide_eq", "decide_leq"):
                    assert (
                        getattr(lp_cong, op)(p, q).verdict
                        == getattr(ray_cong, op)(p, q).verdict
                    )
            assert lp_cong.stats["lp_fallbacks"] > 0
            assert lp_cong.stats["ray_separations"] == 0
            assert ray_cong.stats["lp_fallbacks"] == 0


class TestExtVec:
    def test_add_saturates(self):
        a = ExtVec((1, 0), frozenset({1}))
        b = ExtVec((2, 5), frozenset())
        s = a.add(b)
        assert s.finite == (3, 0)
        assert s.omega == frozenset({1})

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            ExtVec((1, 1), frozenset({1}))

    @pytest.mark.parametrize("omega", [{2}, {5}, {-1}, {1, 9}])
    def test_omega_out_of_range_rejected(self, omega):
        # the range is checked before the coordinate is read, so an index
        # past the end is a ValueError, not an IndexError
        with pytest.raises(ValueError, match="omega coordinate out of range"):
            ExtVec((1, 0), frozenset(omega))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            ExtVec((1, -1))

    def test_add_without_omega(self):
        assert ExtVec((1, 0, 2)).add(ExtVec((0, 3, 1))) == ExtVec((1, 3, 3))
        with pytest.raises(SpaceMismatchError):
            ExtVec((1, 0)).add(ExtVec((1, 0, 0)))

    def test_scale(self):
        v = ExtVec((2, 0), frozenset({1}))
        assert v.scale(3).finite == (6, 0)
        assert v.scale(0).is_zero()

    def test_equal_values_hash_equal(self):
        for forms in (
            [
                ExtVec((2, 0, 4)),
                ExtVec.from_vec([2, 0, 4]),
                ExtVec((1, 0, 1)).add(ExtVec((1, 0, 3))),
                ExtVec((1, 0, 2)).scale(2),
                dataclasses.replace(ExtVec((9, 9, 9)), finite=(2, 0, 4)),
            ],
            [
                ExtVec((2, 0, 0), frozenset({2})),
                ExtVec((1, 0, 0), frozenset({2})).add(ExtVec((1, 0, 5))),
                ExtVec((1, 0, 0), frozenset({2})).scale(2),
                dataclasses.replace(ExtVec((2, 0, 0)), omega=frozenset({2})),
            ],
        ):
            v = forms[0]
            assert hash(v) == hash((v.finite, v.omega))
            for w in forms[1:]:
                assert w == v and hash(w) == hash(v)
            assert len(set(forms)) == 1

    def test_stored_hash_is_no_field(self):
        v = ExtVec((2, 0, 0), frozenset({2}))
        assert dataclasses.asdict(v) == {"finite": (2, 0, 0), "omega": frozenset({2})}
        assert repr(v) == "ExtVec(finite=(2, 0, 0), omega=frozenset({2}))"
        assert json.loads(report_to_json({"value": v})) == {
            "value": {"finite": [2, 0, 0], "omega": [2]}
        }


class TestClassClosure:
    def test_memoized(self):
        cong = parity_congruence()
        a = cong.class_closure((1, 1, 0, 0))
        b = cong.class_closure((1, 1, 0, 0))
        assert a is b

    def test_class_contents(self):
        cong = parity_congruence()
        rec = cong.class_closure((1, 0, 0, 0))
        assert set(rec.members) == {(1, 0, 0, 0), (0, 0, 1, 0)}
        assert rec.saturated

    def test_max_members_cuts_the_search_off(self):
        # (1,) ~ (2,) puts every positive multiple of the atom in one class
        cong = Congruence(1, [((1,), (2,))])
        rec = cong.class_closure((1,), max_members=5)
        assert not rec.saturated
        assert list(rec.members) == [(1,), (2,), (3,), (4,), (5,)]

    def test_partial_record_is_not_saturated(self):
        cong = cyclic_congruence(3)
        rec = cong.class_closure((4, 0, 0), max_members=2)
        assert not rec.saturated and len(rec.members) < 15
        # no decision searches a class
        cong.eq_finite((4, 0, 0), (0, 0, 4))
        cong.leq_finite((0, 0, 4), (3, 1, 0))
        assert list(cong._closures) == [(4, 0, 0)]


def cyclic_congruence(n: int) -> Congruence:
    """Mass moves one atom along an n-cycle: a class is every vector of
    the same total."""
    return Congruence(n, [(unit_vec(n, i), unit_vec(n, (i + 1) % n)) for i in range(n)])


def _counters(cong):
    keys = ("rules_added", "critical_pairs", "monomials_added", "longest_path",
            "exhausted_max_rules")
    return {k: cong.stats[k] for k in keys}


class TestCompletionCounters:
    def test_collapse(self):
        cong = TypeEngine(collapse_space()).congruence
        for u in ((0, 3), (1, 2)):
            v = (u[0], 0)
            assert cong.eq_finite(u, v).verdict == EQUAL
            assert cong.leq_finite(u, v).verdict == LEQ
        # the null atom is the one rule: e1 -> 0
        assert cong._rules == [((0, 1), (0, 0), ((1, 1),))]
        assert _counters(cong) == {
            "rules_added": 1, "critical_pairs": 0, "monomials_added": 0,
            "longest_path": 3, "exhausted_max_rules": 0,
        }

    def test_critical_pairs_and_monomials(self):
        # the rules 2e1 -> e1 and 2e0 + e1 -> e1 overlap at 2e0 + 2e1; the
        # ideal of e0 + e1 gains e1, from 2e0 + e1 -> e1, and 3e1 is e1
        cong = Congruence(2, [((2, 2), (0, 1)), ((0, 1), (0, 2))])
        assert cong.eq_finite((2, 2), (0, 2)).verdict == EQUAL
        d = cong.leq_finite((1, 1), (0, 3))
        assert d.verdict == LEQ
        assert _counters(cong) == {
            "rules_added": 2, "critical_pairs": 1, "monomials_added": 1,
            "longest_path": 4, "exhausted_max_rules": 0,
        }

    def test_order_closure_has_its_own_cap(self):
        # 0 ~ 2e0 + e1: one rule completes the relation, and the ideal of
        # 2e1 needs two monomials before it reaches the zero vector
        rels = [((0, 0), (2, 1))]
        tight = Congruence(2, rels, Budget(max_rules=1))
        d = tight.leq_finite((0, 2), (0, 0))
        assert d.verdict == UNKNOWN and d.witness["exhausted"] == ["max_rules"]
        assert (tight.stats["rules_added"], tight.stats["exhausted_max_rules"]) == (1, 1)
        # the equality needs no monomial, and decides
        assert tight.eq_finite((0, 2), (0, 0)).verdict == NOT_EQUAL
        roomy = Congruence(2, rels, Budget(max_rules=2))
        d = roomy.leq_finite((0, 2), (0, 0))
        assert d.verdict == LEQ
        _check_witness(roomy, (0, 2), (0, 0), d)
        assert roomy.stats["monomials_added"] == 2

    def test_budget_grows_with_the_relations(self):
        # one generator swaps 2i <-> 2i + 1 on 204 points: 102 independent
        # moves, one rule each; a shuffled product of three 60-cycles: 180
        # moves and 177 rules, since a rule whose right side a later rule
        # reduces is reduced in place, not added again
        rng = random.Random(60)
        points = list(range(180))
        rng.shuffle(points)
        cycles = {}
        for k in range(0, 180, 60):
            block = points[k:k + 60]
            cycles.update({str(a): b for a, b in zip(block, block[1:] + block[:1])})
        for perm, added in (({str(i): i ^ 1 for i in range(204)}, 102), (cycles, 177)):
            n = len(perm)
            ss = space_from_dict({"points": [str(i) for i in range(n)],
                                  "atoms": [[i] for i in range(n)], "generators": [perm]})
            eng = TypeEngine(ss)
            orbit, b = {0}, perm["0"]
            while b not in orbit:
                orbit.add(b)
                b = perm[str(b)]
            far = min(set(range(n)) - orbit)
            d = eng.decide_equal(unit_vec(n, 0), unit_vec(n, perm["0"]))
            assert (d.verdict, d.witness["kind"]) == (EQUAL, "path")
            assert eng.decide_leq(unit_vec(n, 0), unit_vec(n, perm["0"])).verdict == LEQ
            assert eng.decide_equal(unit_vec(n, 0), unit_vec(n, far)).verdict == NOT_EQUAL
            assert _counters(eng.congruence)["rules_added"] == added > Budget().max_rules
            # the completed system is reduced: no right side is reducible
            rules = eng.congruence._rules
            assert not any(vec_geq(r.rhs, x.lhs) for r in rules for x in rules)
            assert sum(eng.audit_decisions().values()) == len(eng.audit_log) == 3

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Budget(max_rules=-1)

    def test_verdicts_do_not_depend_on_query_order(self):
        rels = [((0, 0), (2, 1))]
        queries = [((0, 2), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 0))]
        for budget in (Budget(max_rules=1), Budget()):
            first = [Congruence(2, rels, budget).leq_finite(u, v).verdict for u, v in queries]
            cong = Congruence(2, rels, budget)
            backwards = [cong.leq_finite(u, v).verdict for u, v in reversed(queries)]
            assert first == backwards[::-1]


class TestGoalDirectedClosure:
    """Decisions on cyclic_congruence(4) reduce their own pair to normal
    forms: they build no class, their witnesses are shorter than the class
    a breadth-first search would walk, and the relations are completed
    once, with the counters pinned."""

    def test_equal_stops_at_witness(self):
        full = cyclic_congruence(4).class_closure((6, 0, 0, 0))
        cong = cyclic_congruence(4)
        assert _counters(cong) == dict.fromkeys(_counters(cong), 0)
        u, v = (6, 0, 0, 0), (5, 1, 0, 0)
        d = cong.eq_finite(u, v)
        assert d.verdict == EQUAL and d.witness["kind"] == "path"
        assert cong.replay_path(u, d.witness["steps"]) == v
        assert len(d.witness["steps"]) < len(full.members)
        # three rules push mass to atom 3, with coprime left sides; the
        # common part 5e0 rides along, and e0, e1 walk to e3 in 1 and 2 steps
        assert [r.lhs for r in cong._rules] == [unit_vec(4, i) for i in (0, 2, 1)]
        assert d.witness["steps"] == [(3, -1), (2, -1), (1, -1)]
        assert _counters(cong) == {
            "rules_added": 3, "critical_pairs": 0, "monomials_added": 0,
            "longest_path": 3, "exhausted_max_rules": 0,
        }
        # a later query on the same class reuses the completed relations
        assert cong.eq_finite(u, (0, 0, 3, 3)).verdict == EQUAL
        assert cong.stats["rules_added"] == 3
        assert list(cong._closures) == []

    def test_leq_stops_at_domination(self):
        cong = cyclic_congruence(4)
        u, v = (0, 0, 0, 3), (5, 0, 0, 0)
        d = cong.leq_finite(u, v)
        assert d.verdict == LEQ and d.witness["kind"] == "domination"
        _check_witness(cong, u, v, d)
        full = cyclic_congruence(4).class_closure(v)
        assert len(d.witness["path"]) < len(full.members)
        assert _counters(cong) == {
            "rules_added": 3, "critical_pairs": 0, "monomials_added": 0,
            "longest_path": 5, "exhausted_max_rules": 0,
        }
        assert list(cong._closures) == []


def _check_witness(cong, u, v, d):
    w = d.witness
    if w["kind"] == "path":
        assert cong.replay_path(u, w["steps"]) == v
    elif w["kind"] == "domination":
        assert cong.replay_path(v, w["path"]) == w["w"]
        assert vec_add(u, w["gamma"]) == w["w"]
        assert vec_geq(w["w"], u)
    elif w["kind"] == "normal_form":
        assert cong.replay_path(u, w["path_left"]) == w["left"]
        assert cong.replay_path(v, w["path_right"]) == w["right"]
        cong._assert_complete()
        cong._assert_normal_form("monomials" in w, w)


def _differential_congruences(budget=Budget()):
    """The engines' congruences under `budget` on every fixture and on a
    seeded sample of small corpus spaces, plus two whose negatives no
    functional sees: one with finite classes and one with infinite
    classes."""
    small = [e.statspace for e in random_corpus(seed=5, count=12) if e.statspace.n_atoms <= 3]
    spaces = list(fixture_spaces().values()) + small[:6]
    return [TypeEngine(ss, budget).congruence for ss in spaces] + [
        Congruence(3, [((2, 0, 0), (0, 2, 0)), ((0, 2, 0), (0, 0, 2))], budget),
        Congruence(2, [((1, 0), (0, 2)), ((0, 1), (2, 0))], budget),
    ]


def _random_family(count=150, seed=150):
    """Seeded congruences that no space gives: 2-3 atoms, 1-3 relations
    with entries 0..2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 3)
        out.append(Congruence(n, [
            (tuple(rng.randint(0, 2) for _ in range(n)), tuple(rng.randint(0, 2) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]))
    return out


def _closure_reference(ref, op, u, v, max_members=150):
    """eq or leq read off breadth-first classes of u and v: positive when
    the records show it, negative only from saturated records, else
    unknown."""
    cu, cv = ref.class_closure(u, max_members), ref.class_closure(v, max_members)
    if op == "eq_finite":
        if v in cu.members:
            return EQUAL
        return NOT_EQUAL if cu.saturated or cv.saturated else UNKNOWN
    if any(vec_geq(w, m) for m in cu.members for w in cv.members):
        return LEQ
    return NOT_LEQ if cu.saturated and cv.saturated else UNKNOWN


class TestCompletionOracle:
    """Completion against complete class closures, wherever those are
    saturated, and against the independent completion of
    `tests/oracle_kb.py`: the same verdicts, no unknown at the default
    budget, and witnesses that replay."""

    def _decide(self, cong, ref, u, v, kinds, checked):
        for op in ("eq_finite", "leq_finite"):
            d = getattr(cong, op)(u, v)
            assert d.verdict != UNKNOWN, (cong.relations, op, u, v)
            expected = _closure_reference(ref, op, u, v)
            if expected != UNKNOWN:
                assert d.verdict == expected, (cong.relations, op, u, v)
                checked[op] += 1
            _check_witness(cong, u, v, d)
            kinds.add((d.verdict, d.witness["kind"]))
        return d

    def test_random_family(self):
        rng = random.Random(150)
        kinds, checked = set(), {"eq_finite": 0, "leq_finite": 0}
        for cong in _random_family():
            ref = Congruence(cong.n, cong.relations)
            oracle = CongruenceOracle(cong.n, cong.relations)
            for _ in range(20):
                u = tuple(rng.randint(0, 2) for _ in range(cong.n))
                v = tuple(rng.randint(0, 2) for _ in range(cong.n))
                self._decide(cong, ref, u, v, kinds, checked)
                assert (cong.eq_finite(u, v).verdict == EQUAL) == oracle.eq(u, v)
            assert cong.stats["rules_added"] <= Budget().max_rules
        assert (NOT_EQUAL, "normal_form") in kinds and (NOT_LEQ, "normal_form") in kinds
        assert min(checked.values()) > 500

    def test_spaces_against_the_action_oracle(self):
        # the oracle completes every (element, atom) move read off the
        # action, the engine the moves of a generating set
        rng = random.Random(3)
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        for ss in spaces:
            eng = TypeEngine(ss)
            oracle = oracle_for_space(ss)
            for _ in range(8):
                u = tuple(rng.randint(0, 3) for _ in range(eng.n))
                v = tuple(rng.randint(0, 3) for _ in range(eng.n))
                d = eng.decide_equal(u, v)
                assert (d.verdict == EQUAL) == oracle.eq(u, v), (ss, u, v)
                assert eng.decide_leq(u, v).verdict != UNKNOWN
            eng.audit_decisions()


def _hard_sample():
    return random_corpus(seed=12, count=60, max_atoms=8, max_order=60, small_count=0)


@pytest.mark.parametrize("budget", [Budget(), Budget(max_rules=1)])
def test_goal_directed_matches_complete_closure(budget):
    """Completion on `_differential_congruences` against complete class
    closures: wherever a decision under `budget` is definite and the
    closures are saturated, the verdicts agree, and every witness replays.
    The default budget gives no unknown and every witness kind; one rule
    past the relations is too few for some, whose unknowns name max_rules."""
    rng = random.Random(11)
    kinds, checked, unknown = set(), {"eq_finite": 0, "leq_finite": 0}, 0
    for cong in _differential_congruences(budget):
        ref = Congruence(cong.n, cong.relations)
        for _ in range(40):
            u = tuple(rng.randint(0, 2) for _ in range(cong.n))
            v = tuple(rng.randint(0, 2) for _ in range(cong.n))
            for op in ("eq_finite", "leq_finite"):
                d = getattr(cong, op)(u, v)
                if d.verdict == UNKNOWN:
                    assert d.witness["exhausted"] == ["max_rules"]
                    unknown += 1
                    continue
                expected = _closure_reference(ref, op, u, v)
                if expected != UNKNOWN:
                    assert d.verdict == expected, (cong.relations, op, u, v)
                    checked[op] += 1
                _check_witness(cong, u, v, d)
                kinds.add((d.verdict, d.witness["kind"]))
    if budget == Budget():
        assert unknown == 0
        assert kinds >= {
            (EQUAL, "path"), (NOT_EQUAL, "functional"), (NOT_EQUAL, "normal_form"),
            (LEQ, "domination"), (NOT_LEQ, "functional"), (NOT_LEQ, "normal_form"),
        }
        assert min(checked.values()) > 300
    else:
        assert unknown > 0 and min(checked.values()) > 0


class TestHardSample:
    # the eight true equalities that a breadth-first class search under
    # 40,000 members left unknown
    PAIRS = [
        (20, (4, 2, 0, 0, 5, 2, 5, 5), (2, 3, 3, 4, 2, 2, 2, 5)),
        (20, (6, 4, 4, 5, 0, 3, 3, 6), (3, 2, 2, 0, 6, 4, 2, 6)),
        (4, (0, 2, 6, 0, 0, 3, 6, 5), (0, 0, 3, 5, 3, 6, 6, 4)),
        (4, (5, 3, 1, 2, 1, 0, 1, 1), (5, 3, 4, 3, 6, 6, 1, 6)),
        (6, (0, 2, 4, 4, 4, 6, 0, 6), (6, 3, 6, 3, 2, 1, 2, 6)),
        (6, (0, 4, 2, 2, 4, 1, 3, 1), (0, 2, 0, 5, 1, 5, 6, 1)),
        (6, (5, 6, 0, 0, 4, 3, 6, 0), (4, 2, 5, 5, 1, 2, 4, 0)),
        (6, (6, 0, 5, 1, 4, 1, 6, 4), (2, 2, 2, 3, 0, 3, 1, 4)),
    ]

    def test_eight_search_unknowns_decide_equal(self):
        sample = _hard_sample()
        engines = {}
        for i, u, v in self.PAIRS:
            eng = engines.setdefault(i, TypeEngine(sample[i].statspace))
            d = eng.decide_equal(u, v)
            assert (d.verdict, d.witness["kind"]) == (EQUAL, "path")
            assert oracle_for_space(sample[i].statspace).eq(u, v)
        for eng in engines.values():
            counts = eng.audit_decisions()
            assert counts["path"] == sum(counts.values()) == len(eng.audit_log)

    def test_whole_sample_is_decided(self):
        rng = random.Random(12)
        for entry in _hard_sample():
            eng = TypeEngine(entry.statspace)
            cong, oracle = eng.congruence, oracle_for_space(entry.statspace)
            for _ in range(30):
                u = tuple(rng.randint(0, 6) for _ in range(eng.n))
                v = tuple(rng.randint(0, 6) for _ in range(eng.n))
                d = cong.eq_finite(u, v)
                assert (d.verdict == EQUAL) == oracle.eq(u, v)
                small = tuple(c // 2 for c in u), tuple(c // 2 for c in v)
                assert cong.leq_finite(*small).verdict != UNKNOWN
            assert cong.stats["exhausted_max_rules"] == 0

    def test_classes_meet_in_the_middle(self):
        # a 7-atom partial space where v lies past 5,000 members in u's
        # breadth-first order and u past them in v's, under every
        # (element, atom) move of the space; u and v meet at their normal
        # form
        ss = _hard_sample()[50].statspace
        _, relations = relations_from_space(ss)
        u, v = (3, 5, 6, 4, 4, 4, 4), (6, 5, 4, 2, 4, 3, 4)
        cong = Congruence(ss.n_atoms, relations)
        d = cong.eq_finite(u, v)
        assert d.verdict == EQUAL and d.witness["kind"] == "path"
        assert cong.replay_path(u, d.witness["steps"]) == v
        assert _one_sided_eq(Congruence(ss.n_atoms, relations), u, v, 5000) == UNKNOWN


def additive_pairs(cong, pairs):
    for (p1, q1), (p2, q2) in pairs:
        d1 = cong.eq_finite(p1, q1)
        d2 = cong.eq_finite(p2, q2)
        if d1.verdict == EQUAL and d2.verdict == EQUAL:
            d = cong.eq_finite(vec_add(p1, p2), vec_add(q1, q2))
            assert d.verdict == EQUAL


class TestAlgebraicLaws:
    def test_additivity_on_parity(self):
        cong = parity_congruence()
        additive_pairs(
            cong,
            [
                (((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))),
                (((2, 0, 0, 0), (0, 0, 2, 0)), ((1, 1, 0, 0), (0, 1, 1, 0))),
            ],
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pullback_congruences(self, data):
        n = data.draw(st.integers(1, 3))
        sigma = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        relations = []
        for a in range(n):
            pre = indicator(n, [b for b in range(n) if sigma[b] == a])
            relations.append((unit_vec(n, a), pre))
        cong = Congruence(n, relations)
        u = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        v = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        d_uv = cong.eq_finite(u, v)
        d_vu = cong.eq_finite(v, u)
        # symmetry of definite verdicts
        if d_uv.verdict != UNKNOWN and d_vu.verdict != UNKNOWN:
            assert d_uv.verdict == d_vu.verdict
        # u <= u + w always
        w = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        assert cong.leq_finite(u, vec_add(u, w)).verdict == LEQ
        # order antisymmetry at the decision level
        luv = cong.leq_finite(u, v)
        lvu = cong.leq_finite(v, u)
        if luv.verdict == LEQ and lvu.verdict == LEQ:
            assert d_uv.verdict == EQUAL

    def test_normalize_idempotent(self):
        cong = parity_congruence()
        for supp in [frozenset({0}), frozenset({1}), frozenset({0, 1})]:
            v = ExtVec((0, 0, 1, 0) if 0 not in supp else (0, 0, 0, 0), supp)
            once = cong.normalize(v)
            twice = cong.normalize(once)
            assert once == twice
