import dataclasses
import itertools
from fractions import Fraction

import pytest

from typemonoid.congruence import (
    EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, UNKNOWN, Budget, Congruence, Decision, ExtVec,
)
from typemonoid.corpus import (
    collapse_space,
    cyclic4_space,
    fixture_spaces,
    one_point_space,
    parity_space,
    parity_to_two_point_morphism,
    random_corpus,
    two_point_space,
)
from typemonoid.errors import MalformedCertificateError, NotMeasurableError, SpaceMismatchError
from typemonoid.lattice import enumerate_idempotents, idempotent_of
from typemonoid.measures import hierarchical_measure
from typemonoid.monoid import generating_set
from typemonoid.spaces import (
    StatMorphism,
    build_space,
    compose_morphisms,
    identity_morphism,
    pullback,
    validate_morphism,
    with_trivial_symmetry,
)
from typemonoid.types import (
    AbarElement,
    AuditEntry,
    MoveRelation,
    Realization,
    TypeEngine,
    _pull_back,
    morphism_type_map,
    relation_basis,
)


def parity_engine():
    return TypeEngine(parity_space())


def collapse_engine():
    return TypeEngine(collapse_space())


def abar_act(eng, s, p):
    """The action of s on formal coproducts: multiplicities move along
    the preimage of s."""
    return AbarElement(eng.statspace, _pull_back(eng._vec(p), eng.statspace.atom_map(s)))


def g_elem(ss, point_map):
    return next(s for s in range(ss.monoid.order) if ss.action[s] == point_map)


def table_basis(ss):
    """Reference basis read off the closed table: the distinct nontrivial
    moves of `generating_set(ss.monoid)`, kept as `relation_basis` keeps
    those of the space's generators."""
    out, seen, n = [], set(), ss.n_atoms
    for g in generating_set(ss.monoid):
        amap = ss.atom_map(g)
        for a in range(n):
            lhs = tuple(int(b == a) for b in range(n))
            rhs = tuple(int(amap[b] == a) for b in range(n))
            if rhs != lhs and (a, rhs) not in seen:
                seen.add((a, rhs))
                out.append(MoveRelation(atom=a, mover=g, lhs=lhs, rhs=rhs))
    return out


def has_redundant_generator(ss):
    """Whether some generator is a product of the generators before it."""
    mul, gens = ss.monoid.mul, ss.generators
    for k, g in enumerate(gens):
        reached, todo = {ss.unit}, [ss.unit]
        while todo:
            x = todo.pop()
            for h in gens[:k]:
                if mul[x][h] not in reached:
                    reached.add(mul[x][h])
                    todo.append(mul[x][h])
        if g in reached:
            return True
    return False


class TestRelationBasis:
    def test_generator_basis_matches_the_table_basis(self):
        # generating_set takes the generators themselves when none is a
        # product of earlier ones, so the two bases can differ only where
        # one is; on the fixtures they agree
        for ss in fixture_spaces().values():
            assert relation_basis(ss) == table_basis(ss)
        pool = random_corpus(seed=2024, count=480, max_atoms=3, small_count=480)
        differ = [
            e for e in pool if relation_basis(e.statspace) != table_basis(e.statspace)
        ]
        assert all(has_redundant_generator(e.statspace) for e in differ)
        assert len(differ) < len(pool) // 20

    def test_trivial_monoid_identity_relations(self):
        # the trivial monoid moves nothing, so no relation is kept
        assert relation_basis(one_point_space()) == []

    def test_collapse_relations(self):
        rels = relation_basis(collapse_space())
        pairs = {(r.lhs, r.rhs) for r in rels}
        assert ((1, 0), (1, 1)) in pairs
        assert ((0, 1), (0, 0)) in pairs
        assert all(l != r for l, r in pairs)  # no identity move

    def test_parity_relations(self):
        rels = relation_basis(parity_space())
        pairs = {(r.lhs, r.rhs) for r in rels}
        assert ((1, 0, 0, 0), (0, 0, 1, 0)) in pairs
        assert ((0, 1, 0, 0), (0, 0, 0, 1)) in pairs


class TestAbar:
    def test_of_set(self):
        eng = parity_engine()
        assert eng.abar_of_set(frozenset()).vec.is_zero()
        assert eng.abar_of_set(frozenset({0, 1})).vec.finite == (1, 1, 0, 0)
        assert eng.abar_of_set(frozenset(range(4))).vec.finite == (1, 1, 1, 1)

    def test_unknown_atom(self):
        eng = parity_engine()
        for atoms in ({9}, frozenset({9}), {0, 9}):
            with pytest.raises(SpaceMismatchError):
                eng.abar_of_set(atoms)

    def test_omega_out_of_range(self):
        eng = collapse_engine()
        for omega in ([5], [-1]):
            with pytest.raises(ValueError, match="omega coordinate out of range"):
                eng.abar((1, 0), omega)

    def test_coproduct(self):
        eng = parity_engine()
        p = eng.abar_of_set(frozenset({0}))
        assert (p + eng.abar_zero()).vec == p.vec
        assert (p + p).vec.finite == (2, 0, 0, 0)
        w = eng.abar((0, 0, 0, 0), omega={0})
        assert (w + p).vec == w.vec  # omega saturates

    def test_cross_space_coproduct_rejected(self):
        with pytest.raises(SpaceMismatchError):
            parity_engine().abar_zero() + collapse_engine().abar_zero()

    def test_act_unit(self):
        eng = parity_engine()
        p = eng.abar((2, 1, 0, 0))
        assert abar_act(eng, eng.statspace.monoid.unit, p).vec == p.vec

    def test_act_collapse(self):
        eng = collapse_engine()
        out = abar_act(eng, 1, eng.abar_of_set(frozenset({0})))
        assert out.vec.finite == (1, 1)

    def test_act_parity_transports_multiplicity(self):
        eng = parity_engine()
        g1 = g_elem(eng.statspace, (2, 1, 0, 3))
        out = abar_act(eng, g1, eng.abar((2, 0, 0, 0)))
        assert out.vec.finite == (0, 0, 2, 0)

    def test_act_moves_omega(self):
        eng = collapse_engine()
        out = abar_act(eng, 1, eng.abar((0, 0), omega={0}))
        assert out.vec.omega == frozenset({0, 1})

    def test_omega_fold(self):
        eng = parity_engine()
        out = eng.omega_fold(eng.abar((0, 2, 0, 1)))
        assert out.vec == ExtVec((0, 0, 0, 0), frozenset({1, 3}))


class TestCoercion:
    """Every engine entry point reads a coproduct the same way whatever
    form it comes in, and rejects one from another space."""

    OTHER = ExtVec((0, 1, 0, 0), frozenset({0, 2}))
    OPS = {
        "decide_equal": lambda eng, x: eng.decide_equal(x, TestCoercion.OTHER).to_json(),
        "decide_leq": lambda eng, x: eng.decide_leq(x, TestCoercion.OTHER).to_json(),
        "type_of_abar": lambda eng, x: eng.type_of_abar(x).rep,
        "omega_normalize": lambda eng, x: eng.omega_normalize(x),
        "omega_fold": lambda eng, x: eng.omega_fold(x).vec,
        "abar_act": lambda eng, x: abar_act(eng, 1, x).vec,
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize(
        "value", [ExtVec((1, 0, 2, 0)), ExtVec((0, 1, 0, 2), frozenset({0, 2}))]
    )
    def test_forms_agree(self, op, value):
        eng = parity_engine()
        t = eng.type_of_abar(value)
        assert t.rep == value  # already normal, so every form names one vector
        # an equal copy of the space is the same space, checked by ==
        copy = dataclasses.replace(eng.statspace)
        assert copy is not eng.statspace
        forms = [value, AbarElement(eng.statspace, value), t, AbarElement(copy, value)]
        results = [self.OPS[op](eng, x) for x in forms]
        assert results[0] == results[1] == results[2] == results[3]

    @pytest.mark.parametrize("where", ["idempotent_of", "hierarchical_measure", "decide_equal"])
    @pytest.mark.parametrize("form", ["abar", "type"])
    def test_foreign_space_rejected(self, where, form):
        eng = parity_engine()
        lat = enumerate_idempotents(eng)
        other = TypeEngine(cyclic4_space())  # same atom count, other space
        p = other.abar_of_set(frozenset({0}))
        x = p if form == "abar" else other.type_of_abar(p)
        with pytest.raises(SpaceMismatchError):
            if where == "idempotent_of":
                idempotent_of(eng, x)
            elif where == "decide_equal":
                eng.decide_equal(x, eng.abar_zero())
            else:
                hierarchical_measure(eng, lat.bottom, x)

    @pytest.mark.parametrize("form", [list, tuple])
    def test_atom_sets_must_be_sets(self, form):
        # a list or tuple means multiplicities, so it is no atom set
        eng = parity_engine()
        with pytest.raises(TypeError):
            eng.type_of(form([0, 1, 2, 3]))
        for _ in range(2):  # a refusal is not remembered as a value
            with pytest.raises(TypeError):
                eng.abar_of_set(form([0, 1, 2, 3]))

    def test_set_and_list_readings(self):
        eng = parity_engine()
        lat = enumerate_idempotents(eng)
        assert eng.type_of({0, 1, 2, 3}).rep == ExtVec((1, 1, 1, 1))
        assert eng.abar_of_set({0, 1}).vec == ExtVec((1, 1, 0, 0))
        assert eng.abar_of_set(frozenset({0, 1})) == eng.abar_of_set({1, 0})
        assert eng.type_of_abar([0, 1, 2, 3]).rep == ExtVec((0, 1, 2, 3))
        as_list = hierarchical_measure(eng, lat.bottom, [0, 1, 2, 3])
        as_vec = hierarchical_measure(eng, lat.bottom, ExtVec((0, 1, 2, 3)))
        as_set = hierarchical_measure(eng, lat.bottom, frozenset({0, 1, 2, 3}))
        assert as_list == as_vec
        assert as_set == hierarchical_measure(eng, lat.bottom, ExtVec((1, 1, 1, 1)))
        assert as_list != as_set


class TestDecisions:
    def test_parity_examples(self):
        eng = parity_engine()
        a0 = eng.abar_of_set(frozenset({0}))
        a1 = eng.abar_of_set(frozenset({1}))
        a2 = eng.abar_of_set(frozenset({2}))
        assert eng.decide_equal(a0, a2).verdict == EQUAL
        assert eng.decide_equal(a0, a1).verdict == NOT_EQUAL

    def test_collapse_null(self):
        eng = collapse_engine()
        assert eng.decide_equal(
            eng.abar_of_set(frozenset({1})), eng.abar_zero()
        ).verdict == EQUAL

    def test_leq_examples(self):
        eng = parity_engine()
        zero = eng.type_zero()
        a01 = eng.type_of(frozenset({0, 1}))
        a0 = eng.type_of(frozenset({0}))
        a02 = eng.type_of(frozenset({0, 2}))
        assert eng.decide_leq(zero, a01).verdict == LEQ
        assert eng.decide_leq(a0, a01).verdict == LEQ
        assert eng.decide_leq(a02, a0).verdict == NOT_LEQ

    def test_types_compare_within_one_space(self):
        eng = parity_engine()
        other = collapse_engine()
        with pytest.raises(SpaceMismatchError):
            eng.decide_equal(eng.type_zero(), other.type_zero())


class TestTypes:
    def test_type_of_empty(self):
        eng = parity_engine()
        assert eng.decide_equal(eng.type_of(frozenset()), eng.type_zero()).verdict == EQUAL

    def test_parity_whole_space_decomposes(self):
        eng = parity_engine()
        whole = eng.type_of(frozenset(range(4)))
        a0 = eng.type_of(frozenset({0}))
        a1 = eng.type_of(frozenset({1}))
        s = eng.type_add(eng.type_scale(2, a0), eng.type_scale(2, a1))
        assert eng.decide_equal(whole, s).verdict == EQUAL

    def test_collapse_null_type(self):
        eng = collapse_engine()
        assert eng.decide_equal(
            eng.type_of(frozenset({1})), eng.type_zero()
        ).verdict == EQUAL

    def test_type_add_well_defined(self):
        eng = parity_engine()
        u = eng.type_of_abar(eng.abar((1, 0, 0, 0)))
        u_alt = eng.type_of_abar(eng.abar((0, 0, 1, 0)))  # same class
        v = eng.type_of_abar(eng.abar((0, 1, 0, 0)))
        v_alt = eng.type_of_abar(eng.abar((0, 0, 0, 1)))
        lhs = eng.type_add(u, v)
        rhs = eng.type_add(u_alt, v_alt)
        assert eng.decide_equal(lhs, rhs).verdict == EQUAL

    def test_stationarity_on_fixtures(self):
        for ss in (parity_space(), collapse_space()):
            eng = TypeEngine(ss)
            for s in range(ss.monoid.order):
                for aset in ss.space.all_measurable_sets():
                    pre = pullback(ss, s, aset)
                    d = eng.decide_equal(eng.type_of(aset), eng.type_of(pre))
                    assert d.verdict == EQUAL, (s, aset, d.verdict)

    def test_omega_fold_additivity(self):
        # countable sum of copies of A has the omega type of A's support
        eng = parity_engine()
        a = eng.abar_of_set(frozenset({0, 1}))
        folded = eng.omega_fold(a)
        doubled = eng.omega_fold(a + a)
        assert eng.decide_equal(folded, doubled).verdict == EQUAL

    def test_cancellation_small(self):
        eng = parity_engine()
        a = eng.type_of(frozenset({0}))
        b = eng.type_of(frozenset({2}))
        for n in (2, 3):
            d = eng.decide_equal(eng.type_scale(n, a), eng.type_scale(n, b))
            assert d.verdict == EQUAL
        # and a genuinely different pair stays different after scaling
        c = eng.type_of(frozenset({1}))
        for n in (2, 3):
            assert eng.decide_equal(
                eng.type_scale(n, a), eng.type_scale(n, c)
            ).verdict == NOT_EQUAL

    def test_schroeder_bernstein_on_samples(self):
        eng = collapse_engine()
        pairs = [
            ((1, 0), (1, 1)),
            ((1, 1), (1, 0)),
            ((0, 1), (0, 0)),
            ((2, 1), (2, 0)),
        ]
        for u, v in pairs:
            luv = eng.decide_leq(eng.abar(u), eng.abar(v))
            lvu = eng.decide_leq(eng.abar(v), eng.abar(u))
            if luv.verdict == LEQ and lvu.verdict == LEQ:
                assert eng.decide_equal(eng.abar(u), eng.abar(v)).verdict == EQUAL


class TestRealizations:
    def test_empty_certificate(self):
        eng = parity_engine()
        r = Realization(
            space=eng.statspace,
            left_whole=eng.abar_zero().vec,
            right_whole=eng.abar_zero().vec,
            left_pieces=(),
            right_pieces=(),
            moves=(),
        )
        assert eng.verify_realization(r).ok

    def one_piece_cert(self, eng, s, t):
        return Realization(
            space=eng.statspace,
            left_whole=ExtVec.from_vec((1, 0, 0, 0)),
            right_whole=ExtVec.from_vec((0, 0, 1, 0)),
            left_pieces=(ExtVec.from_vec((1, 0, 0, 0)),),
            right_pieces=(ExtVec.from_vec((0, 0, 1, 0)),),
            moves=((s, t),),
        )

    def test_parity_swap_certificate(self):
        eng = parity_engine()
        ss = eng.statspace
        g1 = g_elem(ss, (2, 1, 0, 3))
        assert eng.verify_realization(
            self.one_piece_cert(eng, g1, ss.monoid.unit)
        ).ok

    def test_wrong_mover_rejected(self):
        eng = parity_engine()
        ss = eng.statspace
        g2 = g_elem(ss, (0, 3, 2, 1))
        rep = eng.verify_realization(self.one_piece_cert(eng, g2, ss.monoid.unit))
        assert not rep.ok
        assert any("move equation" in p for p in rep.problems)

    def test_bad_partition_rejected(self):
        eng = parity_engine()
        r = Realization(
            space=eng.statspace,
            left_whole=ExtVec.from_vec((1, 1, 0, 0)),
            right_whole=ExtVec.from_vec((1, 1, 0, 0)),
            left_pieces=(ExtVec.from_vec((1, 0, 0, 0)),),
            right_pieces=(ExtVec.from_vec((1, 1, 0, 0)),),
            moves=((0, 0),),
        )
        rep = eng.verify_realization(r)
        assert not rep.ok

    def test_malformed_raises(self):
        eng = parity_engine()
        with pytest.raises(MalformedCertificateError):
            eng.verify_realization(
                Realization(
                    space=eng.statspace,
                    left_whole=eng.abar_zero().vec,
                    right_whole=eng.abar_zero().vec,
                    left_pieces=(eng.abar_zero().vec,),
                    right_pieces=(),
                    moves=(),
                )
            )
        with pytest.raises(MalformedCertificateError):
            eng.verify_realization(
                Realization(
                    space=eng.statspace,
                    left_whole=eng.abar_zero().vec,
                    right_whole=eng.abar_zero().vec,
                    left_pieces=(eng.abar_zero().vec,),
                    right_pieces=(eng.abar_zero().vec,),
                    moves=((99, 0),),
                )
            )

    def test_path_realizations_chain(self):
        eng = parity_engine()
        d = eng.decide_equal(eng.abar((2, 1, 0, 0)), eng.abar((0, 1, 2, 0)))
        assert d.verdict == EQUAL and d.witness["kind"] == "path"
        rs = eng.realizations_from_path(d.witness["start"], d.witness["steps"])
        assert rs, "nontrivial path expected"
        for r in rs:
            assert eng.verify_realization(r).ok
        assert rs[0].left_whole.finite == (2, 1, 0, 0)
        assert rs[-1].right_whole.finite == (0, 1, 2, 0)

    @pytest.mark.parametrize("space", [cyclic4_space, collapse_space])
    def test_single_steps_verify_both_ways(self, space):
        # the rotation is no involution, so a reverse step with its movers
        # swapped would not replay
        eng = TypeEngine(space())
        for i, rel in enumerate(eng.relations):
            start = tuple(a + b for a, b in zip(rel.lhs, rel.rhs))
            for direction, (src, dst) in ((1, (rel.lhs, rel.rhs)), (-1, (rel.rhs, rel.lhs))):
                r = eng.step_realization(start, i, direction)
                assert eng.verify_realization(r).ok, (i, direction)
                rest = tuple(a - b for a, b in zip(start, src))
                assert r.right_whole.finite == tuple(a + b for a, b in zip(rest, dst))
            with pytest.raises(MalformedCertificateError):
                eng.step_realization((0,) * eng.n, i, 1)


class TestAudit:
    def test_audit_clean_after_mixed_queries(self):
        eng = parity_engine()
        sets = eng.statspace.space.all_measurable_sets()
        for a, b in itertools.combinations(sets, 2):
            eng.decide_equal(eng.type_of(a), eng.type_of(b))
            eng.decide_leq(eng.type_of(a), eng.type_of(b))
        counts = eng.audit_decisions()
        assert counts["functional"] > 0
        assert counts["path"] > 0
        assert counts["domination"] > 0

    def test_audit_collapse_with_omega(self):
        eng = collapse_engine()
        top = eng.abar((0, 0), omega={0})
        eng.decide_equal(top, eng.abar((0, 5), omega={0}))
        eng.decide_leq(eng.abar((3, 0)), top)
        eng.decide_equal(eng.abar((0, 1)), eng.abar_zero())
        eng.audit_decisions()

    def test_audit_support_witness(self):
        # no space here needs a support refutation (every non-null atom
        # carries a finite stationary measure), so build one directly: the
        # odd atom 1 lies outside U({0}) = {0, 2}
        eng = parity_engine()
        p, q = eng.abar((0, 1, 0, 0)).vec, eng.abar((0,) * 4, omega={0}).vec
        good = {"kind": "support", "closed": frozenset({0, 2}), "outside": [1]}
        for op, order in (("leq", True), ("eq", False)):
            d = eng.congruence._support_refutation(p, q, order)
            assert d.witness == good
            eng.audit_log.append(AuditEntry(op, p, q, d))
        # an equality refutation holds with the sides swapped
        eng.audit_log.append(AuditEntry("eq", q, p, d))
        assert eng.audit_decisions()["support"] == 3
        for tampered, op, left, right in (
            ({**good, "closed": frozenset({0})}, "leq", p, q),  # not closed
            ({**good, "outside": [0]}, "leq", p, q),  # listed atom inside
            ({**good, "outside": []}, "leq", p, q),  # nothing listed
            (good, "leq", q, p),  # order refuted the wrong way round
        ):
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(NOT_LEQ, tampered, Budget()))]
            with pytest.raises(AssertionError):
                eng.audit_decisions()

    def test_audit_trivial_witnesses(self):
        # equal sides and a zero left side are paths with no steps
        eng = collapse_engine()
        one, null = eng.abar((1, 0)).vec, eng.abar((0, 0), omega={1}).vec
        two, zero = eng.abar((2, 0)).vec, eng.abar_zero().vec
        same = {"kind": "path", "start": (1, 0), "end": (1, 0), "steps": []}
        below = {"kind": "domination", "w": (1, 0), "gamma": (1, 0), "path": []}
        assert eng.decide_equal(one, one).witness == same
        assert eng.decide_leq(zero, one).witness == below
        counts = eng.audit_decisions()
        assert (counts["path"], counts["domination"], sum(counts.values())) == (1, 1, 2)
        for op, left, right, verdict, tampered in (
            ("eq", one, two, EQUAL, {**same, "end": (2, 0)}),  # sides differ
            ("eq", one, two, EQUAL, same),  # ends are not the sides
            ("eq", null, null, EQUAL, {**same, "start": (0, 0), "end": (0, 0)}),  # not finite
            # the right side does not dominate the left
            ("leq", two, one, LEQ, {**below, "gamma": (-1, 0)}),
            ("leq", zero, one, LEQ, {**below, "w": (2, 0), "gamma": (2, 0)}),  # no such path
            ("leq", null, one, LEQ, below),  # omega on the null atom stays omega
            ("eq", zero, one, EQUAL, below),  # an order proves no equality
        ):
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(verdict, tampered, Budget()))]
            with pytest.raises(AssertionError):
                eng.audit_decisions()

    def test_signed_functional_refutes_no_order(self):
        # y = (1, -1, 1, -1) is conserved and puts e0 above e0 + e1, yet
        # e0 <= e0 + e1: an order refutation needs y >= 0, and so does any
        # refutation with omega on a side, whatever the witness says
        eng = parity_engine()
        e0, e01 = eng.abar((1, 0, 0, 0)).vec, eng.abar((1, 1, 0, 0)).vec
        odd, zero = eng.abar((0,) * 4, omega={1, 3}).vec, eng.abar_zero().vec
        assert eng.decide_leq(e0, e01).verdict == LEQ
        signed = {"kind": "functional", "y": (1, -1, 1, -1)}
        for op, left, right, verdict in (
            ("leq", e0, e01, NOT_LEQ),
            ("eq", odd, zero, NOT_EQUAL),
        ):
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(verdict, signed, Budget()))]
            with pytest.raises(AssertionError, match="not nonnegative"):
                eng.audit_decisions()

    def test_omega_functional_must_separate(self):
        # the refutation of omega{0} <= e0 weighs atom 0: inf against 1/2
        eng = parity_engine()
        w0, e0 = eng.abar((0,) * 4, omega={0}).vec, eng.abar((1, 0, 0, 0)).vec
        leq, eq = eng.decide_leq(w0, e0), eng.decide_equal(w0, e0)
        good = leq.witness
        assert good["kind"] == eq.witness["kind"] == "functional"
        assert (good["value_left"], good["value_right"]) == ("inf", Fraction(1, 2))
        assert eng.audit_decisions()["functional"] == 2
        zero_y = {**good, "y": (0,) * 4}
        for op, left, right, tampered, message in (
            ("leq", w0, w0, good, "does not separate"),  # inf against inf
            ("eq", w0, w0, good, "does not separate"),
            ("leq", e0, w0, good, "does not separate"),  # the wrong way round
            ("leq", w0, e0, zero_y, "does not separate"),  # 0 against 0
            ("eq", w0, e0, zero_y, "does not separate"),
            ("leq", w0, e0, {**good, "value_right": Fraction(1)}, "recorded values"),
            ("eq", w0, e0, {**good, "value_left": Fraction(1)}, "recorded values"),
        ):
            verdict = NOT_LEQ if op == "leq" else NOT_EQUAL
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(verdict, tampered, Budget()))]
            with pytest.raises(AssertionError, match=message):
                eng.audit_decisions()

    def test_audit_refuses_unrecognised_kinds(self):
        eng = collapse_engine()
        one = eng.abar((1, 0)).vec
        eng.audit_log.append(AuditEntry("eq", one, one, Decision(EQUAL, {"kind": "bogus"}, Budget())))
        with pytest.raises(AssertionError, match="unrecognised witness kind 'bogus'"):
            eng.audit_decisions()

    def test_audit_skips_unknown_decisions(self):
        # an unknown verdict claims nothing, so there is nothing to check
        eng = collapse_engine()
        one, two = eng.abar((1, 0)).vec, eng.abar((2, 0)).vec
        unknown = {"kind": "budget", "max_rules": 0, "exhausted": ["max_rules"]}
        eng.audit_log.append(AuditEntry("eq", one, two, Decision(UNKNOWN, unknown, Budget())))
        eng.audit_log.append(AuditEntry("leq", two, one, Decision(UNKNOWN, {"kind": "bogus"}, Budget())))
        eng.decide_equal(one, one)
        assert eng.audit_decisions() == {
            "functional": 0, "path": 1, "domination": 0, "normal_form": 0, "support": 0}

    def test_zero_below_omega_replays(self):
        # 0 <= omega on the odd atoms by a domination with no steps
        eng = parity_engine()
        d = eng.decide_leq(eng.abar_zero(), eng.abar((0,) * 4, omega={1, 3}))
        assert d.verdict == LEQ
        assert d.witness == {
            "kind": "omega_leq", "support": frozenset({1, 3}), "under_omega": {},
            "finite": {"kind": "domination", "start": (0,) * 4, "w": (0,) * 4,
                       "gamma": (0,) * 4, "path": []},
        }
        assert eng.audit_decisions()["domination"] == 1

    def test_audit_syntactic_normalized(self):
        # omega on the even atoms absorbs finite even mass: both sides
        # normalize to omega on {0, 2}
        eng = parity_engine()
        p, q = eng.abar((0,) * 4, omega={0}).vec, eng.abar((0, 0, 2, 0), omega={0}).vec
        witness = {
            "kind": "omega_equal", "support": frozenset({0, 2}),
            "finite": {"kind": "path", "start": (0,) * 4, "end": (0,) * 4, "steps": []},
        }
        assert eng.decide_equal(p, q).witness == witness
        counts = eng.audit_decisions()
        assert (counts["path"], sum(counts.values())) == (1, 1)
        # omega on the null atom is the zero type, which the zero vector
        # is: a finite side's support is the closure of the empty set
        collapse = collapse_engine()
        null = collapse.abar((0, 0), omega={1}).vec
        assert collapse.decide_equal(null, ExtVec((0, 0))).witness["kind"] == "omega_equal"
        assert collapse.audit_decisions()["path"] == 1
        odd = eng.abar((0,) * 4, omega={1}).vec
        for op, left, right, tampered in (
            ("eq", p, odd, witness),  # different closures
            ("eq", eng.abar((0, 1, 0, 0), omega={0}).vec, q, witness),  # odd mass stays
            ("eq", p, q, {**witness, "support": frozenset({0})}),  # inside the closure
            ("eq", p, q, {**witness, "support": frozenset({0, 1, 2, 3})}),  # past the closure
            ("eq", eng.abar((1, 0, 0, 0)).vec, eng.abar((1, 0, 0, 0)).vec, witness),  # finite
        ):
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(EQUAL, tampered, Budget()))]
            with pytest.raises(AssertionError):
                eng.audit_decisions()

    def test_audit_rejects_forged_closure_derivations(self):
        # U({0}) = {0, 2} in the parity space, derived by one swap move
        eng = parity_engine()
        p, q = eng.abar((0,) * 4, omega={0}).vec, eng.abar((0, 0, 2, 0), omega={0}).vec
        d = eng.decide_equal(p, q)
        memo = eng.congruence._support_memo
        closed, cert = memo[frozenset({0})]
        ((b, (idx, direction)),) = cert["added"].items()
        assert (closed, b) == (frozenset({0, 2}), 2)
        odd = next(i for i, r in enumerate(eng.relations) if r.lhs[1] and r.rhs[3])
        for forged_closed, added, message in (
            (closed, {b: (idx, -direction)}, "given side"),
            (closed, {}, "does not reach"),  # atom 2 underived
            (closed, {b: (idx, direction), 1: (idx, direction)}, "not forced"),
            (frozenset({0, 1, 2, 3}), {b: (idx, direction), 3: (odd, 1)}, "given side"),
            (frozenset({0}), {}, "not closed"),  # the derivation holds
        ):
            memo[frozenset({0})] = (forged_closed, {"added": added})
            eng.audit_log[:] = [AuditEntry("eq", p, q, d)]
            with pytest.raises(AssertionError, match=message):
                eng.audit_decisions()
        # the omega witnesses check their support closures the same way
        memo[frozenset({0})] = (closed, cert)
        p, q = eng.abar((1, 0, 0, 0), omega={1}).vec, eng.abar((0, 0, 1, 0), omega={3}).vec
        eq, leq = eng.decide_equal(p, q), eng.decide_leq(p, q)
        eng.audit_decisions()
        for odd_atom in (1, 3):
            closed, _ = memo[frozenset({odd_atom})]
            memo[frozenset({odd_atom})] = (closed, {"added": {}})
        for op, dec in (("eq", eq), ("leq", leq)):
            eng.audit_log[:] = [AuditEntry(op, p, q, dec)]
            with pytest.raises(AssertionError, match="derivation"):
                eng.audit_decisions()

    def test_audit_normal_form_witnesses(self, monkeypatch):
        # on these spaces a conserved functional refutes first, so switch
        # the functionals off: the completed rules e0 -> e2 and e1 -> e3
        # then refute by themselves
        eng = parity_engine()
        cong = eng.congruence
        monkeypatch.setattr(cong, "_basis_functionals", lambda: [])
        monkeypatch.setattr(cong, "_nonneg_conserved", lambda *args, **kw: None)
        p, q = eng.abar((1, 0, 0, 0)).vec, eng.abar((0, 1, 0, 0)).vec
        eq, leq = eng.decide_equal(p, q), eng.decide_leq(p, q)
        assert eq.witness == {
            "kind": "normal_form", "left": (0, 0, 1, 0), "right": (0, 0, 0, 1),
            "path_left": [(1, -1)], "path_right": [(3, -1)],
        }
        assert leq.witness == {**eq.witness, "monomials": [(0, 0, 1, 0)]}
        counts = eng.audit_decisions()
        assert (counts["normal_form"], sum(counts.values())) == (2, 2)
        rules = cong._rules
        for i in range(len(rules)):
            # a rule system with one rule dropped
            cong._rules = rules[:i] + rules[i + 1:]
            with pytest.raises(AssertionError, match="does not join"):
                eng.audit_decisions()
        # a rule whose steps walk out and back again, and one turned round
        lhs, rhs, steps = rules[0]
        back = tuple((i, -d) for i, d in reversed(steps))
        for forged, message in (((lhs, rhs, steps + back), "does not replay"),
                                ((rhs, lhs, back), "does not decrease")):
            cong._rules = [forged] + rules[1:]
            with pytest.raises(AssertionError, match=message):
                eng.audit_decisions()
        cong._rules = rules
        # 3e0 -> 2e0 comes from a critical pair alone: without it both
        # relations still join, and the overlap e0 + 3e1 of the other two
        # rules does not
        pair = Congruence(2, [((0, 2), (1, 1)), ((2, 0), (1, 2))])
        pair._assert_complete()
        assert pair._rules[2][:2] == ((3, 0), (2, 0))
        pair._rules = pair._rules[:2]
        with pytest.raises(AssertionError, match="critical pair does not join"):
            pair._assert_complete()
        for op, d in (("eq", eq), ("leq", leq)):
            w = d.witness
            for tampered in (
                {**w, "left": w["right"], "right": w["left"]},  # swapped normal forms
                {**w, "left": (1, 0, 0, 0), "path_left": []},  # not a normal form
            ):
                eng.audit_log[:] = [AuditEntry(op, p, q, Decision(d.verdict, tampered, Budget()))]
                with pytest.raises(AssertionError):
                    eng.audit_decisions()
        # equal normal forms refute nothing
        eng.audit_log[:] = [AuditEntry("eq", p, p, Decision(NOT_EQUAL, {
            **eq.witness, "right": (0, 0, 1, 0), "path_right": [(1, -1)]}, Budget()))]
        with pytest.raises(AssertionError, match="agree"):
            eng.audit_decisions()
        # no space gives an order ideal of more than one monomial, so the
        # x -> 2x congruence stands in: the ideal of e1 is {e1, e0}, e0
        # from 2e1 -> e0, and without e0 that overlap leaves the monomials
        two = Congruence(2, [((1, 0), (0, 2)), ((0, 1), (2, 0))])
        w = two.leq_finite((0, 1), (0, 0)).witness
        assert w["monomials"] == [(0, 1), (1, 0)]
        two._assert_complete()
        two._assert_normal_form(True, w)
        with pytest.raises(AssertionError, match="overlap leaves"):
            two._assert_normal_form(True, {**w, "monomials": [(0, 1)]})
        with pytest.raises(AssertionError, match="above a monomial"):
            two._assert_normal_form(True, {**w, "right": (1, 1)})

    def test_audit_omega_witnesses(self):
        # in the quotient by the odd atoms U({1}) = {1, 3}, e0 and e2 are
        # one step apart; the lifted witnesses replay in the space itself
        eng = parity_engine()
        p, q = eng.abar((1, 0, 0, 0), omega={1}).vec, eng.abar((0, 0, 1, 0), omega={3}).vec
        eq, leq = eng.decide_equal(p, q), eng.decide_leq(p, q)
        assert (eq.verdict, eq.witness["kind"]) == (EQUAL, "omega_equal")
        assert (leq.verdict, leq.witness["kind"]) == (LEQ, "omega_leq")
        assert eq.witness["support"] == leq.witness["support"] == frozenset({1, 3})
        assert eq.witness["finite"]["steps"]
        counts = eng.audit_decisions()
        assert (counts["path"], counts["domination"], sum(counts.values())) == (1, 1, 2)
        inner = leq.witness["finite"]
        for op, d, tampered in (
            ("eq", eq, {**eq.witness, "support": frozenset({1})}),  # not closed
            ("eq", eq, {**eq.witness, "support": frozenset()}),  # misses the omega sets
            # closed and holding both omega sets, but it absorbs e0 and e2
            ("eq", eq, {**eq.witness, "support": frozenset({0, 1, 2, 3})}),
            ("leq", leq, {**leq.witness, "support": frozenset({0, 1, 2, 3})}),
            ("eq", eq, {**eq.witness, "finite": {**eq.witness["finite"], "start": (0, 0, 1, 0)}}),
            ("leq", leq, {**leq.witness, "finite": {**inner, "start": (1, 0, 0, 0)}}),
            ("leq", leq, {**leq.witness, "finite": {**inner, "w": (1, 0, 1, 0)}}),
            ("leq", leq, {**leq.witness, "finite": {**inner, "gamma": (1, 0, 0, 0)}}),
        ):
            eng.audit_log[:] = [AuditEntry(op, p, q, Decision(d.verdict, tampered, Budget()))]
            with pytest.raises(AssertionError):
                eng.audit_decisions()


class TestMorphismTypeMap:
    def test_identity_is_identity(self):
        eng = parity_engine()
        tmap = morphism_type_map(identity_morphism(eng.statspace), eng, eng)
        for aset in eng.statspace.space.all_measurable_sets():
            t = eng.type_of(aset)
            assert eng.decide_equal(tmap(t), t).verdict == EQUAL

    def test_parity_preimage(self):
        m = parity_to_two_point_morphism()
        src_eng = TypeEngine(m.source)
        tgt_eng = TypeEngine(m.target)
        tmap = morphism_type_map(m, src_eng, tgt_eng)
        even = tgt_eng.type_of(frozenset({0}))
        assert src_eng.decide_equal(
            tmap(even), src_eng.type_of(frozenset({0, 2}))
        ).verdict == EQUAL

    def test_additive_and_order_preserving(self):
        m = parity_to_two_point_morphism()
        src_eng = TypeEngine(m.source)
        tgt_eng = TypeEngine(m.target)
        tmap = morphism_type_map(m, src_eng, tgt_eng)
        a = tgt_eng.type_of(frozenset({0}))
        b = tgt_eng.type_of(frozenset({1}))
        lhs = tmap(tgt_eng.type_add(a, b))
        rhs = src_eng.type_add(tmap(a), tmap(b))
        assert src_eng.decide_equal(lhs, rhs).verdict == EQUAL
        if tgt_eng.decide_leq(a, b).verdict == LEQ:
            assert src_eng.decide_leq(tmap(a), tmap(b)).verdict == LEQ

    def test_non_measurable_morphism_refused(self):
        # one source atom {a, b} sent onto both atoms of the target
        src = with_trivial_symmetry(build_space(["a", "b"], [[0, 1]]))
        m = StatMorphism(source=src, target=two_point_space(), point_map=(0, 1), fstar=(0,))
        assert validate_morphism(m).measurability_witness == 0
        with pytest.raises(NotMeasurableError, match=r"morphism splits atom a\+b"):
            morphism_type_map(m, TypeEngine(m.source), TypeEngine(m.target))

    def test_cofunctor_composition(self):
        m1 = parity_to_two_point_morphism()
        m2 = StatMorphism(
            source=m1.target,
            target=one_point_space(),
            point_map=(0, 0),
            fstar=(0,),
        )
        comp = compose_morphisms(m2, m1)
        e_src = TypeEngine(m1.source)
        e_mid = TypeEngine(m1.target)
        e_tgt = TypeEngine(m2.target)
        t1 = morphism_type_map(m1, e_src, e_mid)
        t2 = morphism_type_map(m2, e_mid, e_tgt)
        tc = morphism_type_map(comp, e_src, e_tgt)
        for aset in e_tgt.statspace.space.all_measurable_sets():
            beta = e_tgt.type_of(aset)
            assert e_src.decide_equal(tc(beta), t1(t2(beta))).verdict == EQUAL

    def test_commutativity_of_measurement(self):
        # measuring the preimage equals mapping the measured type
        m = parity_to_two_point_morphism()
        src_eng = TypeEngine(m.source)
        tgt_eng = TypeEngine(m.target)
        tmap = morphism_type_map(m, src_eng, tgt_eng)
        for b in range(tgt_eng.n):
            bset = frozenset({b})
            lhs = src_eng.type_of(m.preimage_atomset(bset))
            rhs = tmap(tgt_eng.type_of(bset))
            assert src_eng.decide_equal(lhs, rhs).verdict == EQUAL
