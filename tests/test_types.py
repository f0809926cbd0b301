import itertools

import pytest

from typemonoid.congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, Budget, Decision, ExtVec
from typemonoid.corpus import (
    collapse_space,
    cyclic4_space,
    one_point_space,
    parity_space,
    parity_to_two_point_morphism,
    two_point_space,
)
from typemonoid.errors import MalformedCertificateError, SpaceMismatchError
from typemonoid.lattice import enumerate_idempotents, idempotent_of
from typemonoid.measures import hierarchical_measure
from typemonoid.spaces import StatMorphism, compose_morphisms, identity_morphism, pullback
from typemonoid.types import (
    AbarElement,
    AuditEntry,
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
    return AbarElement(eng.statspace, _pull_back(eng._vec(p), eng.statspace.atom_maps[s]))


def g_elem(ss, point_map):
    return next(s for s in range(ss.monoid.order) if ss.action[s] == point_map)


class TestRelationBasis:
    def test_trivial_monoid_identity_relations(self):
        rels = relation_basis(one_point_space())
        assert all(r.lhs == r.rhs for r in rels)

    def test_collapse_relations(self):
        rels = relation_basis(collapse_space())
        pairs = {(r.lhs, r.rhs) for r in rels}
        assert ((1, 0), (1, 1)) in pairs
        assert ((0, 1), (0, 0)) in pairs
        assert ((1, 0), (1, 0)) in pairs  # identity move

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
        with pytest.raises(SpaceMismatchError):
            parity_engine().abar_of_set(frozenset({9}))

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
        "omega_normalize": lambda eng, x: eng.omega_normalize(x).vec,
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
        assert t.rep == value  # already normal, so all three name one vector
        forms = [value, AbarElement(eng.statspace, value), t]
        results = [self.OPS[op](eng, x) for x in forms]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("where", ["idempotent_of", "hierarchical_measure"])
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
            else:
                hierarchical_measure(eng, lat.bottom, x)

    @pytest.mark.parametrize("form", [list, tuple])
    def test_atom_sets_must_be_sets(self, form):
        # a list or tuple means multiplicities, so it is no atom set
        eng = parity_engine()
        with pytest.raises(TypeError):
            eng.type_of(form([0, 1, 2, 3]))
        with pytest.raises(TypeError):
            eng.abar_of_set(form([0, 1, 2, 3]))

    def test_set_and_list_readings(self):
        eng = parity_engine()
        lat = enumerate_idempotents(eng)
        assert eng.type_of({0, 1, 2, 3}).rep == ExtVec((1, 1, 1, 1))
        assert eng.abar_of_set({0, 1}).vec == ExtVec((1, 1, 0, 0))
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
            d = eng.congruence._support_refutation(p, q, Budget(), order)
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
        eng = collapse_engine()
        one, null = eng.abar((1, 0)).vec, eng.abar((0, 0), omega={1}).vec
        assert eng.decide_equal(one, one).witness == {"kind": "syntactic"}
        assert eng.decide_leq(eng.abar_zero(), one).witness == {"kind": "zero-bottom"}
        counts = eng.audit_decisions()
        assert (counts["syntactic"], counts["zero-bottom"], counts["other"]) == (1, 1, 0)
        syntactic, zero = {"kind": "syntactic"}, {"kind": "zero-bottom"}
        for op, left, right, verdict, tampered in (
            ("eq", one, eng.abar((2, 0)).vec, EQUAL, syntactic),  # sides differ
            ("eq", null, null, EQUAL, syntactic),  # equal, but not finite
            ("leq", one, one, LEQ, zero),  # left side is not zero
            ("leq", null, one, LEQ, zero),  # omega on the null atom stays omega
            ("eq", eng.abar_zero().vec, eng.abar_zero().vec, EQUAL, zero),  # not an order
        ):
            eng.audit_log[:] = [AuditEntry(op, left, right, Decision(verdict, tampered, Budget()))]
            with pytest.raises(AssertionError):
                eng.audit_decisions()


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
        assert (counts["path"], counts["domination"], counts["other"]) == (1, 1, 0)
        inner = leq.witness["finite"]
        for op, d, tampered in (
            ("eq", eq, {**eq.witness, "support": frozenset({1})}),  # not closed
            ("eq", eq, {**eq.witness, "support": frozenset()}),  # misses the omega sets
            # closed and holding both omega sets, but it absorbs e0 and e2
            ("eq", eq, {**eq.witness, "support": frozenset({0, 1, 2, 3})}),
            ("leq", leq, {**leq.witness, "support": frozenset({0, 1, 2, 3})}),
            ("eq", eq, {**eq.witness, "finite": {**eq.witness["finite"], "start": (0, 0, 1, 0)}}),
            ("leq", leq, {**leq.witness, "finite": {**inner, "start_right": (1, 0, 0, 0)}}),
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
