import itertools
import random

import pytest

from typemonoid.congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, ExtVec
from typemonoid.corpus import (
    collapse_space,
    cyclic4_space,
    fixture_spaces,
    one_point_space,
    parity_space,
    random_corpus,
    two_point_space,
)
from typemonoid.errors import ContractError, SpaceMismatchError
from typemonoid.lattice import (
    LATTICE_LIMIT,
    IdempotentLattice,
    LatticeError,
    QuantityElement,
    canonical_idempotent,
    check_distributive,
    embed,
    enumerate_idempotents,
    grothendieck_diff,
    idempotent_of,
    quantity_add,
    quantity_eq,
    quantity_neg,
    quantity_zero,
    scale_covers,
)
from typemonoid.serial import space_from_dict
from typemonoid.spaces import build_space, with_trivial_symmetry
from typemonoid.types import TypeEngine

from conftest import structure_spaces
from lattice_oracle import (
    enumerate_by_subsets,
    is_meet_over_join_failure,
    join_idempotents,
    meet_by_realizations,
    random_closure_lattice,
    reference_distributive,
)


def engine_and_lattice(ss):
    eng = TypeEngine(ss)
    return eng, enumerate_idempotents(eng)


def by_support(lat, *atoms):
    return next(e for e in lat if e.omega_support == frozenset(atoms))


def certify(eng, v):
    """The scale e of a vector the engine has not yet certified, and the
    audit entries that certify it: e <= v decided leq, then each upper
    cover of e in order, decided not_leq."""
    before = len(eng.audit_log)
    e = idempotent_of(eng, v)
    covers = scale_covers(eng, e)
    tail = eng.audit_log[before:]
    rep = eng.type_of_abar(v).rep
    assert [(x.op, x.left, x.right, x.decision.verdict) for x in tail] == [
        ("leq", f.vec, rep, LEQ if f is e else NOT_LEQ) for f in [e] + covers
    ]
    return e, tail


class TestEnumerate:
    def test_one_point_chain(self):
        eng, lat = engine_and_lattice(one_point_space())
        assert len(lat) == 2
        assert lat.bottom.omega_support == frozenset()
        assert lat.top.omega_support == frozenset({0})

    def test_parity_diamond(self):
        eng, lat = engine_and_lattice(parity_space())
        assert len(lat) == 4
        supports = {e.omega_support for e in lat}
        assert supports == {
            frozenset(),
            frozenset({0, 2}),
            frozenset({1, 3}),
            frozenset({0, 1, 2, 3}),
        }
        e_even = by_support(lat, 0, 2)
        e_odd = by_support(lat, 1, 3)
        assert not lat.leq(e_even, e_odd) and not lat.leq(e_odd, e_even)

    def test_collapse_chain(self):
        eng, lat = engine_and_lattice(collapse_space())
        assert len(lat) == 2
        assert lat.top.omega_support == frozenset({0, 1})

    def test_cyclic_chain(self):
        eng, lat = engine_and_lattice(cyclic4_space())
        assert len(lat) == 2

    def test_idempotent_laws(self):
        eng, lat = engine_and_lattice(parity_space())
        for e in lat:
            t = eng.type_of_abar(eng.abar((0,) * eng.n, e.omega_support))
            for k in range(2, 5):
                assert eng.decide_equal(eng.type_scale(k, t), t).verdict == EQUAL


class TestMeetJoin:
    def test_bound_laws(self):
        eng, lat = engine_and_lattice(parity_space())
        for e in lat:
            assert lat.meet(e, lat.top) == e
            assert lat.join(e, lat.bottom) == e
            assert lat.meet(e, e) == e

    def test_parity_diamond_ops(self):
        eng, lat = engine_and_lattice(parity_space())
        e_even = by_support(lat, 0, 2)
        e_odd = by_support(lat, 1, 3)
        assert lat.meet(e_even, e_odd) == lat.bottom
        assert lat.join(e_even, e_odd) == lat.top

    def test_join_is_sum(self):
        for ss in (parity_space(), collapse_space(), cyclic4_space()):
            eng, lat = engine_and_lattice(ss)
            for e in lat:
                for f in lat:
                    assert join_idempotents(eng, lat, e, f) == lat.join(e, f)

    def test_meet_universal_property(self):
        eng, lat = engine_and_lattice(parity_space())
        for e in lat:
            for f in lat:
                m = lat.meet(e, f)
                assert lat.leq(m, e) and lat.leq(m, f)
                for g in lat:
                    if lat.leq(g, e) and lat.leq(g, f):
                        assert lat.leq(g, m)

    def test_meet_oracle_agreement(self):
        for ss in (parity_space(), collapse_space(), one_point_space()):
            eng, lat = engine_and_lattice(ss)
            for e in lat:
                for f in lat:
                    got = meet_by_realizations(eng, e, f)
                    assert got == lat.meet(e, f), (ss.space.atom_labels, e, f)


class TestDistributive:
    def test_parity_and_chains(self):
        for ss in (parity_space(), collapse_space(), cyclic4_space(), one_point_space()):
            eng, lat = engine_and_lattice(ss)
            ok, why = check_distributive(lat)
            assert ok, why

    def test_m3_counterexample(self):
        # the diamond M3: on three points, any two atoms close to all three
        lat = IdempotentLattice(3, lambda s: s if len(s) <= 1 else frozenset(range(3)))
        assert len(lat) == 5 and len(lat.minimal_above(lat.bottom)) == 3
        ok, why = check_distributive(lat)
        assert not ok
        assert why["law"] in ("meet-over-join", "join-over-meet")

    def test_each_law_pair_reports_its_own_counterexample(self):
        # the pentagon N5 as closed sets: {1} closes to {0, 1}, so the
        # step to w[0,1] from the bottom is no cover.  Both lattices fail
        # meet-over-join at their first join-irreducible that is not
        # join-prime: w[0,1] lies below w[0] v w[2] but below neither
        closed = [frozenset(), frozenset({0}), frozenset({2}), frozenset({0, 1}), frozenset({0, 1, 2})]
        n5 = IdempotentLattice(3, lambda s: min((c for c in closed if s <= c), key=len))
        assert [str(e) for e in n5.minimal_above(n5.bottom)] == ["w[0]", "w[2]"]
        assert len(n5.covers()) == 5
        ok, why = check_distributive(n5)
        assert not ok
        assert {k: str(v) for k, v in why.items()} == {
            "law": "meet-over-join", "a": "w[0,1]", "b": "w[0]", "c": "w[2]",
            "lhs": "w[0,1]", "rhs": "w[0]",
        }
        m3 = IdempotentLattice(3, lambda s: s if len(s) <= 1 else frozenset(range(3)))
        ok, why = check_distributive(m3)
        assert not ok
        assert {k: str(v) for k, v in why.items()} == {
            "law": "meet-over-join", "a": "w[0]", "b": "w[1]", "c": "w[2]",
            "lhs": "w[0]", "rhs": "bot",
        }

    def test_agrees_with_the_four_law_reference_on_the_corpora(self):
        for name, ss in structure_spaces():
            lat = enumerate_idempotents(TypeEngine(ss))
            assert check_distributive(lat) == reference_distributive(lat) == (True, None), name

    def test_agrees_with_the_four_law_reference_on_random_closure_systems(self):
        rng = random.Random(28)
        verdicts = []
        for _ in range(400):
            lat = random_closure_lattice(rng, rng.randint(2, 5))
            ok, why = check_distributive(lat)
            assert ok == reference_distributive(lat)[0], lat.closed
            assert ok or is_meet_over_join_failure(lat, why), (lat.closed, why)
            verdicts.append(ok)
        assert 50 < verdicts.count(False) < 350

    def test_256_elements_within_j_times_l_closures(self):
        # trivial symmetry on 8 atoms: every atom set is closed, and the
        # 8 singletons are the join-irreducibles
        lat = enumerate_idempotents(TypeEngine(with_trivial_symmetry(
            build_space([str(i) for i in range(8)], [[i] for i in range(8)]))))
        lower = [b for _, b in lat.covers()]
        irreducible = [e for e in lat if lower.count(e) == 1]
        assert (len(lat), len(irreducible)) == (256, 8)
        calls = []
        close = lat.closure
        lat.closure = lambda s: calls.append(s) or close(s)
        assert check_distributive(lat) == (True, None)
        assert 0 < len(calls) <= len(irreducible) * len(lat)

    def test_dot_export(self):
        eng, lat = engine_and_lattice(parity_space())
        dot = lat.to_dot()
        assert dot.count("->") == 4
        assert "w[0,2]" in dot


class TestIdempotentOf:
    def test_finite_vector_scale_zero(self):
        eng, lat = engine_and_lattice(parity_space())
        assert idempotent_of(eng, eng.abar((2, 1, 0, 0))) == lat.bottom

    def test_parity_mixed(self):
        eng, lat = engine_and_lattice(parity_space())
        got = idempotent_of(eng, eng.abar((0, 1, 0, 0), omega={0, 2}))
        assert got == by_support(lat, 0, 2)

    def test_top(self):
        eng, lat = engine_and_lattice(parity_space())
        assert idempotent_of(eng, eng.abar((0,) * 4, omega=range(4))) == lat.top

    def test_null_support_canonicalizes_to_bottom(self):
        eng, lat = engine_and_lattice(collapse_space())
        assert idempotent_of(eng, eng.abar((0, 0), omega={1})) == lat.bottom
        assert canonical_idempotent(eng, frozenset({1})) == lat.bottom

    def test_certified_scale_matches_lattice_scan(self):
        rng = random.Random(11)
        spaces = list(fixture_spaces().values())
        spaces += [e.statspace for e in random_corpus(seed=5)]
        for ss in spaces:
            eng, lat = engine_and_lattice(ss)
            vecs = _seeded_vectors(rng, eng.n, 6)
            vecs += [ExtVec((0,) * eng.n, e.omega_support) for e in lat]
            for v in vecs:
                assert idempotent_of(eng, v) == _scanned_scale(eng, lat, v), (ss, v)


def _scanned_scale(eng, lat, alpha):
    """The largest idempotent below alpha, found by ordering every
    idempotent of the lattice against alpha."""
    t = eng.type_of_abar(alpha)
    below = []
    for f in lat:
        d = eng.decide_leq(eng.type_of_abar(f.vec), t)
        assert d.is_definite()
        if d.verdict == LEQ:
            below.append(f)
    maxima = [f for f in below if all(lat.leq(g, f) for g in below)]
    assert len(maxima) == 1
    return maxima[0]


class TestIsotropy:
    def test_zero(self):
        eng, lat = engine_and_lattice(parity_space())
        e, tail = certify(eng, eng.abar_zero())
        assert e == lat.bottom and len(tail) == 1 + len(lat.minimal_above(e))

    def test_parity_cells(self):
        eng, lat = engine_and_lattice(parity_space())
        e_even = by_support(lat, 0, 2)
        e, _ = certify(eng, eng.abar((0, 1, 0, 0), omega={0, 2}))
        assert e == e_even
        e, tail = certify(eng, eng.abar((0,) * 4, omega=range(4)))
        assert e == lat.top and len(tail) == 1  # the top has no cover

    def test_every_type_lands_in_exactly_one_cell(self):
        eng, lat = engine_and_lattice(parity_space())
        samples = [eng.abar(v) for v in [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 0)]]
        samples += [eng.abar((0, 1, 0, 0), omega={0}), eng.abar((0,) * 4, omega={1, 3})]
        for p in samples:
            t = eng.type_of_abar(p)
            cells = []
            for e in lat:
                above = eng.decide_leq(
                    eng.abar((0,) * eng.n, e.omega_support), t
                ).verdict == LEQ
                finer = any(
                    eng.decide_leq(eng.abar((0,) * eng.n, f.omega_support), t).verdict == LEQ
                    for f in lat if e != f and lat.leq(e, f)
                )
                if above and not finer:
                    cells.append(e)
            assert len(cells) == 1
            assert cells[0] == idempotent_of(eng, p)

    def test_cancellativity_within_cell(self):
        eng, lat = engine_and_lattice(parity_space())
        # all at scale bottom, classes tracked exactly by (evens, odds) counts
        triples = itertools.product([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], repeat=3)
        for a, b, c in triples:
            ac = eng.abar(a) + eng.abar(c)
            bc = eng.abar(b) + eng.abar(c)
            if eng.decide_equal(ac, bc).verdict == EQUAL:
                assert eng.decide_equal(eng.abar(a), eng.abar(b)).verdict == EQUAL

    def test_unit_law_of_cell(self):
        eng, lat = engine_and_lattice(parity_space())
        e_even = by_support(lat, 0, 2)
        a = eng.abar((0, 2, 0, 0), omega={0, 2})  # at scale e_even
        ae = a + eng.abar((0,) * 4, e_even.omega_support)
        assert eng.decide_equal(a, ae).verdict == EQUAL

    def test_idempotent_between_iff_absorbed(self):
        # a + b = b exactly when some idempotent separates a from b
        eng, lat = engine_and_lattice(parity_space())
        vecs = [
            eng.abar((1, 0, 0, 0)),
            eng.abar((0, 2, 0, 0)),
            eng.abar((0, 1, 0, 0), omega={0, 2}),
            eng.abar((0,) * 4, omega={0, 2}),
            eng.abar((0,) * 4, omega=range(4)),
        ]
        for a, b in itertools.product(vecs, repeat=2):
            absorbed = eng.decide_equal(a + b, b).verdict == EQUAL
            ta, tb = eng.type_of_abar(a), eng.type_of_abar(b)
            between = any(
                eng.decide_leq(ta, eng.type_of_abar(eng.abar((0,) * 4, e.omega_support))).verdict == LEQ
                and eng.decide_leq(eng.abar((0,) * 4, e.omega_support), tb).verdict == LEQ
                for e in lat
            )
            assert absorbed == between, (a.vec, b.vec)


def _seeded_vectors(rng, n, count):
    out = []
    for _ in range(count):
        omega = frozenset(i for i in range(n) if rng.random() < 0.3)
        out.append(ExtVec(tuple(0 if i in omega else rng.randint(0, 2) for i in range(n)), omega))
    return out


class TestScaleCertificateCache:
    def test_one_certificate_per_distinct_vector(self):
        eng = TypeEngine(cyclic4_space())
        vecs = list(dict.fromkeys(_seeded_vectors(random.Random(3), eng.n, 12)))
        k = len(vecs)
        rng = random.Random(4)
        calls = vecs + [rng.choice(vecs) for _ in range(50 - k)]
        for i, v in enumerate(calls):
            # the ExtVec and AbarElement forms of a vector are one key
            idempotent_of(eng, v if i % 2 else eng.abar(v.finite, v.omega))
        assert eng.stats == {"scale_certificates": k, "scale_lookups": 50 - k}
        # quantity arithmetic asks through the same certificates
        x, y = embed(eng, vecs[0]), embed(eng, vecs[1])
        quantity_add(eng, x, y)
        made = eng.stats["scale_certificates"]
        quantity_add(eng, x, y)
        assert eng.stats["scale_certificates"] == made

    def test_warmed_lattice_matches_fresh_engine(self):
        rng = random.Random(17)
        spaces = list(fixture_spaces().values())
        spaces += [e.statspace for e in random_corpus(seed=5, count=12)][:4]
        lookups = 0
        for ss in spaces:
            eng = TypeEngine(ss)
            vecs = list(dict.fromkeys(_seeded_vectors(rng, eng.n, 6)))
            first = {v: certify(eng, v) for v in vecs}
            for v in vecs[::-1]:
                idempotent_of(eng, v)
            for v in vecs:
                embed(eng, v)
            lookups += eng.stats["scale_lookups"]
            for v in vecs:
                e, tail = first[v]
                fe, fresh = certify(TypeEngine(ss), v)
                assert idempotent_of(eng, v) == e == fe
                assert [(x.left, x.right, x.decision.verdict) for x in tail] == [
                    (x.left, x.right, x.decision.verdict) for x in fresh
                ]
        assert lookups > 0

    def test_foreign_value_raises_with_equal_vector_cached(self):
        eng = TypeEngine(collapse_space())
        other = TypeEngine(two_point_space())
        v = ExtVec((1, 0))
        idempotent_of(eng, v)
        with pytest.raises(SpaceMismatchError):
            idempotent_of(eng, other.abar(v.finite))
        with pytest.raises(SpaceMismatchError):
            idempotent_of(eng, other.type_of_abar(v))
        idempotent_of(eng, eng.abar(v.finite))
        assert eng.stats == {"scale_certificates": 1, "scale_lookups": 1}


class TestCompleteIsotropy:
    """The infinity points of a scale are its upper covers."""

    def test_one_point(self):
        eng, lat = engine_and_lattice(one_point_space())
        assert lat.minimal_above(lat.bottom) == [lat.top]

    def test_parity(self):
        eng, lat = engine_and_lattice(parity_space())
        assert lat.minimal_above(lat.bottom) == [by_support(lat, 0, 2), by_support(lat, 1, 3)]
        assert lat.minimal_above(by_support(lat, 0, 2)) == [lat.top]
        assert lat.minimal_above(lat.top) == []


class TestQuantity:
    def test_grothendieck_cancellation(self):
        eng = TypeEngine(parity_space())
        x = grothendieck_diff(eng, eng.abar((2, 1, 0, 0)), eng.abar((1, 1, 0, 0)))
        y = grothendieck_diff(eng, eng.abar((1, 0, 0, 0)), eng.abar_zero())
        assert quantity_eq(eng, x, y).verdict == EQUAL

    def test_cross_scale_rejected(self):
        eng = TypeEngine(parity_space())
        with pytest.raises(ContractError):
            grothendieck_diff(
                eng, eng.abar((1, 0, 0, 0)), eng.abar((0,) * 4, omega={0, 2})
            )

    def test_scale_mismatch_not_equal(self):
        eng = TypeEngine(parity_space())
        x = embed(eng, eng.abar((1, 0, 0, 0)))
        y = embed(eng, eng.abar((0,) * 4, omega={0, 2}))
        d = quantity_eq(eng, x, y)
        assert d.verdict == NOT_EQUAL and d.witness["kind"] == "scale"

    def test_group_axioms_scale_zero(self):
        eng, lat = engine_and_lattice(parity_space())
        vals = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
        elems = [
            grothendieck_diff(eng, eng.abar(a), eng.abar(b))
            for a, b in itertools.product(vals, repeat=2)
        ]
        zero = quantity_zero(eng, lat.bottom)
        for x in elems[:4]:
            assert quantity_eq(eng, quantity_add(eng, x, zero), x).verdict == EQUAL
            inv = quantity_add(eng, x, quantity_neg(x))
            assert quantity_eq(eng, inv, zero).verdict == EQUAL
        for x, y in itertools.combinations(elems[:4], 2):
            lhs = quantity_add(eng, x, y)
            rhs = quantity_add(eng, y, x)
            assert quantity_eq(eng, lhs, rhs).verdict == EQUAL
        x, y, z = elems[0], elems[3], elems[5]
        lhs = quantity_add(eng, quantity_add(eng, x, y), z)
        rhs = quantity_add(eng, x, quantity_add(eng, y, z))
        assert quantity_eq(eng, lhs, rhs).verdict == EQUAL

    def test_regularity(self):
        eng = TypeEngine(parity_space())
        x = grothendieck_diff(eng, eng.abar((2, 0, 0, 0)), eng.abar((0, 1, 0, 0)))
        back = quantity_add(eng, quantity_add(eng, x, quantity_neg(x)), x)
        assert quantity_eq(eng, back, x).verdict == EQUAL

    def test_cross_scale_addition_coarsens(self):
        eng, lat = engine_and_lattice(parity_space())
        x = embed(eng, eng.abar((0, 1, 0, 0), omega={0, 2}))
        y = embed(eng, eng.abar((1, 0, 0, 0), omega={1, 3}))
        s = quantity_add(eng, x, y)
        assert s.scale == lat.top
        assert quantity_eq(eng, s, quantity_zero(eng, lat.top)).verdict == EQUAL

    def test_embed_additive(self):
        eng = TypeEngine(parity_space())
        samples = [
            eng.abar((1, 0, 0, 0)),
            eng.abar((0, 2, 0, 0)),
            eng.abar((0, 1, 0, 0), omega={0, 2}),
            eng.abar((0,) * 4, omega={1, 3}),
        ]
        for a, b in itertools.product(samples, repeat=2):
            lhs = embed(eng, a + b)
            rhs = quantity_add(eng, embed(eng, a), embed(eng, b))
            assert quantity_eq(eng, lhs, rhs).verdict == EQUAL

    def test_embed_injective_on_samples(self):
        eng = TypeEngine(parity_space())
        samples = [
            eng.abar((0, 0, 0, 0)),
            eng.abar((1, 0, 0, 0)),
            eng.abar((0, 1, 0, 0)),
            eng.abar((1, 1, 0, 0)),
            eng.abar((2, 0, 0, 0)),
            eng.abar((0, 1, 0, 0), omega={0, 2}),
            eng.abar((0,) * 4, omega={0, 2}),
            eng.abar((0,) * 4, omega=range(4)),
        ]
        for a, b in itertools.combinations(samples, 2):
            same_type = eng.decide_equal(a, b).verdict == EQUAL
            same_embed = quantity_eq(
                eng, embed(eng, a), embed(eng, b)
            ).verdict == EQUAL
            assert same_type == same_embed, (a.vec, b.vec)


def _coarsened_add(eng, x, y):
    """quantity_add by coarsening each of the four operands to the join g
    of the two scales and certifying it there, then adding and
    certifying both sums."""
    g = canonical_idempotent(eng, x.scale.omega_support | y.scale.omega_support)

    def at_g(v):
        got = idempotent_of(eng, v)
        if got != g:
            raise ContractError(f"operand has scale {got}, expected {g}")
        return v

    def coarsen(v):
        return at_g(eng.omega_normalize(v.add(g.vec)))

    plus = at_g(eng.omega_normalize(coarsen(x.plus).add(coarsen(y.plus))))
    minus = at_g(eng.omega_normalize(coarsen(x.minus).add(coarsen(y.minus))))
    return QuantityElement(g, plus, minus)


class TestQuantityAddOracle:
    def test_sums_match_coarsening_first(self):
        """quantity_add gives the coarsen-first sums and raises on the same
        inputs, on embedded elements and on pairs claiming a random scale."""
        rng = random.Random(23)
        spaces = list(fixture_spaces().values())
        spaces += [e.statspace for e in random_corpus(seed=5, count=12) if e.statspace.n_atoms <= 3]
        outcomes = set()
        for ss in spaces:
            eng, lat = engine_and_lattice(ss)
            vecs = _seeded_vectors(rng, eng.n, 6)
            elems = [embed(eng, v) for v in vecs]
            elems += [
                QuantityElement(rng.choice(lat.elements), eng.omega_normalize(a),
                                eng.omega_normalize(b))
                for a, b in zip(vecs, reversed(vecs))
            ]
            for x, y in itertools.product(elems, repeat=2):
                try:
                    want = _coarsened_add(eng, x, y)
                except ContractError:
                    with pytest.raises(ContractError):
                        quantity_add(eng, x, y)
                    outcomes.add("raises")
                    continue
                assert quantity_add(eng, x, y) == want, (ss, x, y)
                outcomes.add("sum")
        assert outcomes == {"sum", "raises"}


class TestCorpusLattices:
    def test_small_corpus_lattices_distributive(self):
        entries = [e for e in random_corpus(count=30) if e.statspace.n_atoms <= 4][:12]
        assert len(entries) >= 8
        for entry in entries:
            eng = TypeEngine(entry.statspace)
            lat = enumerate_idempotents(eng)
            ok, why = check_distributive(lat)
            assert ok, (entry.name, why)
            for e in lat:
                for f in lat:
                    assert join_idempotents(eng, lat, e, f) == lat.join(e, f)

    def test_meet_oracle_on_tiny_corpus(self):
        entries = [e for e in random_corpus(count=30) if e.statspace.n_atoms <= 3][:6]
        for entry in entries:
            eng = TypeEngine(entry.statspace)
            lat = enumerate_idempotents(eng)
            for e in lat:
                for f in lat:
                    got = meet_by_realizations(eng, e, f)
                    assert got == lat.meet(e, f), (entry.name, e, f)


class TestLatticeOracle:
    """The lattice read off support closures against the engine's
    decisions: e <= f is decide_equal(e + f, f), and omega over a support
    equals exactly one element, its canonical idempotent."""

    @staticmethod
    def _spaces():
        return list(fixture_spaces().values()) + [e.statspace for e in random_corpus(seed=5)]

    def test_order_is_decided_absorption(self):
        for ss in self._spaces():
            eng, lat = engine_and_lattice(ss)
            for e in lat:
                for f in lat:
                    d = eng.decide_equal(e.vec.add(f.vec), f.vec)
                    assert d.is_definite()
                    assert (d.verdict == EQUAL) == (e.omega_support <= f.omega_support), (e, f)
                    assert lat.leq(e, f) == (e.omega_support <= f.omega_support)

    def test_canonical_idempotent_matches_decided_scan(self):
        for ss in self._spaces():
            eng, lat = engine_and_lattice(ss)
            for r in range(eng.n + 1):
                for combo in itertools.combinations(range(eng.n), r):
                    w = ExtVec((0,) * eng.n, frozenset(combo))
                    equal = [f for f in lat if eng.decide_equal(w, f.vec).verdict == EQUAL]
                    assert equal == [canonical_idempotent(eng, frozenset(combo))], (ss, combo)


def trivial_space(n):
    """n singleton atoms and no symmetry: every atom set is closed."""
    return with_trivial_symmetry(build_space([str(i) for i in range(n)], [[i] for i in range(n)]))


def cyclic_space(n):
    """n singleton atoms rotated by one generator."""
    return space_from_dict({
        "points": [str(i) for i in range(n)],
        "atoms": [[i] for i in range(n)],
        "generators": [{str(i): (i + 1) % n for i in range(n)}],
    })


class TestClosureWalk:
    """The lattice walked by one-atom closure steps against the oracle
    that closes every atom subset and builds a generic poset."""

    def test_differential_against_subset_oracle(self):
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        for ss in spaces:
            eng, lat = engine_and_lattice(ss)
            ref = enumerate_by_subsets(TypeEngine(ss))
            assert lat.elements == ref.elements, ss
            assert (lat.bottom, lat.top) == (ref.bottom, ref.top)
            for e in lat:
                assert lat.minimal_above(e) == ref.minimal_above(e)
                for f in lat:
                    assert lat.leq(e, f) == ref.leq(e, f)
                    assert lat.meet(e, f) == ref.meet(e, f)
                    assert lat.join(e, f) == ref.join(e, f)
            assert lat.covers() == ref.covers()
            assert lat.to_dot() == ref.to_dot()

    def test_certificates_exclude_exactly_the_covers(self):
        rng = random.Random(23)
        spaces = list(fixture_spaces().values())
        spaces += [e.statspace for e in random_corpus(seed=7, count=12)]
        for ss in spaces:
            eng, lat = engine_and_lattice(ss)
            vecs = _seeded_vectors(rng, eng.n, 6) + [e.vec for e in lat]
            for v in dict.fromkeys(vecs):
                e, tail = certify(eng, v)
                assert [x.left for x in tail[1:]] == [f.vec for f in lat.minimal_above(e)]

    def test_scale_covers_and_joins_match_the_lattice(self):
        # what one scale needs is read off the support closure alone
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        for ss in spaces:
            eng, lat = engine_and_lattice(ss)
            ref = enumerate_by_subsets(TypeEngine(ss))
            for e in lat:
                assert scale_covers(eng, e) == lat.minimal_above(e) == ref.minimal_above(e)
                for f in lat:
                    joined = canonical_idempotent(eng, e.omega_support | f.omega_support)
                    assert joined == lat.join(e, f) == ref.join(e, f)

    def test_scale_needs_no_lattice(self):
        # 2^20 closed supports, yet a scale is certified against at most 20 covers
        eng = TypeEngine(trivial_space(20))
        e, tail = certify(eng, eng.abar_of_set({0}))
        assert e.omega_support == frozenset() and len(tail) == 1 + 20
        e, tail = certify(eng, eng.abar((1,) + (0,) * 19, omega={3, 5}))
        assert e.omega_support == frozenset({3, 5})
        assert [x.left.omega for x in tail[1:]] == [
            frozenset({3, 5, b}) for b in range(20) if b not in (3, 5)
        ]

    def test_walk_closes_at_most_L_times_n_sets(self):
        eng = TypeEngine(cyclic_space(16))
        memo = eng.congruence._support_memo
        before = len(memo)
        lat = enumerate_idempotents(eng)
        assert len(lat) == 2
        assert len(memo) - before <= len(lat) * eng.n + 1

    def test_size_guard(self):
        with pytest.raises(LatticeError, match=str(LATTICE_LIMIT)):
            enumerate_idempotents(TypeEngine(trivial_space(20)))

    def test_eight_atoms_stay_inside_the_guard(self):
        lat = enumerate_idempotents(TypeEngine(trivial_space(8)))
        assert len(lat) == LATTICE_LIMIT == 256
        assert len(lat.minimal_above(lat.bottom)) == 8
