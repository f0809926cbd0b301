import itertools
from fractions import Fraction

import pytest

from typemonoid import congruence
from typemonoid.congruence import (
    EQUAL,
    LEQ,
    NOT_EQUAL,
    NOT_LEQ,
    Budget,
    Congruence,
    ExtVec,
    unit_vec,
)
from typemonoid.corpus import (
    collapse_space,
    cyclic4_space,
    fixture_spaces,
    one_point_space,
    parity_space,
    random_corpus,
    statspace_from_partial_maps,
)
from typemonoid.errors import (
    AmbiguousMaximumError,
    ContractError,
    NormalizationImpossibleError,
)
from typemonoid.lattice import IdempotentElement, embed, enumerate_idempotents, quantity_eq
from typemonoid.measures import (
    INF,
    ExtendedRationalTarget,
    RationalStationaryMeasure,
    TMeasureSpec,
    classify_T_measure,
    colimit_increasing,
    continuity_suite,
    cross_check_tarski,
    decreasing_limit_with_scale,
    extend_T_measure,
    hierarchical_eq,
    hierarchical_measure,
    is_paradoxical,
    null_ideal,
    synthesize_classical_measure,
    tarski_T_measure,
)
from typemonoid.lp import exact_lp_feasible
from typemonoid.partial_bijection import PartialBijection
from typemonoid.spaces import build_space, pullback, with_trivial_symmetry
from typemonoid.types import TypeEngine, relation_basis


def setup_space(ss):
    eng = TypeEngine(ss)
    return eng, enumerate_idempotents(eng)


def by_support(lat, *atoms):
    return next(e for e in lat if e.omega_support == frozenset(atoms))


def measure_to_T_spec(measure):
    """A classical measure as a measure valued in the extended rationals."""
    assignment = tuple(
        INF if a in measure.infinite_atoms else measure.finite_values[a]
        for a in range(measure.statspace.n_atoms)
    )
    return TMeasureSpec(measure.statspace, ExtendedRationalTarget(), assignment)


def zero_T_measure(ss):
    return TMeasureSpec(ss, ExtendedRationalTarget(), (Fraction(0),) * ss.n_atoms)


def check_null_ideal_closure(ideal):
    """Where a null ideal fails to be an ideal: a missing subset of a
    member, or a missing union of two members."""
    problems = []
    members = set(ideal)
    for n_set in members:
        for r in range(len(n_set) + 1):
            for sub in itertools.combinations(sorted(n_set), r):
                if frozenset(sub) not in members:
                    problems.append(f"subset {sub} of {sorted(n_set)} missing")
    for a in members:
        for b in members:
            if (a | b) not in members:
                problems.append(f"union of {sorted(a)} and {sorted(b)} missing")
    return problems


class TestIsParadoxical:
    def test_empty_degenerate(self):
        eng = TypeEngine(parity_space())
        assert is_paradoxical(eng, frozenset()).verdict == LEQ

    def test_parity_whole_space(self):
        eng = TypeEngine(parity_space())
        d = is_paradoxical(eng, frozenset(range(4)))
        assert d.verdict == NOT_LEQ
        assert d.witness["kind"] == "functional"

    def test_collapse_atom(self):
        eng = TypeEngine(collapse_space())
        assert is_paradoxical(eng, frozenset({0})).verdict == NOT_LEQ
        # the null atom is degenerately paradoxical
        assert is_paradoxical(eng, frozenset({1})).verdict == LEQ


class TestSynthesize:
    def test_empty_rejected(self):
        with pytest.raises(NormalizationImpossibleError):
            synthesize_classical_measure(parity_space(), frozenset())

    def test_parity_whole_space(self):
        ss = parity_space()
        m = synthesize_classical_measure(ss, frozenset(range(4)))
        assert m is not None
        assert not m.check()
        assert m.value(frozenset(range(4))) == 1
        # swap symmetry forces equality across each orbit
        assert m.finite_values[0] == m.finite_values[2]
        assert m.finite_values[1] == m.finite_values[3]

    def test_collapse_main_atom(self):
        ss = collapse_space()
        m = synthesize_classical_measure(ss, frozenset({0}))
        assert m is not None
        assert m.finite_values == (Fraction(1), Fraction(0))
        assert m.infinite_atoms == frozenset()

    def test_collapse_null_atom_fails(self):
        ss = collapse_space()
        rep = synthesize_classical_measure(ss, frozenset({1}), want_report=True)
        assert rep.measure is None
        assert len(rep.stages) == 1
        assert all(not st["feasible"] for st in rep.stages)
        assert all(st["farkas"] is not None for st in rep.stages)

    def test_measure_value_inf(self):
        ss = parity_space()
        m = RationalStationaryMeasure(
            ss, (Fraction(0),) * 4, frozenset({0, 2})
        )
        assert m.value(frozenset({0})) == INF
        assert m.value(frozenset({1, 3})) == 0
        assert not m.check()  # infinite evens, zero odds is stationary

    def test_mixed_set_needs_no_infinite_stage(self):
        # the collapse relation makes x0 = x0 + x1, so normalizing on atom
        # 1 fails; on {0, 1} the null atom takes 0 and atom 0 takes 1,
        # all finite
        ss = collapse_space()
        m = synthesize_classical_measure(ss, frozenset({0, 1}))
        assert m is not None and m.value(frozenset({0, 1})) == 1
        assert m.infinite_atoms == frozenset()

    def test_trivial_symmetry_20_atoms_one_stage(self):
        # 2^19 subsets would be eligible infinite supports; synthesis
        # walks none of them
        n = 20
        ss = with_trivial_symmetry(build_space([str(i) for i in range(n)], [[i] for i in range(n)]))
        rep = synthesize_classical_measure(ss, frozenset({0}), want_report=True)
        assert rep.measure.value(frozenset({0})) == 1
        assert rep.stages == [{"infinite": [], "feasible": True, "method": "cone"}]

    def test_invariants_on_corpus_samples(self):
        for entry in random_corpus(count=12):
            ss = entry.statspace
            m = synthesize_classical_measure(ss, frozenset(range(ss.n_atoms)))
            if m is not None:
                assert not m.check(), entry.name


def _unstationary_sets(m):
    """Reference for RationalStationaryMeasure.check: every (s, A) over all
    2^n measurable sets whose preimage value differs from its value."""
    ss = m.statspace
    return [
        (s, aset)
        for s in range(ss.monoid.order)
        for aset in ss.space.all_measurable_sets()
        if m.value(pullback(ss, s, aset)) != m.value(aset)
    ]


def _tampered(m):
    """Each finite value perturbed in turn, and each finite atom moved into
    the infinite block in turn."""
    vals = m.finite_values
    out = []
    for a in range(len(vals)):
        if a in m.infinite_atoms:
            continue
        bumped = vals[:a] + (vals[a] + Fraction(1, 3),) + vals[a + 1:]
        out.append(RationalStationaryMeasure(m.statspace, bumped, m.infinite_atoms))
        out.append(RationalStationaryMeasure(m.statspace, vals, m.infinite_atoms | {a}))
    return out


def _nonempty_sets(ss):
    return [s for s in ss.space.all_measurable_sets() if s]


def _differential_spaces():
    return list(fixture_spaces().values()) + [
        e.statspace for e in random_corpus(seed=5)
    ]


class TestCheck:
    def test_perturbed_value_flagged(self):
        ss = parity_space()
        m = synthesize_classical_measure(ss, frozenset(range(4)))
        vals = m.finite_values
        bad = RationalStationaryMeasure(
            ss, (vals[0] + Fraction(1, 7),) + vals[1:], m.infinite_atoms
        )
        assert bad.check()

    def test_non_invariant_infinite_atom_flagged(self):
        ss = parity_space()
        # the swap moves atom 0, so {0} alone is not forward invariant
        assert any(amap[0] != 0 for amap in ss.atom_maps)
        bad = RationalStationaryMeasure(ss, (Fraction(0),) * 4, frozenset({0}))
        assert bad.check()

    def test_agrees_with_all_sets_oracle(self):
        flagged = clean = 0
        for ss in _differential_spaces():
            measures = set()
            for e_set in _nonempty_sets(ss):
                m = synthesize_classical_measure(ss, e_set)
                if m is not None:
                    measures.add(m)
            for m in measures:
                assert not m.check() and not _unstationary_sets(m)
                for t in _tampered(m):
                    bad = bool(t.check())
                    assert bad == bool(_unstationary_sets(t))
                    flagged += bad
                    clean += not bad
        assert flagged > 0 and clean > 0


class TestConeStage:
    def test_cone_matches_lp(self, monkeypatch):
        def run_all():
            out = []
            for ss in _differential_spaces():
                for e_set in _nonempty_sets(ss):
                    rep = synthesize_classical_measure(ss, e_set, want_report=True)
                    if rep.measure is not None:
                        assert rep.measure.value(e_set) == 1
                        assert not rep.measure.check()
                    stages = [
                        {k: v for k, v in st.items() if k != "method"}
                        for st in rep.stages
                    ]
                    out.append((rep.measure is not None, stages))
            return out

        by_cone = run_all()
        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        by_lp = run_all()
        assert by_cone == by_lp
        assert any(exists for exists, _ in by_cone)
        assert not all(exists for exists, _ in by_cone)

    def test_stage_methods(self, monkeypatch):
        rep = synthesize_classical_measure(parity_space(), frozenset(range(4)), True)
        assert rep.stages == [{"infinite": [], "feasible": True, "method": "cone"}]
        rep = synthesize_classical_measure(collapse_space(), frozenset({1}), True)
        assert rep.measure is None
        assert {st["method"] for st in rep.stages} == {"lp"}
        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        rep = synthesize_classical_measure(parity_space(), frozenset(range(4)), True)
        assert rep.stages == [{"infinite": [], "feasible": True, "method": "lp"}]

    def test_one_lp_past_ray_limit(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return exact_lp_feasible(*args, **kwargs)

        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        monkeypatch.setattr(congruence, "exact_lp_feasible", counting)
        monkeypatch.setattr("typemonoid.measures.exact_lp_feasible", counting)
        rep = synthesize_classical_measure(collapse_space(), frozenset({1}), True)
        assert rep.measure is None and "farkas" in rep.stages[0]
        assert len(calls) == 1
        # a feasible LP's point is the measure
        e_set = frozenset({0, 1})
        rep = synthesize_classical_measure(parity_space(), e_set, True)
        assert rep.measure.value(e_set) == 1 and not rep.measure.check()
        assert len(calls) == 2


def _valid_infinite_supports(ss, forbidden):
    """Atom subsets eligible to carry infinite mass, smallest first: every
    atom of I has a preimage meeting I under every symmetry, and I is
    forward invariant.  Walks every subset of the atoms outside
    `forbidden`."""
    n = ss.n_atoms
    out = []
    universe = [a for a in range(n) if a not in forbidden]
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            i_set = frozenset(combo)
            if all(
                all(any(amap[b] == a and b in i_set for b in range(n)) for a in i_set)
                and all(amap[b] in i_set for b in i_set)
                for amap in ss.atom_maps
            ):
                out.append(i_set)
    return out


def _staged_synthesis(ss, e_set):
    """Reference synthesis by stages: the all-finite stage read off the
    cone (or the LP when no ray fits), then one exact LP per eligible
    infinite support, in increasing size.  Returns (measure, stages)."""
    n = ss.n_atoms
    cong = Congruence(n, [(r.lhs, r.rhs) for r in relation_basis(ss)])
    rays = cong.conserved_rays()
    stages = []
    for i_set in _valid_infinite_supports(ss, e_set):
        values, method = None, "lp"
        if not i_set and rays is not None:
            for r in rays:
                mass = sum(r[a] for a in e_set)
                if mass > 0:
                    values, method = tuple(Fraction(c, mass) for c in r), "cone"
                    break
        if values is None:
            finite_atoms = [a for a in range(n) if a not in i_set]
            equalities = [
                ([d[a] for a in finite_atoms], 0)
                for d in cong.differences()
                if not any(d[a] for a in i_set)
            ]
            equalities.append(([1 if a in e_set else 0 for a in finite_atoms], 1))
            res = exact_lp_feasible(len(finite_atoms), equalities=equalities)
            if not res.feasible:
                stages.append({"infinite": sorted(i_set), "feasible": False,
                               "method": "lp", "farkas": res.farkas})
                continue
            point = iter(res.point)
            values = tuple(Fraction(0) if a in i_set else next(point) for a in range(n))
        stages.append({"infinite": sorted(i_set), "feasible": True, "method": method})
        return RationalStationaryMeasure(ss, values, i_set), stages
    return None, stages


def _pshift_space(n):
    """Points 0..n-1 and a sink n, singleton atoms, partial shift i -> i+1."""
    return statspace_from_partial_maps(
        points=[str(i) for i in range(n + 1)],
        atoms=[[i] for i in range(n + 1)],
        generators=[PartialBijection.from_dict(n + 1, {i: i + 1 for i in range(n - 1)})],
        sink=n,
    )


class TestStagedOracle:
    """Synthesis in one stage against the staged search it replaced."""

    def test_one_stage_decides_what_the_stages_did(self):
        failed = infinite_tried = 0
        for ss in _differential_spaces() + [_pshift_space(4)]:
            cong = Congruence(ss.n_atoms, [(r.lhs, r.rhs) for r in relation_basis(ss)])
            closed = [
                u for u in ss.space.all_measurable_sets()
                if cong.support_closure(u)[0] == u
            ]
            everything = frozenset(range(ss.n_atoms))
            for e_set in _nonempty_sets(ss):
                want, old_stages = _staged_synthesis(ss, e_set)
                rep = synthesize_classical_measure(ss, e_set, want_report=True)
                assert (rep.measure is None) == (want is None)
                if want is not None:
                    assert rep.measure.finite_values == want.finite_values
                    assert rep.measure.infinite_atoms == want.infinite_atoms == frozenset()
                assert rep.stages[0] == old_stages[0]
                assert len(rep.stages) == 1
                # the eligible infinite supports are the complements of the
                # closed supports containing E
                assert set(_valid_infinite_supports(ss, e_set)) == {
                    everything - u for u in closed if e_set <= u
                }
                if want is None:
                    failed += 1
                    infinite_tried += len(old_stages) > 1
                    assert "farkas" in rep.stages[0]
        assert failed > 0 and infinite_tried > 0


class TestTarskiCrossCheck:
    def test_parity_all_nonempty_sets(self):
        eng = TypeEngine(parity_space())
        sets = [s for s in eng.statspace.space.all_measurable_sets() if s]
        assert len(sets) == 15
        for e_set in sets:
            rep = cross_check_tarski(eng, e_set)
            assert not rep.null_type
            assert rep.consistent is True, e_set

    def test_measure_read_off_the_engine_congruence(self, monkeypatch):
        checked = 0
        for ss in _differential_spaces():
            eng = TypeEngine(ss)
            sets = [s for s in ss.space.all_measurable_sets() if s]
            expected = {s: synthesize_classical_measure(ss, s) for s in sets}
            # a rebuilt congruence would fail here
            monkeypatch.setattr("typemonoid.measures.Congruence", None)
            for s in sets:
                rep = cross_check_tarski(eng, s)
                if not rep.null_type:
                    assert rep.measure == expected[s]
                    checked += 1
            monkeypatch.undo()
        assert checked > 0

    def test_collapse_cases(self):
        eng = TypeEngine(collapse_space())
        rep = cross_check_tarski(eng, frozenset({0}))
        assert rep.consistent is True and rep.measure is not None
        rep = cross_check_tarski(eng, frozenset({0, 1}))
        assert rep.consistent is True and rep.measure is not None
        rep = cross_check_tarski(eng, frozenset({1}))
        assert rep.null_type and "null type" in rep.note

    def test_trivial_space(self):
        eng = TypeEngine(one_point_space())
        rep = cross_check_tarski(eng, frozenset({0}))
        assert rep.consistent is True
        assert rep.paradox.verdict == NOT_LEQ


class TestClassify:
    def test_tarski_measure_parity(self):
        eng = TypeEngine(parity_space())
        flags = classify_T_measure(tarski_T_measure(eng))
        assert flags.stationary
        assert flags.monotone
        assert not flags.aparadoxical
        assert flags.details["interior_idempotent"]["support"] in ([0], [1], [2], [3])

    def test_tarski_measure_collapse(self):
        eng = TypeEngine(collapse_space())
        flags = classify_T_measure(tarski_T_measure(eng))
        assert flags.stationary and flags.monotone and flags.aparadoxical

    def test_rational_measure_always_aparadoxical(self):
        ss = parity_space()
        m = synthesize_classical_measure(ss, frozenset(range(4)))
        flags = classify_T_measure(measure_to_T_spec(m))
        assert flags.stationary and flags.monotone and flags.aparadoxical

    def test_zero_measure(self):
        flags = classify_T_measure(zero_T_measure(parity_space()))
        assert flags.stationary and flags.monotone and flags.aparadoxical

    def test_non_stationary_detected(self):
        ss = parity_space()
        spec = measure_to_T_spec(
            RationalStationaryMeasure(
                ss, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), frozenset()
            )
        )
        flags = classify_T_measure(spec)
        assert not flags.stationary
        assert "stationarity_witness" in flags.details


def test_decisions_made_without_search_serialize():
    # a scale mismatch and an exact rational comparison are decided
    # without the engine, and still record the budget they ran under
    eng = TypeEngine(parity_space())
    x = embed(eng, eng.abar((1, 0, 0, 0)))
    y = embed(eng, eng.abar((0,) * 4, omega={0, 2}))
    tight = Budget(max_states=7)
    assert quantity_eq(eng, x, y, tight).budget is tight
    decisions = [quantity_eq(eng, x, y), ExtendedRationalTarget().eq(Fraction(1), INF)]
    for d in decisions:
        assert d.verdict == NOT_EQUAL
        assert d.to_json()["budget"]["max_states"] == Budget().max_states


class TestHierarchical:
    def test_empty_is_scale_zero(self):
        eng, lat = setup_space(parity_space())
        for e in lat:
            v = hierarchical_measure(eng, e, frozenset())
            assert v.kind == "member"
            zero = hierarchical_measure(eng, e, frozenset())
            assert hierarchical_eq(eng, v, zero)

    def test_parity_scale_zero_counts(self):
        eng, lat = setup_space(parity_space())
        v = hierarchical_measure(eng, lat.bottom, frozenset({0, 1, 2}))
        assert v.kind == "member"
        assert v.member.finite in ((2, 1, 0, 0), (0, 1, 2, 0), (1, 1, 1, 0))

    def test_collapse_null_at_top_scale(self):
        eng, lat = setup_space(collapse_space())
        v = hierarchical_measure(eng, lat.top, frozenset({1}))
        assert v.kind == "member"
        zero = hierarchical_measure(eng, lat.top, frozenset())
        assert hierarchical_eq(eng, v, zero)

    def test_infinity_case(self):
        eng, lat = setup_space(parity_space())
        v = hierarchical_measure(eng, lat.bottom, ExtVec((0,) * 4, frozenset({0, 2})))
        assert v.kind == "infinity"
        assert v.infinity == by_support(lat, 0, 2)

    def test_ambiguous_maximum_raises(self):
        eng, lat = setup_space(parity_space())
        with pytest.raises(AmbiguousMaximumError):
            hierarchical_measure(
                eng, lat.bottom, ExtVec((0,) * 4, frozenset(range(4)))
            )

    def test_non_scale_rejected(self):
        # a scale is a closed support in canonical form: {0} closes to
        # {0, 2} on parity, the null atom 1 of collapse is written as
        # the bottom, and w[0,2] of parity is no scale of the cyclic space
        parity = TypeEngine(parity_space())
        collapse = TypeEngine(collapse_space())
        cyclic = TypeEngine(cyclic4_space())
        for eng, e in [
            (parity, IdempotentElement(4, frozenset({0}))),
            (parity, IdempotentElement(3, frozenset())),
            (parity, IdempotentElement(4, frozenset({0, 1, 2, 3, 7}))),
            (collapse, IdempotentElement(2, frozenset({1}))),
            (cyclic, by_support(enumerate_idempotents(parity), 0, 2)),
        ]:
            with pytest.raises(ContractError, match="not a scale"):
                hierarchical_measure(eng, e, frozenset())
        assert hierarchical_measure(parity, IdempotentElement(4, frozenset({0, 2})), frozenset())

    def test_additive_on_disjoint(self):
        eng, lat = setup_space(parity_space())
        a, b = frozenset({0}), frozenset({1, 2})
        va = hierarchical_measure(eng, lat.bottom, a)
        vb = hierarchical_measure(eng, lat.bottom, b)
        vab = hierarchical_measure(eng, lat.bottom, a | b)
        s = va.member.add(vb.member)
        assert eng.decide_equal(
            eng.abar(s.finite, s.omega), eng.abar(vab.member.finite, vab.member.omega)
        ).verdict == EQUAL

    def test_stationary(self):
        from typemonoid.spaces import pullback

        eng, lat = setup_space(parity_space())
        ss = eng.statspace
        for e in lat:
            for s in range(ss.monoid.order):
                for aset in ss.space.all_measurable_sets():
                    v1 = hierarchical_measure(eng, e, aset)
                    v2 = hierarchical_measure(eng, e, pullback(ss, s, aset))
                    assert hierarchical_eq(eng, v1, v2)

    def test_image_idempotents_extremal(self):
        eng, lat = setup_space(parity_space())
        e_even = by_support(lat, 0, 2)
        # values of m_{e_even} on measurable sets: either scale zero or
        # members of the slice; their idempotent parts all equal the scale
        for aset in eng.statspace.space.all_measurable_sets():
            v = hierarchical_measure(eng, e_even, aset)
            assert v.kind == "member"
            assert v.member.omega == frozenset({0, 2})


class TestNullIdeal:
    def test_parity_faithful(self):
        eng, lat = setup_space(parity_space())
        assert null_ideal(eng, lat.bottom) == [frozenset()]

    def test_collapse(self):
        eng, lat = setup_space(collapse_space())
        ideal = null_ideal(eng, lat.bottom)
        assert set(ideal) == {frozenset(), frozenset({1})}

    def test_parity_even_scale(self):
        eng, lat = setup_space(parity_space())
        ideal = null_ideal(eng, by_support(lat, 0, 2))
        assert set(ideal) == {
            frozenset(),
            frozenset({0}),
            frozenset({2}),
            frozenset({0, 2}),
        }

    def test_closure_laws(self):
        for ss in (parity_space(), collapse_space(), cyclic4_space()):
            eng, lat = setup_space(ss)
            for e in lat:
                ideal = null_ideal(eng, e)
                assert not check_null_ideal_closure(ideal), (ss, e)


class TestExtension:
    def test_collapse_factorization(self):
        ss = collapse_space()
        eng, lat = setup_space(ss)
        m = synthesize_classical_measure(ss, frozenset({0}))
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale == lat.bottom
        assert ext.factorization_checked == 4
        assert "atom 0" in ext.uniqueness_probe

    def test_parity_factorization(self):
        ss = parity_space()
        eng, lat = setup_space(ss)
        m = RationalStationaryMeasure(ss, (Fraction(1, 4),) * 4, frozenset())
        assert not m.check()
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale == lat.bottom
        assert ext.factorization_checked == 16

    def test_parity_synthesized_lands_on_one_class(self):
        # the maps never mix parity classes, so the solver may put all
        # mass on one class; the extension scale is then that class's
        # complement
        ss = parity_space()
        eng, lat = setup_space(ss)
        m = synthesize_classical_measure(ss, frozenset(range(4)))
        nulls = frozenset(a for a in range(4) if m.finite_values[a] == 0)
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale.omega_support == nulls

    def test_zero_measure_scale_top(self):
        eng, lat = setup_space(parity_space())
        ext = extend_T_measure(eng, lat, zero_T_measure(eng.statspace))
        assert ext.scale == lat.top
        assert ext.uniqueness_probe.startswith("no non-null atom")

    def test_requires_flags(self):
        eng, lat = setup_space(parity_space())
        with pytest.raises(ContractError):
            extend_T_measure(eng, lat, tarski_T_measure(eng))

    def test_infinite_measure_extension(self):
        ss = parity_space()
        eng, lat = setup_space(ss)
        m = RationalStationaryMeasure(
            ss, (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)),
            frozenset({0, 2}),
        )
        assert not m.check()
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale == lat.bottom
        assert ext.idempotent_values[by_support(lat, 0, 2)] == "infinite"


class TestColimit:
    def test_constant(self):
        eng = TypeEngine(parity_space())
        p = eng.abar((1, 1, 0, 0))
        t, rep = colimit_increasing(eng, [p], ("constant",))
        assert eng.decide_equal(t, eng.type_of_abar(p)).verdict == EQUAL

    def test_saturation(self):
        eng = TypeEngine(parity_space())
        p = eng.abar((1, 0, 0, 0))
        t, _ = colimit_increasing(eng, [p, p + p], ("periodic", (1, 0, 0, 0)))
        assert t.rep.omega == frozenset({0, 2})

    def test_stabilizing_ramp(self):
        eng = TypeEngine(parity_space())
        ramp = [eng.abar((1, 0, 0, 0)), eng.abar((1, 1, 0, 0)), eng.abar((1, 1, 1, 0))]
        t, _ = colimit_increasing(eng, ramp, ("constant",))
        assert eng.decide_equal(t, eng.type_of(frozenset({0, 1, 2}))).verdict == EQUAL

    def test_non_increasing_rejected(self):
        eng = TypeEngine(parity_space())
        with pytest.raises(ContractError):
            colimit_increasing(
                eng, [eng.abar((2, 0, 0, 0)), eng.abar((1, 0, 0, 0))], ("constant",)
            )

    def test_sup_property(self):
        eng = TypeEngine(parity_space())
        p = eng.abar((0, 1, 0, 0))
        t, rep = colimit_increasing(eng, [p], ("periodic", (0, 0, 0, 1)))
        assert rep["upper_bound_checks"] >= 4
        for k in range(4):
            term = eng.abar((0, 1, 0, k))
            assert eng.decide_leq(term, eng.abar(t.rep.finite, t.rep.omega)).verdict == LEQ


class TestDecreasing:
    def test_stabilizing_chain_scale_correction(self):
        eng, lat = setup_space(parity_space())
        e_even = by_support(lat, 0, 2)
        settle = eng.abar((0, 1, 0, 0), omega={0, 2})
        chain = [
            eng.abar((0,) * 4, omega=range(4)),
            settle,
            settle,
        ]
        t, info = decreasing_limit_with_scale(eng, chain)
        assert info["scale"] == e_even
        expected = eng.type_of_abar(settle + eng.abar((0,) * 4, omega={0, 2}))
        assert eng.decide_equal(t, expected).verdict == EQUAL

    def test_finite_stabilization_scale_zero(self):
        eng, lat = setup_space(parity_space())
        chain = [eng.abar((2, 1, 0, 0)), eng.abar((1, 1, 0, 0)), eng.abar((1, 1, 0, 0))]
        t, info = decreasing_limit_with_scale(eng, chain)
        assert info["scale"] == lat.bottom
        assert eng.decide_equal(t, eng.type_of_abar(eng.abar((1, 1, 0, 0)))).verdict == EQUAL

    def test_non_decreasing_rejected(self):
        eng = TypeEngine(parity_space())
        with pytest.raises(ContractError):
            decreasing_limit_with_scale(
                eng, [eng.abar((1, 0, 0, 0)), eng.abar((2, 0, 0, 0))]
            )


class TestContinuitySuite:
    def test_parity(self):
        eng, lat = setup_space(parity_space())
        rep = continuity_suite(eng, lat)
        assert not rep["failures"]
        assert rep["below"] == 20
        assert rep["above"] == len(lat)
        assert rep["monotone"] > 0 and rep["subadditive"] > 0

    def test_collapse_and_cyclic(self):
        for ss in (collapse_space(), cyclic4_space(), one_point_space()):
            eng, lat = setup_space(ss)
            rep = continuity_suite(eng, lat, schemas_below=8)
            assert not rep["failures"], (ss, rep["failures"])
