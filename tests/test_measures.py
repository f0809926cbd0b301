import itertools
import random
from fractions import Fraction

import pytest

from typemonoid import congruence, measures
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
    statspace_from_maps,
    statspace_from_partial_maps,
)
from typemonoid.errors import (
    AmbiguousMaximumError,
    ContractError,
    NormalizationImpossibleError,
    SpaceMismatchError,
    UnitGroupError,
)
from typemonoid.lattice import (
    IdempotentElement,
    embed,
    enumerate_idempotents,
    idempotent_of,
    quantity_eq,
    scale_covers,
)
from typemonoid.measures import (
    INF,
    ExtendedRationalTarget,
    FPMonoidTarget,
    HierarchicalValue,
    RationalStationaryMeasure,
    Synthesis,
    TMeasureSpec,
    classify_T_measure,
    colimit_increasing,
    continuity_suite,
    cross_check_tarski,
    decreasing_limit_with_scale,
    evaluate_extension,
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
from typemonoid.serial import space_from_dict
from typemonoid.spaces import build_space, pullback, with_trivial_symmetry
from typemonoid.suites import corpus_with_fixtures
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


def reference_null_ideal(engine, e):
    """The walk `null_ideal` replaced: every measurable set whose
    hierarchical value at e is decided equal to the scale zero."""
    zero = HierarchicalValue(e, "member", member=ExtVec((0,) * engine.n, e.omega_support))
    out = []
    for aset in engine.statspace.space.all_measurable_sets():
        val = hierarchical_measure(engine, e, aset)
        if val.kind == "member" and hierarchical_eq(engine, val, zero):
            out.append(aset)
    return out


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
            synthesize_classical_measure(TypeEngine(parity_space()), frozenset())

    def test_parity_whole_space(self):
        ss = parity_space()
        m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(4))).measure
        assert m is not None
        assert not m.check()
        assert m.value(frozenset(range(4))) == 1
        # swap symmetry forces equality across each orbit
        assert m.finite_values[0] == m.finite_values[2]
        assert m.finite_values[1] == m.finite_values[3]

    def test_collapse_main_atom(self):
        ss = collapse_space()
        m = synthesize_classical_measure(TypeEngine(ss), frozenset({0})).measure
        assert m is not None
        assert m.finite_values == (Fraction(1), Fraction(0))
        assert m.infinite_atoms == frozenset()

    def test_collapse_null_atom_fails(self):
        ss = collapse_space()
        eng = TypeEngine(ss)
        syn = synthesize_classical_measure(eng, frozenset({1}))
        assert (syn.measure, syn.method, syn.k, syn.exhausted) == (None, "paradox", 1, None)
        assert syn.certificate.verdict == LEQ
        assert syn.certificate.witness["kind"] == "domination"
        assert eng.audit_log[-1].decision is syn.certificate
        assert eng.audit_decisions()["domination"] == 1

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
        m = synthesize_classical_measure(TypeEngine(ss), frozenset({0, 1})).measure
        assert m is not None and m.value(frozenset({0, 1})) == 1
        assert m.infinite_atoms == frozenset()

    def test_trivial_symmetry_20_atoms_one_stage(self):
        # 2^19 subsets would be eligible infinite supports; synthesis
        # walks none of them
        n = 20
        ss = with_trivial_symmetry(build_space([str(i) for i in range(n)], [[i] for i in range(n)]))
        syn = synthesize_classical_measure(TypeEngine(ss), frozenset({0}))
        assert syn.measure.value(frozenset({0})) == 1
        assert (syn.method, syn.k, syn.certificate, syn.exhausted) == ("cone", None, None, None)

    def test_invariants_on_corpus_samples(self):
        for entry in random_corpus(count=12):
            ss = entry.statspace
            m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(ss.n_atoms))).measure
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


def _per_pair_problems(m, elements):
    """Reference for the text of RationalStationaryMeasure.check: one
    pullback and one Fraction sum per (s, atom), for s in elements."""
    ss = m.statspace
    out = []
    for s in elements:
        for a in range(ss.n_atoms):
            atom = frozenset({a})
            pre = pullback(ss, s, atom)
            if m.value(pre) != m.value(atom):
                out.append(f"s={s} A={[a]}: value {m.value(atom)} "
                           f"!= preimage value {m.value(pre)}")
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
        m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(4))).measure
        vals = m.finite_values
        bad = RationalStationaryMeasure(
            ss, (vals[0] + Fraction(1, 7),) + vals[1:], m.infinite_atoms
        )
        assert bad.check()

    def test_non_invariant_infinite_atom_flagged(self):
        ss = parity_space()
        # the swap moves atom 0, so {0} alone is not forward invariant
        assert any(amap[0] != 0 for amap in map(ss.atom_map, range(ss.monoid.order)))
        bad = RationalStationaryMeasure(ss, (Fraction(0),) * 4, frozenset({0}))
        assert bad.check()

    def test_agrees_with_all_sets_oracle(self):
        flagged = clean = 0
        for ss in _differential_spaces():
            measures = set()
            eng = TypeEngine(ss)
            for e_set in _nonempty_sets(ss):
                m = synthesize_classical_measure(eng, e_set).measure
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


    def test_problems_match_the_per_pair_check(self, monkeypatch):
        rng = random.Random(5)
        values = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4))
        stationary, flagged = [], 0
        for ss in _differential_spaces():
            n = ss.n_atoms
            m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(n))).measure
            if m is not None:
                stationary.append(m)
            for _ in range(4):
                vals = tuple(rng.choice(values) for _ in range(n))
                inf = frozenset(a for a in range(n) if rng.random() < 0.25)
                t = RationalStationaryMeasure(ss, vals, inf)
                problems = t.check()
                assert problems == _per_pair_problems(t, (ss.unit, *ss.generators))
                # stationary under the generators exactly when under every element
                every = _per_pair_problems(t, range(ss.monoid.order))
                assert (problems == []) == (every == []), (ss, vals, inf)
                flagged += bool(problems)
        assert flagged > 0 and stationary

        def no_value(self, atoms):
            raise AssertionError("value read on a passing check")

        monkeypatch.setattr(RationalStationaryMeasure, "value", no_value)
        assert all(m.check() == [] for m in stationary)


class TestConeStage:
    def test_cone_matches_lp(self, monkeypatch):
        def run_all():
            out = []
            for ss in _differential_spaces():
                eng = TypeEngine(ss)
                for e_set in _nonempty_sets(ss):
                    syn = synthesize_classical_measure(eng, e_set)
                    if syn.measure is not None:
                        assert syn.measure.value(e_set) == 1
                        assert not syn.measure.check()
                    cert = syn.certificate and syn.certificate.to_json()
                    out.append((syn.measure is not None, syn.k, cert, syn.exhausted))
            return out

        by_cone = run_all()
        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        by_lp = run_all()
        assert by_cone == by_lp
        assert any(exists for exists, *_ in by_cone)
        assert not all(exists for exists, *_ in by_cone)

    def test_stage_methods(self, monkeypatch):
        syn = synthesize_classical_measure(TypeEngine(parity_space()), frozenset(range(4)))
        assert syn.measure is not None and syn.method == "cone"
        syn = synthesize_classical_measure(TypeEngine(collapse_space()), frozenset({1}))
        assert syn.measure is None and syn.method == "paradox"
        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        syn = synthesize_classical_measure(TypeEngine(parity_space()), frozenset(range(4)))
        assert syn.measure is not None and syn.method == "lp"

    def test_one_lp_past_ray_limit(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return exact_lp_feasible(*args, **kwargs)

        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        monkeypatch.setattr(congruence, "exact_lp_feasible", counting)
        syn = synthesize_classical_measure(TypeEngine(collapse_space()), frozenset({1}))
        assert syn.measure is None and syn.method == "paradox"
        assert len(calls) == 1
        # a feasible LP's point is the measure
        e_set = frozenset({0, 1})
        m = synthesize_classical_measure(TypeEngine(parity_space()), e_set).measure
        assert m.value(e_set) == 1 and not m.check()
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
                for amap in map(ss.atom_map, range(ss.monoid.order))
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
            eng = TypeEngine(ss)
            for e_set in _nonempty_sets(ss):
                want, old_stages = _staged_synthesis(ss, e_set)
                syn = synthesize_classical_measure(eng, e_set)
                assert (syn.measure is None) == (want is None)
                if want is not None:
                    assert syn.measure.finite_values == want.finite_values
                    assert syn.measure.infinite_atoms == want.infinite_atoms == frozenset()
                # the reference certifies a set without a measure by a
                # Farkas vector, synthesis by a paradox witness
                if want is not None:
                    assert old_stages[0] == {"infinite": [], "feasible": True,
                                             "method": syn.method}
                else:
                    assert old_stages[0]["infinite"] == [] and not old_stages[0]["feasible"]
                    assert "farkas" in old_stages[0]
                # the eligible infinite supports are the complements of the
                # closed supports containing E
                assert set(_valid_infinite_supports(ss, e_set)) == {
                    everything - u for u in closed if e_set <= u
                }
                if want is None:
                    failed += 1
                    infinite_tried += len(old_stages) > 1
                    assert syn.method == "paradox" and syn.k is not None
            # every paradox witness replays
            definite = sum(e.decision.is_definite() for e in eng.audit_log)
            assert sum(eng.audit_decisions().values()) == definite
        assert failed > 0 and infinite_tried > 0


def _certificate_spaces():
    """The fixtures, five random corpora and the partial shifts."""
    spaces = list(fixture_spaces().values())
    for seed in (1, 2, 5, 7, 2024):
        spaces += [e.statspace for e in random_corpus(seed=seed)]
    return spaces + [_pshift_space(n) for n in (2, 3, 4)]


def _certificate_sets(ss):
    """Every nonempty set up to five atoms; past that the singletons and
    the whole set."""
    n = ss.n_atoms
    if n <= 5:
        return _nonempty_sets(ss)
    return [frozenset({a}) for a in range(n)] + [frozenset(range(n))]


class TestSynthesisCertificates:
    """Each nonempty set gets exactly one certificate: a measure read off
    the cone, or a paradox witness that the audit replays."""

    def test_one_checked_certificate_per_set(self):
        measures = paradoxes = 0
        for ss in _certificate_spaces():
            eng = TypeEngine(ss)
            rays = eng.congruence.conserved_rays()
            for e_set in _certificate_sets(ss):
                syn = synthesize_classical_measure(eng, e_set)
                ray = next((r for r in rays if sum(r[a] for a in e_set) > 0), None)
                assert (syn.measure is None) == (ray is None)
                if syn.measure is not None:
                    mass = sum(ray[a] for a in e_set)
                    assert syn.measure.finite_values == tuple(Fraction(c, mass) for c in ray)
                    assert (syn.method, syn.k, syn.certificate) == ("cone", None, None)
                    measures += 1
                else:
                    assert syn.method == "paradox" and syn.exhausted is None
                    k = syn.k
                    assert syn.certificate.verdict == LEQ
                    t = eng.type_of(e_set)
                    d = eng.decide_leq(eng.type_scale(k + 1, t), eng.type_scale(k, t))
                    assert d.to_json() == syn.certificate.to_json()
                    paradoxes += 1
            definite = sum(e.decision.is_definite() for e in eng.audit_log)
            assert sum(eng.audit_decisions().values()) == definite
        assert measures > 0 and paradoxes > 0

    def test_existence_unchanged_past_ray_limit(self, monkeypatch):
        spaces = _certificate_spaces()
        by_cone = {}
        for i, ss in enumerate(spaces):
            eng = TypeEngine(ss)
            for e_set in _certificate_sets(ss):
                by_cone[i, e_set] = synthesize_classical_measure(eng, e_set).measure is not None
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return exact_lp_feasible(*args, **kwargs)

        monkeypatch.setattr(congruence, "RAY_LIMIT", 0)
        monkeypatch.setattr(congruence, "exact_lp_feasible", counting)
        for i, ss in enumerate(spaces):
            eng = TypeEngine(ss)
            for e_set in _certificate_sets(ss):
                before = len(calls)
                syn = synthesize_classical_measure(eng, e_set)
                assert len(calls) - before <= 1
                assert (syn.measure is not None) == by_cone[i, e_set]
                if syn.measure is not None:
                    assert syn.method == "lp"
                    assert syn.measure.value(e_set) == 1 and not syn.measure.check()
        assert calls

    def test_paradox_limit_exhausted_names_the_bound(self, monkeypatch):
        # with no copies allowed, no (k+1)[E] <= k[E] is asked past k = 1
        monkeypatch.setattr(measures, "PARADOX_LIMIT", 0)
        eng = TypeEngine(collapse_space())
        syn = synthesize_classical_measure(eng, frozenset({1}))
        assert syn == Synthesis(None, "paradox", None, None, "PARADOX_LIMIT")
        assert [e.decision.verdict for e in eng.audit_log] == ["leq"]

    def test_first_unknown_stops_the_paradox_search(self):
        # every point retracts onto point 2; completing the three relations
        # takes four additions (tests/test_cli.py), and none may be added
        # past them: 2[E] <= [E] is unknown, so is every k after it, and the
        # stage names the budget that decision names
        retraction = {"points": ["0", "1", "2"], "atoms": [[0], [1], [2]],
                      "generators": [{"0": 2, "1": 2, "2": 2}]}
        eng = TypeEngine(space_from_dict(retraction), Budget(max_rules=0))
        syn = synthesize_classical_measure(eng, frozenset({0}))
        assert syn == Synthesis(None, "paradox", None, None, "max_rules")
        (entry,) = eng.audit_log
        assert entry.decision.witness["exhausted"] == ["max_rules"]
        assert eng.congruence.stats["exhausted_max_rules"] == 1
        # existence is still decided: the measure exists off the budget
        assert synthesize_classical_measure(eng, frozenset({2})).measure is not None


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
            fresh = TypeEngine(ss)
            expected = {s: synthesize_classical_measure(fresh, s).measure for s in sets}
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


def _definite_verdict(d):
    assert d.is_definite()
    return d.verdict


def _reference_classify(spec, mult_bound=3):
    """The bounded scans classification used before its exact rules:
    stationarity over every monoid element, a zero combination among all
    multiplicity vectors up to `mult_bound` per atom, and the absorbing
    test on the idempotent of every atom subset, smallest first.
    Returns (stationary, monotone, aparadoxical, details)."""
    ss, t = spec.statspace, spec.target
    n = ss.n_atoms
    details = {}
    stationary = True
    for s in range(ss.monoid.order):
        for a in range(n):
            pre = pullback(ss, s, frozenset({a}))
            if _definite_verdict(t.eq(spec.value_of_atoms(pre), spec.assignment[a])) != EQUAL:
                stationary = False
                details["stationarity_witness"] = {"s": s, "atom": a}
                break
        if not stationary:
            break
    null_atom = [_definite_verdict(t.is_zero(spec.assignment[a])) == EQUAL for a in range(n)]
    monotone = True
    for vec in itertools.product(range(mult_bound + 1), repeat=n):
        if not any(vec) or all(null_atom[a] for a in range(n) if vec[a]):
            continue
        if _definite_verdict(t.is_zero(spec.value_of_vec(vec))) == EQUAL:
            monotone = False
            details["unit_witness"] = {"combination": vec}
            break
    aparadoxical = True
    top = t.omega(spec.value_of_vec((1,) * n))
    for combo in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        e_val = t.omega(spec.value_of_vec(tuple(int(a in combo) for a in range(n))))
        if _definite_verdict(t.is_zero(e_val)) == EQUAL:
            continue
        absorbing = _definite_verdict(t.eq(t.add(e_val, top), e_val)) == EQUAL and all(
            _definite_verdict(t.eq(t.add(e_val, spec.assignment[a]), e_val)) == EQUAL
            for a in range(n)
        )
        if not absorbing:
            aparadoxical = False
            details["interior_idempotent"] = {"support": list(combo)}
            break
    return stationary, monotone, aparadoxical, details


def _unit_congruence():
    """e0 ~ e1 + e2 and e0 ~ 0: atom 0 is null, and e1, e2 are units
    that are not null, since e1 + e2 ~ 0."""
    return Congruence(3, [((1, 0, 0), (0, 1, 1)), ((1, 0, 0), (0, 0, 0))])


def _three_atom_trivial_space():
    return with_trivial_symmetry(build_space(["0", "1", "2"], [[0], [1], [2]]))


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
        m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(4))).measure
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

    def test_matches_the_bounded_scans(self):
        specs = []
        spaces = list(fixture_spaces().values())
        for seed in (1, 2, 5, 7, 2024):
            spaces += [e.statspace for e in random_corpus(seed=seed)]
        for ss in spaces:
            if ss.n_atoms > 4:
                continue
            eng = TypeEngine(ss)
            specs.append(tarski_T_measure(eng))
            m = synthesize_classical_measure(eng, frozenset(range(ss.n_atoms))).measure
            if m is not None:
                specs.append(measure_to_T_spec(m))
            specs.append(measure_to_T_spec(
                RationalStationaryMeasure(ss, (Fraction(1),) * ss.n_atoms, frozenset())
            ))
        flagged = set()
        for spec in specs:
            flags = classify_T_measure(spec)
            got = (flags.stationary, flags.monotone, flags.aparadoxical, flags.details)
            assert got == _reference_classify(spec)
            flagged |= {k for k in ("stationary", "aparadoxical") if not getattr(flags, k)}
        assert len(specs) > 200 and flagged == {"stationary", "aparadoxical"}

    def test_unit_value_not_monotone(self):
        ss = _three_atom_trivial_space()
        target = FPMonoidTarget(_unit_congruence())
        identity = tuple(ExtVec.from_vec(unit_vec(3, a)) for a in range(3))
        flags = classify_T_measure(TMeasureSpec(ss, target, identity))
        assert flags.stationary and not flags.monotone
        w = flags.details["unit_witness"]
        assert w["atom"] == 1 and w["combination"] == (0, 1, 1)
        assert w["decision"]["verdict"] == EQUAL
        assert target.is_zero(ExtVec.from_vec(w["combination"])).verdict == EQUAL
        # the scan agrees, and finds the same combination first
        assert _reference_classify(TMeasureSpec(ss, target, identity))[3] == {
            "unit_witness": {"combination": (0, 1, 1)}
        }

    def test_unit_value_off_the_identity_assignment_raises(self):
        ss = _three_atom_trivial_space()
        target = FPMonoidTarget(_unit_congruence())
        swapped = tuple(ExtVec.from_vec(unit_vec(3, a)) for a in (0, 2, 1))
        with pytest.raises(UnitGroupError, match="unit group"):
            classify_T_measure(TMeasureSpec(ss, target, swapped))

    def test_eight_atoms_take_few_decisions(self):
        n = 8
        ss = statspace_from_maps(
            points=[str(i) for i in range(n)],
            atoms=[[i] for i in range(n)],
            # two 4-cycles, so an atom's idempotent misses the other orbit
            generators=[(1, 2, 3, 0, 5, 6, 7, 4)],
        )
        spec = tarski_T_measure(TypeEngine(ss))
        calls = []
        eq = spec.target.eq
        spec.target.eq = lambda x, y: calls.append(1) or eq(x, y)
        flags = classify_T_measure(spec)
        assert flags.stationary and flags.monotone and not flags.aparadoxical
        assert flags.details == {"interior_idempotent": {"support": [0]}}
        # the scans took 4^8 zero tests for monotonicity alone
        assert len(calls) <= n * (n + 3)


def test_decisions_made_without_search_serialize():
    # a scale mismatch and an exact rational comparison are decided
    # without the engine, and still record the budget they ran under
    eng = TypeEngine(parity_space())
    x = embed(eng, eng.abar((1, 0, 0, 0)))
    y = embed(eng, eng.abar((0,) * 4, omega={0, 2}))
    assert quantity_eq(eng, x, y).budget is eng.budget
    decisions = [quantity_eq(eng, x, y), ExtendedRationalTarget().eq(Fraction(1), INF)]
    for d in decisions:
        assert d.verdict == NOT_EQUAL
        assert d.to_json()["budget"] == {"max_rules": Budget().max_rules}


def _hierarchical_by_order(eng, e, x):
    """hierarchical_measure with the infinity point found by ordering
    every cover of e against the shift and keeping the greatest."""
    shifted = eng.omega_normalize(eng._vec(x).add(e.vec))
    if idempotent_of(eng, shifted) == e:
        return HierarchicalValue(e, "member", member=shifted)
    t = eng.type_of_abar(shifted)
    below = []
    for f in scale_covers(eng, e):
        d = eng.decide_leq(f.vec, t)
        assert d.is_definite()
        if d.verdict == LEQ:
            below.append(f)
    assert below, "a value above its scale has an infinity point below it"
    maxima = [f for f in below if all(g.omega_support <= f.omega_support for g in below)]
    if len(maxima) != 1:
        raise AmbiguousMaximumError(f"{len(below)} infinity points below the value")
    return HierarchicalValue(e, "infinity", infinity=maxima[0])


class TestHierarchicalOracle:
    def test_matches_ordering_every_cover(self):
        """Every scale, on every measurable set and on vectors with omega
        mass: the same value, or AmbiguousMaximumError from both."""
        spaces = list(fixture_spaces().values())
        spaces += [e.statspace for e in random_corpus(seed=5, count=12) if e.statspace.n_atoms <= 3]
        kinds = set()
        for ss in spaces:
            eng, lat = setup_space(ss)
            xs = list(ss.space.all_measurable_sets())
            xs += [ExtVec(tuple(0 if i in f.omega_support else 1 for i in range(eng.n)),
                          f.omega_support) for f in lat]
            for e in lat:
                for x in xs:
                    try:
                        want = _hierarchical_by_order(eng, e, x)
                    except AmbiguousMaximumError:
                        with pytest.raises(AmbiguousMaximumError):
                            hierarchical_measure(eng, e, x)
                        kinds.add("ambiguous")
                        continue
                    assert hierarchical_measure(eng, e, x) == want, (ss, e, x)
                    kinds.add(want.kind)
        assert kinds == {"member", "infinity", "ambiguous"}


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

    def test_agrees_with_the_hierarchical_walk(self):
        entries = corpus_with_fixtures(2024) + random_corpus(seed=7)
        scales = 0
        for entry in entries:
            eng, lat = setup_space(entry.statspace)
            for e in lat:
                assert null_ideal(eng, e) == reference_null_ideal(eng, e), (entry.name, e)
                scales += 1
        assert scales > len(entries)

    def test_non_scale_refused(self):
        eng, _ = setup_space(parity_space())
        with pytest.raises(ContractError):
            null_ideal(eng, IdempotentElement(4, frozenset({0})))


def reference_factorization(engine, scale, spec):
    """The per-set loop `extend_T_measure` replaced: the factorization
    through the hierarchical measure at `scale` on every measurable set,
    raising ContractError on the first set where it fails."""
    for aset in engine.statspace.space.all_measurable_sets():
        lhs = evaluate_extension(spec, measures.hierarchical_measure(engine, scale, aset))
        if spec.target.eq(lhs, spec.value_of_atoms(aset)).verdict != EQUAL:
            raise ContractError(f"factorization fails on {sorted(aset)}")


def factorization_cases():
    """(engine, lattice, spec) for the collapse and parity extensions; the
    synthesized parity measure has a null scale above the bottom."""
    collapse, parity = collapse_space(), parity_space()
    classical = synthesize_classical_measure(TypeEngine(collapse), frozenset({0})).measure
    uniform = RationalStationaryMeasure(parity, (Fraction(1, 4),) * 4, frozenset())
    infinite = RationalStationaryMeasure(
        parity, (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)), frozenset({0, 2})
    )
    one_class = synthesize_classical_measure(TypeEngine(parity), frozenset(range(4))).measure
    for m in (classical, uniform, infinite, one_class):
        yield (*setup_space(m.statspace), measure_to_T_spec(m))


class TestExtension:
    def test_singletons_agree_with_the_per_set_reference(self):
        scales = []
        for eng, lat, spec in factorization_cases():
            ext = extend_T_measure(eng, lat, spec)
            assert ext.factorization_checked == eng.n + 1
            reference_factorization(eng, ext.scale, spec)
            scales.append(ext.scale == lat.bottom)
        assert scales == [True, True, True, False]

    def test_shifted_singleton_is_caught(self, monkeypatch):
        """hierarchical_measure answering the value of {a} shifted by one
        more atom a, for an atom of finite nonzero measure, breaks the
        factorization, in the reference and in the extension."""
        original = measures.hierarchical_measure

        for eng, lat, spec in factorization_cases():
            a = next(a for a, x in enumerate(spec.assignment) if x not in (0, INF))

            def shifted(engine, e, atoms):
                value = original(engine, e, atoms)
                if atoms != {a}:
                    return value
                return HierarchicalValue(
                    e, "member", member=value.member.add(ExtVec.from_vec(unit_vec(engine.n, a)))
                )

            scale = extend_T_measure(eng, lat, spec).scale
            with monkeypatch.context() as m:
                m.setattr(measures, "hierarchical_measure", shifted)
                with pytest.raises(ContractError):
                    reference_factorization(eng, scale, spec)
                with pytest.raises(ContractError):
                    extend_T_measure(eng, lat, spec)

    def test_collapse_factorization(self):
        ss = collapse_space()
        eng, lat = setup_space(ss)
        m = synthesize_classical_measure(TypeEngine(ss), frozenset({0})).measure
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale == lat.bottom
        assert ext.factorization_checked == 3
        assert "atom 0" in ext.uniqueness_probe

    def test_parity_factorization(self):
        ss = parity_space()
        eng, lat = setup_space(ss)
        m = RationalStationaryMeasure(ss, (Fraction(1, 4),) * 4, frozenset())
        assert not m.check()
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert ext.scale == lat.bottom
        assert ext.factorization_checked == 5

    def test_parity_synthesized_lands_on_one_class(self):
        # the maps never mix parity classes, so the solver may put all
        # mass on one class; the extension scale is then that class's
        # complement
        ss = parity_space()
        eng, lat = setup_space(ss)
        m = synthesize_classical_measure(TypeEngine(ss), frozenset(range(4))).measure
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

    def test_spec_on_an_equal_copy_of_the_space(self):
        ss, copy = collapse_space(), collapse_space()
        assert ss is not copy and ss == copy
        eng, lat = setup_space(ss)
        m = synthesize_classical_measure(TypeEngine(ss), frozenset({0})).measure
        m_copy = synthesize_classical_measure(TypeEngine(copy), frozenset({0})).measure
        ext = extend_T_measure(eng, lat, measure_to_T_spec(m))
        assert extend_T_measure(eng, lat, measure_to_T_spec(m_copy)) == ext
        parity = TypeEngine(parity_space())
        other = synthesize_classical_measure(parity, frozenset(range(4))).measure
        with pytest.raises(SpaceMismatchError):
            extend_T_measure(eng, lat, measure_to_T_spec(other))


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
            rep = continuity_suite(eng, lat)
            assert not rep["failures"], (ss, rep["failures"])
