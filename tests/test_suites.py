import inspect
import random

import pytest

from typemonoid import measures, suites
from typemonoid.congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, UNKNOWN, Budget, Decision
from typemonoid.corpus import (
    CorpusEntry,
    corpus_morphism_pairs,
    fixture_spaces,
    parity_space,
    statspace_from_maps,
)
from typemonoid.measures import Synthesis, continuity_suite, cross_check_tarski
from typemonoid.spaces import build_space, pullback, with_trivial_symmetry
from typemonoid.suites import _Tally
from typemonoid.types import TypeEngine


class _NoFormat:
    """An argument that must not be formatted."""

    def __format__(self, spec):
        raise AssertionError("message built for a passing check")


def test_check_formats_only_on_failure():
    tally = _Tally("t")
    tally.check(True, "{}: antisymmetry broken at {}, {}", "s", _NoFormat(), _NoFormat())
    p, q = frozenset({0, 2}), (1, 0)
    tally.check(False, "{}: additivity {} {}", "s", p, q)
    tally.check(False, "{}: distributivity {}", "s", {"law": "absorption-meet"})
    tally.check(False, "s: plain {braces} kept")
    assert tally.report["checks"] == 4
    assert tally.report["failures"] == [
        f"s: additivity {p} {q}",
        f"s: distributivity {({'law': 'absorption-meet'})}",
        "s: plain {braces} kept",
    ]


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_every_engine_runs_under_the_given_budget(monkeypatch, name):
    budget = Budget(max_rules=123)
    seen = []

    class Recording(suites.TypeEngine):
        def __init__(self, statspace, budget=Budget()):
            super().__init__(statspace, budget)
            seen.append(budget)

    monkeypatch.setattr(suites, "TypeEngine", Recording)
    entry = CorpusEntry(name="parity", statspace=parity_space(), kind="random")
    suites.SUITES[name]([entry], budget=budget)
    # theorem1 also builds an engine per end of each morphism pair
    assert seen and all(b is budget for b in seen)


# ---------------------------------------------------------------------------
# The exhaustive law loops, kept as references for the reduced checks of
# run_theorem1_suite and measures.continuity_suite


def reference_additivity(eng):
    """[A] + [B] = [A | B] over every unordered disjoint pair (3^n)."""
    sets = eng.statspace.space.all_measurable_sets()
    failures = []
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if a & b:
                continue
            d = eng.decide_equal(eng.abar_of_set(a) + eng.abar_of_set(b), eng.abar_of_set(a | b))
            if d.verdict != EQUAL:
                failures.append(("additivity", a, b, d.verdict))
    return failures


def reference_stationarity(eng):
    """[pre_s(A)] = [A] over every element s and set A (|M| 2^n)."""
    failures = []
    for s in range(eng.statspace.monoid.order):
        for a in eng.statspace.space.all_measurable_sets():
            d = eng.decide_equal(eng.abar_of_set(pullback(eng.statspace, s, a)), eng.abar_of_set(a))
            if d.verdict != EQUAL:
                failures.append(("stationarity", s, a, d.verdict))
    return failures


def reference_monotone_subadditive(eng):
    """[A] <= [B] for A inside B, and [A | B] <= [A] + [B], over every
    ordered pair of sets (4^n)."""
    sets = eng.statspace.space.all_measurable_sets()
    failures = []
    for a in sets:
        for b in sets:
            if a <= b:
                d = eng.decide_leq(eng.type_of(a), eng.type_of(b))
                if d.verdict != LEQ:
                    failures.append(("monotone", a, b, d.verdict))
            bound = eng.type_add(eng.type_of(a), eng.type_of(b))
            d = eng.decide_leq(eng.type_of(a | b), bound)
            if d.verdict != LEQ:
                failures.append(("subadditive", a, b, d.verdict))
    return failures


def test_reduced_laws_agree_with_the_references():
    small = [e for e in suites.corpus_with_fixtures(2024) if e.statspace.n_atoms <= 4]
    assert {e.name for e in small} >= {f"fixture_{name}" for name in fixture_spaces()}
    for run in (suites.run_theorem1_suite, suites.run_theorem3_suite):
        rep = run(small)
        assert rep["failures"] == [] and rep["unknown"] == 0
    for entry in small:
        eng = TypeEngine(entry.statspace)
        for reference in (reference_additivity, reference_stationarity,
                          reference_monotone_subadditive):
            assert reference(eng) == [], (entry.name, reference.__name__)


PARITY = [CorpusEntry(name="parity", statspace=parity_space(), kind="random")]


def test_tampered_set_vector_is_caught(monkeypatch):
    """abar_of_set({0, 1}) answering the vector of atom 0 breaks
    additivity, in the reference loop and in the one-atom splits."""
    original = TypeEngine.abar_of_set

    def tampered(self, atoms):
        return original(self, frozenset({0}) if atoms == {0, 1} else atoms)

    monkeypatch.setattr(TypeEngine, "abar_of_set", tampered)
    assert ("additivity", frozenset({0}), frozenset({1}), NOT_EQUAL) in reference_additivity(
        TypeEngine(parity_space())
    )
    failures = suites.run_theorem1_suite(PARITY)["failures"]
    assert f"parity: additivity {frozenset({0})} {frozenset({1})}" in failures


def test_tampered_one_atom_step_is_caught(monkeypatch):
    """decide_leq answering not_leq for [{0}] <= [{0, 1}] breaks
    monotonicity, in the reference loop and in the one-atom steps."""
    original = TypeEngine.decide_leq

    def tampered(self, p, q):
        d = original(self, p, q)
        if (self._vec(p), self._vec(q)) == (self._vec({0}), self._vec({0, 1})):
            return Decision(NOT_LEQ, {}, d.budget)
        return d

    monkeypatch.setattr(TypeEngine, "decide_leq", tampered)
    step = ("monotone", frozenset({0}), frozenset({0, 1}), NOT_LEQ)
    assert step in reference_monotone_subadditive(TypeEngine(parity_space()))
    failures = suites.run_theorem3_suite(PARITY)["failures"]
    assert f"parity: {step}" in failures


def cycle_entry(n):
    """One rotation of n points, each point an atom."""
    rotation = tuple((i + 1) % n for i in range(n))
    ss = statspace_from_maps([str(i) for i in range(n)], [[i] for i in range(n)], [rotation])
    return CorpusEntry(name=f"cyclic{n}", statspace=ss, kind="random")


def theorem3_chain_checks(n, scales):
    """theorem3's checks on a space of n atoms and `scales` scales: a
    monotone and a subadditive check per chain step, the continuity
    schemas from below and one chain per scale from above, the
    below-schema count, and the constant colimit (a decision, its check
    and three upper-bound checks)."""
    return 2 * n + measures.SCHEMAS_BELOW + scales + 1 + 2 + 3


def test_twelve_atom_cycle_runs_every_law_suite():
    """One rotation of 12 points: the chain keeps theorem1 and theorem3
    to a few decisions per atom, where the references walk 4^12 pairs,
    and tarski to one cross-check per atom, where its reference walks
    2^12 - 1 sets."""
    n = 12
    entries = [cycle_entry(n)]
    reports = [run(entries) for run in (
        suites.run_theorem1_suite, suites.run_theorem3_suite, suites.run_soundness_audit,
        suites.run_tarski_suite,
    )]
    for rep in reports:
        assert rep["failures"] == [] and rep["unknown"] == 0, rep["suite"]
    # one rotation has two scales: the bottom and every atom
    assert reports[0]["checks"] == 340
    assert reports[1]["checks"] == theorem3_chain_checks(n, 2) == 52
    assert reports[3]["checks"] == reports[3]["agreements"] == n


def test_twenty_four_atom_cycle_runs_all_five_suites():
    """A 24-atom cycle, 2^24 measurable sets: no suite walks them."""
    n = 24
    reports = {name: run([cycle_entry(n)]) for name, run in suites.SUITES.items()}
    for name, rep in reports.items():
        assert rep["failures"] == [] and rep["unknown"] == 0, name
    assert reports["theorem1"]["checks"] == 484
    assert reports["theorem3"]["checks"] == theorem3_chain_checks(n, 2) == 76


def materialized_sample(eng, rng, extra=6):
    """The sample of `suites._sample_vectors` as a list: every set vector in
    mask order, then the extras drawn the same way."""
    out = [eng.abar_of_set(a) for a in eng.statspace.space.all_measurable_sets()]
    for _ in range(extra):
        out.append(eng.abar(tuple(rng.randrange(0, 3) for _ in range(eng.n))))
    for _ in range(max(2, extra // 2)):
        om = frozenset(i for i in range(eng.n) if rng.random() < 0.4)
        fin = tuple(0 if i in om else rng.randrange(0, 2) for i in range(eng.n))
        out.append(eng.abar(fin, om))
    return out


@pytest.mark.parametrize("seed, extra", [(5, 6), (9, 8), (13, 6)])
def test_indexed_sample_draws_as_the_materialized_list(seed, extra):
    spaces = list(fixture_spaces().values()) + [cycle_entry(10).statspace]
    for ss in spaces:
        eng = TypeEngine(ss)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        sample = suites._sample_vectors(eng, rng, extra)
        reference = materialized_sample(eng, ref_rng, extra)
        for _ in range(50):
            assert sample.draw(rng) == ref_rng.choice(reference)
        assert list(sample) == reference


def test_sixty_three_atom_cycle_runs_all_five_suites():
    """A 63-atom cycle: 2^63 set vectors would not fit a C ssize_t as a
    length, so the sample is drawn by index and has no len()."""
    reports = {name: run([cycle_entry(63)]) for name, run in suites.SUITES.items()}
    for name, rep in reports.items():
        assert rep["failures"] == [] and rep["unknown"] == 0, name


def test_fixture_flag_is_set_per_morphism_pair(monkeypatch):
    """The parity pair is built from named fixtures, so its unknown
    verdicts are fixture unknowns whichever kind of entry comes last."""
    original = suites.corpus_morphism_pairs

    def undecided(self, p, q):
        return Decision(UNKNOWN, {}, Budget())

    entries = suites.corpus_with_fixtures(2024, count=1)
    assert entries[0].kind == "fixture" and entries[-1].kind != "fixture"
    for order in (entries, entries[::-1]):
        with monkeypatch.context() as m:
            def parity_pair_only(es):
                m.setattr(TypeEngine, "decide_equal", undecided)
                return original(es)[:1]

            m.setattr(suites, "corpus_morphism_pairs", parity_pair_only)
            rep = suites.run_theorem1_suite(order)
        # a composition per target atom, an identity per source atom and a
        # pullback per middle atom: 1 + 4 + 2
        assert rep["unknown"] == rep["fixture_unknown"] == 7


def test_lattice_limit_is_an_unknown_not_a_failure():
    """Nine atoms with trivial symmetry have 2^9 closed supports, past
    LATTICE_LIMIT: one unknown check under `limits`, a failure only on a
    fixture."""
    space = build_space([str(i) for i in range(9)], [[i] for i in range(9)])
    ss = with_trivial_symmetry(space)
    for run in (suites.run_theorem2_suite, suites.run_theorem3_suite):
        rep = run([CorpusEntry(name="trivial9", statspace=ss, kind="random")])
        assert rep["failures"] == [] and rep["unknown"] == rep["checks"] == 1, rep["suite"]
        assert rep["limits"] == {"LATTICE_LIMIT": 1} and rep["fixture_unknown"] == 0
        rep = run([CorpusEntry(name="trivial9", statspace=ss, kind="fixture")])
        assert not rep["ok"] and rep["fixture_unknown"] == 1, rep["suite"]
        assert rep["failures"] == [
            "trivial9: lattice unavailable: more than LATTICE_LIMIT = 256 closed "
            "supports: unknown on a fixture"
        ]


# ---------------------------------------------------------------------------
# The per-set Tarski loop, kept as the reference for the per-atom suite


def reference_tarski(eng):
    """cross_check_tarski on every nonempty measurable set (2^n - 1): each
    set's cross-check, and the sets where the biconditional fails."""
    checks = {a: cross_check_tarski(eng, a)
              for a in eng.statspace.space.all_measurable_sets() if a}
    return checks, [a for a, rep in checks.items() if rep.consistent is False]


def derived_from_atoms(checks, e_set):
    """What the three rules of `run_tarski_suite` predict for a set from
    the cross-checks of its atoms: (null type, a normalized measure
    exists, 2[E] <= [E]); the last two are None for a null-type set."""
    atoms = [checks[frozenset({x})] for x in e_set]
    if all(a.null_type for a in atoms):
        return True, None, None
    live = [a for a in atoms if not a.null_type]
    return (False, any(a.measure is not None for a in live),
            all(a.paradox.verdict == LEQ for a in live))


def test_per_atom_tarski_agrees_with_the_per_set_reference():
    small = [e for e in suites.corpus_with_fixtures(2024) if e.statspace.n_atoms <= 4]
    rep = suites.run_tarski_suite(small)
    assert rep["failures"] == [] and rep["unknown"] == 0
    assert rep["checks"] == sum(e.statspace.n_atoms for e in small)
    multi = 0
    for entry in small:
        checks, failures = reference_tarski(TypeEngine(entry.statspace))
        assert failures == [], entry.name
        for e_set, check in checks.items():
            seen = (check.null_type,
                    None if check.null_type else check.measure is not None,
                    None if check.null_type else check.paradox.verdict == LEQ)
            assert seen == derived_from_atoms(checks, e_set), (entry.name, sorted(e_set))
            multi += len(e_set) > 1
    assert multi > 100


def test_dropped_singleton_measure_is_caught(monkeypatch):
    """Synthesis losing the measure of the non-paradoxical atom {0} of the
    parity space breaks the biconditional, in the reference loop and in
    the per-atom suite."""
    original = measures.synthesize_classical_measure

    def tampered(engine, atoms):
        if frozenset(atoms) == {0}:
            return Synthesis(None, "paradox")
        return original(engine, atoms)

    monkeypatch.setattr(measures, "synthesize_classical_measure", tampered)
    eng = TypeEngine(parity_space())
    assert measures.is_paradoxical(eng, {0}).verdict == NOT_LEQ
    _, failures = reference_tarski(eng)
    assert frozenset({0}) in failures
    rep = suites.run_tarski_suite(PARITY)
    assert rep["failures"] == [
        "parity: biconditional fails on atom 0: not_leq, but no measure"
    ]


def test_tarski_unknown_on_a_fixture_is_a_failure(monkeypatch):
    """An unknown paradox verdict is an unknown check everywhere, and on a
    fixture also a failure naming the space and the atom."""
    monkeypatch.setattr(measures, "is_paradoxical",
                        lambda engine, atoms: Decision(UNKNOWN, {}, Budget()))
    rep = suites.run_tarski_suite(PARITY)
    assert rep["ok"] and rep["unknown"] == 4 and rep["fixture_unknown"] == 0
    fixture = CorpusEntry(name="fixture_parity", statspace=parity_space(), kind="fixture")
    rep = suites.run_tarski_suite([fixture])
    assert not rep["ok"] and rep["unknown"] == rep["fixture_unknown"] == 4
    assert rep["failures"] == [
        f"fixture_parity: paradox of atom {x}: unknown on a fixture" for x in range(4)
    ]


# ---------------------------------------------------------------------------
# The runners take their spaces and a budget, nothing else


def test_runners_take_entries_and_a_budget_only():
    for name, run in suites.SUITES.items():
        params = list(inspect.signature(run).parameters.values())
        assert [(p.name, p.kind, p.default) for p in params[:1]] == [
            ("entries", inspect.Parameter.POSITIONAL_OR_KEYWORD, None)
        ], name
        assert [(p.name, p.kind) for p in params[1:]] == [
            ("budget", inspect.Parameter.KEYWORD_ONLY)
        ], name
    assert list(inspect.signature(continuity_suite).parameters) == ["engine", "lattice"]
    assert list(inspect.signature(corpus_morphism_pairs).parameters) == ["entries"]
