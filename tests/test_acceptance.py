"""Ten end-to-end checks, one per release gate.

Each test is a full statement of its gate; the terminal summary block
in conftest prints one PASS/FAIL line per criterion from the outcomes
below.
"""

import itertools

from oracle_kb import oracle_for_space

from typemonoid.certificates import (
    builtin_f2_duplication,
    builtin_galileo,
    certificate_mutations,
    verify_certificate,
)
from typemonoid.congruence import EQUAL
from typemonoid.corpus import fixture_spaces, random_corpus
from typemonoid.lattice import enumerate_idempotents
from typemonoid.measures import (
    ExtendedRationalTarget,
    TMeasureSpec,
    extend_T_measure,
    null_ideal,
    synthesize_classical_measure,
)
from typemonoid.monoid import InverseMonoidTable, natural_partial_order
from typemonoid.partial_bijection import (
    all_partial_bijections,
    closure,
    compose,
    symmetric_inverse_monoid,
    wagner_preston,
)
from typemonoid.suites import (
    corpus_with_fixtures,
    run_soundness_audit,
    run_tarski_suite,
    run_theorem1_suite,
    run_theorem2_suite,
    run_theorem3_suite,
)
from typemonoid.types import TypeEngine, relation_basis
from typemonoid.words import (
    dfa_first_letter,
    dfa_star,
    dfa_union,
    invert_word,
    left_translate,
    reduce_word,
    reduced_words_upto,
)


def test_criterion_1():
    """Measure-target laws of the type monoid hold across the corpus:
    commutativity, definite-order antisymmetry, cancellation, empty-set
    zero, disjoint and omega-fold additivity along one chain of atoms
    (disjoint additivity on every pair is an identity of the set
    vectors), stationarity, pullback functor laws.  Under 5% Unknown
    overall, none on fixtures."""
    summary = run_theorem1_suite()
    assert summary["spaces"] >= 50
    assert summary["failures"] == []
    assert summary["fixture_unknown"] == 0
    assert summary["unknown_rate"] < 0.05
    assert summary["ok"]


def test_criterion_2():
    """Engine equality agrees with the completion oracle on every pair
    of multiplicity vectors up to 3, over at least 20 small spaces, with
    no Unknown verdicts."""
    entries = [
        e
        for e in corpus_with_fixtures(seed=2024, count=60)
        if e.statspace.n_atoms <= 3
    ]
    if len(entries) < 20:
        entries += [
            e for e in random_corpus(seed=31, count=40) if e.statspace.n_atoms <= 3
        ]
    entries = entries[:24]
    assert len(entries) >= 20
    pairs_checked = 0
    for entry in entries:
        ss = entry.statspace
        eng = TypeEngine(ss)
        oracle = oracle_for_space(ss)
        vecs = list(itertools.product(range(4), repeat=ss.n_atoms))
        for i, p in enumerate(vecs):
            for q in vecs[i:]:
                d = eng.decide_equal(eng.abar(p), eng.abar(q))
                assert d.is_definite(), (entry.name, p, q)
                assert (d.verdict == EQUAL) == oracle.eq(p, q), (entry.name, p, q)
                pairs_checked += 1
    assert pairs_checked >= 20 * len(entries)


def test_criterion_3():
    """Across the corpus, a normalized stationary measure on a nonempty
    non-null set exists exactly when the set fails to duplicate itself;
    no disagreements, no Unknowns."""
    summary = run_tarski_suite()
    assert summary["failures"] == []
    assert summary["unknown"] == 0
    assert summary["agreements"] > 0
    assert summary["ok"]


def test_criterion_4():
    """The parity space has exactly four idempotent scales in a 2x2
    diamond, and its finite types form a free commutative monoid on two
    generators: the class-count map is a verified isomorphism onto N^2.
    At each middle scale the types collapse to N; at the top, to a
    point."""
    ss = fixture_spaces()["parity"]
    eng = TypeEngine(ss)
    lat = enumerate_idempotents(eng)

    assert len(lat) == 4
    bot, top = lat.bottom, lat.top
    mids = [e for e in lat if e not in (bot, top)]
    assert len(mids) == 2
    m1, m2 = mids
    assert not lat.leq(m1, m2) and not lat.leq(m2, m1)
    assert lat.meet(m1, m2) == bot and lat.join(m1, m2) == top
    assert len(lat.covers()) == 4
    assert bot.omega_support == frozenset()
    assert {m.omega_support for m in mids} == {
        frozenset({0, 2}),
        frozenset({1, 3}),
    }
    assert top.omega_support == frozenset({0, 1, 2, 3})

    # the isomorphism: count copies within each swap orbit
    def phi(v):
        return (v[0] + v[2], v[1] + v[3])

    for r in relation_basis(ss):  # well-defined on the defining relations
        assert phi(r.lhs) == phi(r.rhs)
    gen_images = {phi(tuple(1 if i == a else 0 for i in range(4))) for a in range(4)}
    assert gen_images == {(1, 0), (0, 1)}  # generators hit the N^2 generators
    vecs = list(itertools.product(range(3), repeat=4))
    for i, p in enumerate(vecs):  # faithful and injective on a cube
        for q in vecs[i:]:
            d = eng.decide_equal(eng.abar(p), eng.abar(q))
            assert d.is_definite(), (p, q)
            assert (phi(p) == phi(q)) == (d.verdict == EQUAL), (p, q)

    # scale diagram shape: N at each middle scale, trivial at the top
    for mid in mids:
        free = [i for i in range(4) if i not in mid.omega_support]
        small = [
            tuple(x if i in free else 0 for i, x in enumerate(v))
            for v in itertools.product(range(3), repeat=4)
        ]
        for p in small[:20]:
            for q in small[:20]:
                d = eng.decide_equal(
                    eng.abar(p, mid.omega_support), eng.abar(q, mid.omega_support)
                )
                expected = sum(p[i] for i in free) == sum(q[i] for i in free)
                assert d.is_definite()
                assert (d.verdict == EQUAL) == expected, (mid, p, q)
    top_e = eng.abar((0, 0, 0, 0), top.omega_support)
    for v in vecs[:12]:
        d = eng.decide_equal(top_e + eng.abar(v), top_e)
        assert d.verdict == EQUAL, v


def test_criterion_5():
    """Collapse space: the absorbed atom has null type, the bottom null
    ideal is exactly {empty, {1}}, the synthesized measure is (1, 0),
    and the extension factors exactly on the empty set and both atoms,
    which implies it on every measurable set."""
    ss = fixture_spaces()["collapse"]
    eng = TypeEngine(ss)
    lat = enumerate_idempotents(eng)

    d = eng.decide_equal(eng.type_of(frozenset({1})), eng.type_zero())
    assert d.verdict == EQUAL

    ideal = null_ideal(eng, lat.bottom)
    assert sorted(ideal, key=sorted) == [frozenset(), frozenset({1})]

    m = synthesize_classical_measure(eng, frozenset({0, 1})).measure
    assert m is not None
    assert m.finite_values == (1, 0)
    assert m.infinite_atoms == frozenset()

    spec = TMeasureSpec(ss, ExtendedRationalTarget(), m.finite_values)
    ext = extend_T_measure(eng, lat, spec)
    assert ext.factorization_checked == 3
    # omega over the null atom is the zero class, so the scale is bottom
    assert ext.scale == lat.bottom


def test_criterion_6():
    """Scale decomposition across the corpus: the per-scale embedding
    is injective on sampled pairs, the quantity spaces satisfy the
    abelian-group laws, and every idempotent lattice is distributive."""
    summary = run_theorem2_suite()
    assert summary["failures"] == []
    assert summary["unknown"] == 0
    assert summary["ok"]


def test_criterion_7():
    """Limit laws on every fixture: monotone and subadditive along one
    chain of atoms, which with additivity implies both laws on all
    measurable pairs, continuous from below on 20 increasing schemas,
    continuous from above with the scale-unit correction."""
    summary = run_theorem3_suite()
    assert summary["failures"] == []
    assert summary["unknown"] == 0
    assert summary["ok"]


def test_criterion_8():
    """Both infinite certificates verify; all twenty registered
    mutations are rejected; word-language translation agrees with
    pointwise replay on every reduced word of length up to 6."""
    assert verify_certificate(builtin_galileo()).ok
    assert verify_certificate(builtin_f2_duplication()).ok

    mutations = certificate_mutations()
    assert len(mutations) == 20
    for name, cert in mutations:
        assert not verify_certificate(cert, window=200).ok, name

    spine = dfa_star("A")
    langs = [
        dfa_first_letter("a"),
        dfa_union(dfa_first_letter("b"), spine),
        spine,
    ]
    words = list(reduced_words_upto(6))
    for lang in langs:
        for w in ("a", "B", "ab", "Ba"):
            moved = left_translate(lang, w)
            wi = invert_word(w)
            for v in words:
                assert moved.accepts(v) == lang.accepts(reduce_word(wi + v)), (
                    w,
                    v,
                )


def test_criterion_9():
    """The partial-bijection representation of every fixture monoid of
    order up to 6 and twenty random closure tables is an injective
    homomorphism matching the natural order with graph inclusion; the
    symmetric inverse monoids on 2 and 3 points have orders 7 and 34."""

    def check_representation(table: InverseMonoidTable):
        phi = wagner_preston(table)
        leq = natural_partial_order(table)
        n = table.order
        assert len({phi[s] for s in range(n)}) == n
        for s in range(n):
            for t in range(n):
                assert phi[table.mul[s][t]] == compose(phi[s], phi[t])
                assert leq[s][t] == (set(phi[s].pairs) <= set(phi[t].pairs))

    fixture_tables = [
        ss.monoid for ss in fixture_spaces().values() if ss.monoid.order <= 6
    ]
    assert len(fixture_tables) >= 4
    for table in fixture_tables:
        check_representation(table)

    import random

    rng = random.Random(29)
    pool = all_partial_bijections(3)
    made = 0
    while made < 20:
        gens = rng.sample(pool, rng.randint(1, 2))
        try:
            table, _ = closure(gens, 3, cap=40)
        except Exception:
            continue
        check_representation(table)
        made += 1

    assert symmetric_inverse_monoid(2)[0].order == 7
    assert symmetric_inverse_monoid(3)[0].order == 34


def test_criterion_10():
    """Soundness audit over the corpus: every negative verdict's
    functional annihilates the relation differences, every positive
    verdict's path replays into a verified realization."""
    summary = run_soundness_audit()
    assert summary["failures"] == []
    assert summary["ok"]
    # every definite decision was audited under a witness kind
    assert sum(summary["witnesses"].values()) == summary["checks"] - summary["unknown"] > 0
