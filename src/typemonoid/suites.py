"""Corpus-wide property suites.

Each runner replays one of the headline structure theorems over a
family of spaces, under the decision budget given as `budget` to every
engine it builds, and returns a plain report dict with stable keys:
`checks` (decisions attempted), `failures` (human-readable strings,
empty on success), `unknown` (indefinite verdicts), `unknown_rate`,
and `fixture_unknown` (indefinite verdicts on the named fixtures,
which are expected to be decided exactly).  The command-line corpus
runner and the acceptance tests share these implementations.

Laws of the canonical measure A -> [A] are checked on the few cases that
imply them, each by an argument exact in any commutative monoid with its
algebraic preorder: additivity along one chain of atoms and stationarity
on generators times atoms (`run_theorem1_suite`), monotonicity and
subadditivity along the same chain (`measures.continuity_suite`), and
Tarski's dichotomy on single atoms (`run_tarski_suite`).  The sampled
batteries draw from the set vectors by index (`_SampleVectors`), so no
runner walks the 2^n measurable sets; the exhaustive loops over sets and
pairs of sets are the reference tests.

Every runner takes its spaces and a budget and nothing else: the seeds
and sample sizes of the sampled checks are the constants below, so a
report is a function of its spaces and budget.
"""

import random
from typing import Dict, List, Optional, Sequence

from .congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, UNKNOWN, Budget
from .corpus import (
    CorpusEntry,
    corpus_morphism_pairs,
    fixture_spaces,
    random_corpus,
)
from .errors import TypemonoidError
from .lattice import (
    LatticeError,
    check_distributive,
    embed,
    enumerate_idempotents,
    grothendieck_diff,
    quantity_add,
    quantity_eq,
    quantity_neg,
    quantity_zero,
)
from .measures import (
    SCHEMAS_BELOW,
    continuity_suite,
    colimit_increasing,
    cross_check_tarski,
)
from .spaces import compose_morphisms, identity_morphism, pullback
from .types import AUDIT_KINDS, TypeEngine, morphism_type_map

__all__ = [
    "corpus_with_fixtures",
    "run_theorem1_suite",
    "run_theorem2_suite",
    "run_theorem3_suite",
    "run_tarski_suite",
    "run_soundness_audit",
    "SUITES",
]

_DEFINITE = {EQUAL, NOT_EQUAL, LEQ, NOT_LEQ}

# seed and sample size of each sampled battery
_THEOREM1_SEED, _THEOREM1_PAIRS = 5, 40
_THEOREM2_SEED, _THEOREM2_PAIRS = 9, 100
_SOUNDNESS_SEED, _SOUNDNESS_QUERIES = 13, 20


def corpus_with_fixtures(
    seed: int = 2024, count: int = 60
) -> List[CorpusEntry]:
    entries = [
        CorpusEntry(name=f"fixture_{name}", statspace=ss, kind="fixture")
        for name, ss in fixture_spaces().items()
    ]
    entries.extend(random_corpus(seed=seed, count=count))
    return entries


class _Tally:
    """Decision bookkeeping shared by the suite runners."""

    def __init__(self, suite: str):
        self.report = {
            "suite": suite,
            "spaces": 0,
            "checks": 0,
            "unknown": 0,
            "fixture_unknown": 0,
            "failures": [],
        }
        self.fixture = False

    def spaces(self, entries: Sequence[CorpusEntry], budget: Budget):
        """Each entry with an engine on its space under `budget`, counted."""
        for entry in entries:
            self.report["spaces"] += 1
            self.fixture = entry.kind == "fixture"
            yield entry, TypeEngine(entry.statspace, budget)

    def saw(self, decision, where: str, *args) -> str:
        """Count a decision; an unknown one on a fixture is a failure at
        `where`, formatted as in `check`."""
        self.report["checks"] += 1
        if decision.verdict == UNKNOWN:
            self._unknown(where.format(*args) if args else where)
        return decision.verdict

    def _unknown(self, where: str):
        self.report["unknown"] += 1
        if self.fixture:
            self.report["fixture_unknown"] += 1
            self.report["failures"].append(f"{where}: unknown on a fixture")

    def lattice(self, engine: TypeEngine, name: str):
        """The scale lattice of the engine's space, or None when it has more
        than LATTICE_LIMIT closed supports: a named limit, counted as one
        unknown check and under `limits`, not a law failure."""
        try:
            return enumerate_idempotents(engine)
        except LatticeError as exc:
            limits = self.report.setdefault("limits", {})
            limits["LATTICE_LIMIT"] = limits.get("LATTICE_LIMIT", 0) + 1
            self.report["checks"] += 1
            self._unknown(f"{name}: lattice unavailable: {exc}")
            return None

    def expect(self, decision, verdict: str, where: str, *args):
        """`saw` the decision, then `check` that it is `verdict`: two checks."""
        self.saw(decision, where, *args)
        self.check(decision.verdict == verdict, where, *args)

    def check(self, ok: bool, where: str, *args):
        """Count a check; on failure record `where`, formatted with `args`
        when there are any.  The message is built only for a failure."""
        self.report["checks"] += 1
        if not ok:
            self.report["failures"].append(where.format(*args) if args else where)

    def finish(self) -> Dict:
        checks = self.report["checks"]
        self.report["unknown_rate"] = (
            self.report["unknown"] / checks if checks else 0.0
        )
        self.report["ok"] = not self.report["failures"]
        return self.report


class _SampleVectors:
    """The vector of each measurable set, in mask order and built only when
    read, then the extra vectors.  `rng.choice` reads only the length and
    one index, so a draw costs one set vector, not 2^n of them; iteration
    reads the indices in order until the extras run out."""

    def __init__(self, engine: TypeEngine, extras: List):
        self.engine, self.extras, self.sets = engine, extras, 1 << engine.n

    def __len__(self) -> int:
        return self.sets + len(self.extras)

    def __getitem__(self, i: int):
        if i >= self.sets:
            return self.extras[i - self.sets]
        return self.engine.abar_of_set(frozenset(x for x in range(self.engine.n) if i >> x & 1))


def _sample_vectors(engine: TypeEngine, rng: random.Random, extra: int = 6):
    """Measurable-set vectors plus a few random multiplicity and
    omega-bearing vectors, the decision inputs for the law batteries."""
    out = []
    for _ in range(extra):
        fin = tuple(rng.randrange(0, 3) for _ in range(engine.n))
        out.append(engine.abar(fin))
    for _ in range(max(2, extra // 2)):
        om = frozenset(i for i in range(engine.n) if rng.random() < 0.4)
        fin = tuple(0 if i in om else rng.randrange(0, 2) for i in range(engine.n))
        out.append(engine.abar(fin, om))
    return _SampleVectors(engine, out)


# ---------------------------------------------------------------------------
# Theorem 1: the type monoid is a commutative monoid measure target


def run_theorem1_suite(
    entries: Optional[Sequence[CorpusEntry]] = None, *, budget: Budget = Budget()
) -> Dict:
    """The measure-target laws of the type monoid on every space, and the
    cofunctor laws on composable morphism pairs.

    The measure is mu(A) = [1_A]: `TypeEngine` turns a set into its
    indicator vector, and 1_(A | B) = 1_A + 1_B for disjoint A and B, so
    additivity over every disjoint pair is an identity of the
    representation.  The decision procedure must still see it, and it is
    checked along one chain C_k = {0, ..., k-1}, as mu(C_k) = mu(C_(k-1))
    + mu({k-1}) for k = 1..n, with omega-fold absorption on C_0..C_n.  On
    any other set each query compares a vector with itself or with one
    that dominates it, which the decision answers before any congruence
    work, so the chain checks each law at every set size.  Stationarity
    is checked as mu(pre_g({a})) = mu({a}) for each of the space's
    generators g and each atom a: the preimages of disjoint atoms are
    disjoint, so additivity extends it to every set, and pre_st = pre_t o
    pre_s extends it to every element.
    """
    tally = _Tally("theorem1")
    rng = random.Random(_THEOREM1_SEED)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    for entry, eng in tally.spaces(entries, budget):
        name = entry.name

        d = eng.decide_equal(eng.abar_of_set(frozenset()), eng.abar_zero())
        tally.expect(d, EQUAL, "{}: empty set measures to zero", name)

        vectors = _sample_vectors(eng, rng)
        # commutativity and disjoint additivity are identities of the
        # vector representation; the decision procedure must see them
        for _ in range(6):
            p, q = rng.choice(vectors), rng.choice(vectors)
            tally.expect(eng.decide_equal(p + q, q + p), EQUAL, "{}: commutativity", name)

        chain = [frozenset(range(k)) for k in range(eng.n + 1)]
        for k in range(eng.n):
            a, top = chain[k], frozenset({k})
            d = eng.decide_equal(
                eng.abar_of_set(a) + eng.abar_of_set(top), eng.abar_of_set(chain[k + 1])
            )
            tally.expect(d, EQUAL, "{}: additivity {} {}", name, a, top)

        for a in chain:
            p = eng.abar_of_set(a)
            fold = eng.omega_fold(p)
            d = eng.decide_equal(fold + fold, fold)
            tally.expect(d, EQUAL, "{}: omega-fold absorbs itself {}", name, a)
            d = eng.decide_equal(fold + p, fold)
            tally.expect(d, EQUAL, "{}: omega-fold absorbs a summand {}", name, a)

        for g in eng.statspace.generators:
            for x in range(eng.n):
                a = frozenset({x})
                d = eng.decide_equal(
                    eng.abar_of_set(pullback(eng.statspace, g, a)), eng.abar_of_set(a)
                )
                tally.expect(d, EQUAL, "{}: stationarity s={} A={}", name, g, sorted(a))

        pairs = [
            (rng.choice(vectors), rng.choice(vectors)) for _ in range(_THEOREM1_PAIRS)
        ]
        for p, q in pairs:
            lo = eng.decide_leq(p, q)
            hi = eng.decide_leq(q, p)
            tally.saw(lo, f"{name}: order")
            tally.saw(hi, f"{name}: order")
            if lo.verdict == LEQ and hi.verdict == LEQ:
                d = eng.decide_equal(p, q)
                v = tally.saw(d, f"{name}: antisymmetry")
                tally.check(
                    v != NOT_EQUAL, "{}: antisymmetry broken at {}, {}", name, p, q
                )

        for p, q in pairs[: _THEOREM1_PAIRS // 3]:
            base = eng.decide_equal(p, q)
            for k in (2, 3):
                scaled = eng.decide_equal(p.scale(k), q.scale(k))
                tally.saw(scaled, f"{name}: cancellation")
                if base.verdict in _DEFINITE and scaled.verdict in _DEFINITE:
                    tally.check(
                        base.verdict == scaled.verdict,
                        "{}: {}-cancellation broken at {}, {}", name, k, p, q,
                    )

    # cofunctor laws over composable morphism pairs
    pairs = corpus_morphism_pairs(entries)
    for i, (m2, m1) in enumerate(pairs):
        # the first two pairs are built from named fixtures, each later one
        # from the entry of the same rank
        tally.fixture = i < 2 or entries[i - 2].kind == "fixture"
        src = TypeEngine(m1.source, budget)
        mid = TypeEngine(m1.target, budget)
        tgt = TypeEngine(m2.target, budget)
        f1 = morphism_type_map(m1, src, mid)
        f2 = morphism_type_map(m2, mid, tgt)
        ident = morphism_type_map(identity_morphism(m1.source), src, src)
        composed = morphism_type_map(compose_morphisms(m2, m1), src, tgt)
        for batom in range(tgt.n):
            t = tgt.type_of(frozenset({batom}))
            d = src.decide_equal(f1(f2(t)), composed(t))
            tally.expect(d, EQUAL, "cofunctor composition")
        for batom in range(src.n):
            t = src.type_of(frozenset({batom}))
            tally.expect(src.decide_equal(ident(t), t), EQUAL, "cofunctor identity")
        # measuring a pulled-back set equals mapping the measured type
        for batom in range(mid.n):
            pulled = m1.preimage_atoms(batom)
            d = src.decide_equal(
                src.type_of(pulled), f1(mid.type_of(frozenset({batom})))
            )
            tally.expect(d, EQUAL, "measurement commutes with pullback")
    tally.report["morphism_pairs"] = len(pairs)
    return tally.finish()


# ---------------------------------------------------------------------------
# Theorem 2: scales, isotropy groups, quantity arithmetic


def run_theorem2_suite(
    entries: Optional[Sequence[CorpusEntry]] = None, *, budget: Budget = Budget()
) -> Dict:
    tally = _Tally("theorem2")
    rng = random.Random(_THEOREM2_SEED)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    for entry, eng in tally.spaces(entries, budget):
        name = entry.name
        lat = tally.lattice(eng, name)
        if lat is None:
            continue

        distributive, counterexample = check_distributive(lat)
        tally.check(distributive, "{}: distributivity {}", name, counterexample)

        vectors = _sample_vectors(eng, rng, extra=8)
        scales = list(lat)
        for _ in range(_THEOREM2_PAIRS):
            e = rng.choice(scales)
            u = rng.choice(vectors).vec.add(e.vec)
            v = rng.choice(vectors).vec.add(e.vec)
            # same-scale pairs; embedding must reflect type equality
            if eng.omega_normalize(u).omega != e.omega_support:
                continue
            if eng.omega_normalize(v).omega != e.omega_support:
                continue
            try:
                qu = embed(eng, u)
                qv = embed(eng, v)
            except TypemonoidError as exc:
                tally.report["failures"].append(f"{name}: embed failed: {exc}")
                continue
            qd = quantity_eq(eng, qu, qv)
            td = eng.decide_equal(u, v)
            tally.saw(qd, f"{name}: embed")
            tally.saw(td, f"{name}: embed")
            if qd.verdict in _DEFINITE and td.verdict in _DEFINITE:
                tally.check(
                    (qd.verdict == EQUAL) == (td.verdict == EQUAL),
                    "{}: embed not injective at {}, {}", name, u, v,
                )

        for e in scales:
            at_scale = []
            for p in vectors:
                q = p.vec.add(e.vec)
                if eng.omega_normalize(q).omega == e.omega_support:
                    at_scale.append(q)
                if len(at_scale) >= 4:
                    break
            if len(at_scale) < 2:
                continue
            xs = [
                grothendieck_diff(eng, at_scale[i], at_scale[(i + 1) % len(at_scale)])
                for i in range(len(at_scale))
            ]
            z = quantity_zero(eng, e)
            for i, x in enumerate(xs):
                y = xs[(i + 1) % len(xs)]
                w = xs[(i + 2) % len(xs)]
                d = quantity_eq(eng, quantity_add(eng, x, y), quantity_add(eng, y, x))
                tally.expect(d, EQUAL, "{}: quantity commutativity", name)
                lhs = quantity_add(eng, quantity_add(eng, x, y), w)
                rhs = quantity_add(eng, x, quantity_add(eng, y, w))
                d = quantity_eq(eng, lhs, rhs)
                tally.expect(d, EQUAL, "{}: quantity associativity", name)
                d = quantity_eq(eng, quantity_add(eng, x, z), x)
                tally.expect(d, EQUAL, "{}: quantity unit", name)
                d = quantity_eq(eng, quantity_add(eng, x, quantity_neg(x)), z)
                tally.expect(d, EQUAL, "{}: quantity inverse", name)
    return tally.finish()


# ---------------------------------------------------------------------------
# Theorem 3: hierarchical measures and their continuity


def run_theorem3_suite(
    entries: Optional[Sequence[CorpusEntry]] = None, *, budget: Budget = Budget()
) -> Dict:
    tally = _Tally("theorem3")
    if entries is None:
        entries = [
            CorpusEntry(name=f"fixture_{name}", statspace=ss, kind="fixture")
            for name, ss in fixture_spaces().items()
        ]
    for entry, eng in tally.spaces(entries, budget):
        name = entry.name
        lat = tally.lattice(eng, name)
        if lat is None:
            continue
        rep = continuity_suite(eng, lat)
        for key in ("monotone", "subadditive", "below", "above"):
            tally.report["checks"] += rep[key]
        for failure in rep["failures"]:
            tally.report["failures"].append(f"{name}: {failure}")
        tally.check(rep["below"] >= SCHEMAS_BELOW, f"{name}: below-schema count")

        # a colimit of an eventually constant chain is its own supremum
        p = eng.abar_of_set(frozenset(range(min(1, eng.n))))
        t, info = colimit_increasing(eng, [p], ("constant",))
        d = eng.decide_equal(t, eng.type_of_abar(p))
        tally.expect(d, EQUAL, "{}: constant colimit", name)
        tally.report["checks"] += info["upper_bound_checks"]
    return tally.finish()


# ---------------------------------------------------------------------------
# Tarski: normalized measures exist exactly off the paradoxical sets


def run_tarski_suite(
    entries: Optional[Sequence[CorpusEntry]] = None, *, budget: Budget = Budget()
) -> Dict:
    """Tarski's dichotomy, checked by `cross_check_tarski` on each atom.

    The biconditional on every nonempty set E follows from the
    biconditional on E's atoms:

    - [E] = 0 exactly when every atom of E is null.  This is the support
      closure theorem: E lies inside U(empty).
    - A stationary measure normalized on E exists exactly when one exists
      normalized on some non-null atom a of E.  (<=) Take mu(a) = 1.
      Synthesized measures are finite, so mu(E) lies in [1, oo), and
      mu / mu(E) is normalized on E.  (=>) If mu(E) = 1, some atom a has
      mu(a) > 0, and mu / mu(a) is normalized on a.
    - 2[E] <= [E] exactly when 2[a] <= [a] for every atom a of E.
      (<=) Add the orders of the atoms; the order is compatible with
      addition.  (=>) If an atom a of E had a measure with mu(a) = 1,
      then 2 mu(E) <= mu(E) with 1 <= mu(E) < oo, which is impossible.
      So no non-null atom of E has a measure, and by that atom's own
      checked biconditional, 2[a] <= [a].  Null atoms satisfy
      2[a] <= [a] trivially.

    So `checks`, `agreements` and `null_type_sets` count atoms.
    """
    tally = _Tally("tarski")
    entries = corpus_with_fixtures() if entries is None else list(entries)
    tally.report["agreements"] = 0
    tally.report["null_type_sets"] = 0
    for entry, eng in tally.spaces(entries, budget):
        for x in range(eng.n):
            rep = cross_check_tarski(eng, {x})
            tally.report["checks"] += 1
            if rep.null_type:
                tally.report["null_type_sets"] += 1
            elif rep.paradox.verdict == UNKNOWN:
                tally.report["unknown"] += 1
                tally.report["fixture_unknown"] += tally.fixture
            elif rep.consistent:
                tally.report["agreements"] += 1
            else:
                found = "a measure" if rep.measure else "no measure"
                tally.report["failures"].append(
                    f"{entry.name}: biconditional fails on atom {x}: "
                    f"{rep.paradox.verdict}, but {found}"
                )
    return tally.finish()


# ---------------------------------------------------------------------------
# Soundness: replay every logged definite decision


def run_soundness_audit(
    entries: Optional[Sequence[CorpusEntry]] = None, *, budget: Budget = Budget()
) -> Dict:
    tally = _Tally("soundness")
    rng = random.Random(_SOUNDNESS_SEED)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    totals = dict.fromkeys(AUDIT_KINDS, 0)
    for entry, eng in tally.spaces(entries, budget):
        vectors = _sample_vectors(eng, rng)
        for _ in range(_SOUNDNESS_QUERIES):
            p, q = rng.choice(vectors), rng.choice(vectors)
            tally.saw(eng.decide_equal(p, q), f"{entry.name}: query")
            tally.saw(eng.decide_leq(p, q), f"{entry.name}: query")
        try:
            counts = eng.audit_decisions()
        except AssertionError as exc:
            tally.report["failures"].append(f"{entry.name}: audit violation: {exc}")
            continue
        for k, v in counts.items():
            totals[k] = totals.get(k, 0) + v
    tally.report["witnesses"] = totals
    return tally.finish()


SUITES = {
    "theorem1": run_theorem1_suite,
    "theorem2": run_theorem2_suite,
    "theorem3": run_theorem3_suite,
    "tarski": run_tarski_suite,
    "soundness": run_soundness_audit,
}
