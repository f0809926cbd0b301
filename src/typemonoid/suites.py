"""Corpus-wide property suites.

Each runner replays one of the headline structure theorems over a
family of spaces and returns a plain report dict with stable keys:
`checks` (decisions attempted), `failures` (human-readable strings,
empty on success), `unknown` (indefinite verdicts), `unknown_rate`,
and `fixture_unknown` (indefinite verdicts on the named fixtures,
which are expected to be decided exactly).  The command-line corpus
runner and the acceptance tests share these implementations.
"""

import random
from typing import Dict, List, Optional, Sequence

from .congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, UNKNOWN
from .corpus import (
    CorpusEntry,
    corpus_morphism_pairs,
    fixture_spaces,
    random_corpus,
)
from .errors import AmbiguousMaximumError, TypemonoidError
from .lattice import (
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
        self._fixture = False

    def enter_space(self, entry: CorpusEntry):
        self.report["spaces"] += 1
        self._fixture = entry.kind == "fixture"

    def saw(self, decision, where: str) -> str:
        self.report["checks"] += 1
        if decision.verdict == UNKNOWN:
            self.report["unknown"] += 1
            if self._fixture:
                self.report["fixture_unknown"] += 1
                self.report["failures"].append(f"{where}: unknown on a fixture")
        return decision.verdict

    def check(self, ok: bool, where: str):
        self.report["checks"] += 1
        if not ok:
            self.report["failures"].append(where)

    def finish(self) -> Dict:
        checks = self.report["checks"]
        self.report["unknown_rate"] = (
            self.report["unknown"] / checks if checks else 0.0
        )
        self.report["ok"] = not self.report["failures"]
        return self.report


def _sample_vectors(engine: TypeEngine, rng: random.Random, extra: int = 6):
    """Measurable-set vectors plus a few random multiplicity and
    omega-bearing vectors, the decision inputs for the law batteries."""
    out = [engine.abar_of_set(a) for a in engine.statspace.space.all_measurable_sets()]
    for _ in range(extra):
        fin = tuple(rng.randrange(0, 3) for _ in range(engine.n))
        out.append(engine.abar(fin))
    for _ in range(max(2, extra // 2)):
        om = frozenset(
            i for i in range(engine.n) if rng.random() < 0.4
        )
        fin = tuple(0 if i in om else rng.randrange(0, 2) for i in range(engine.n))
        out.append(engine.abar(fin, om))
    return out


# ---------------------------------------------------------------------------
# Theorem 1: the type monoid is a commutative monoid measure target


def run_theorem1_suite(
    entries: Optional[Sequence[CorpusEntry]] = None,
    seed: int = 5,
    pair_cap: int = 40,
    morphism_limit: int = 12,
) -> Dict:
    tally = _Tally("theorem1")
    rng = random.Random(seed)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    for entry in entries:
        tally.enter_space(entry)
        eng = TypeEngine(entry.statspace)
        sets = eng.statspace.space.all_measurable_sets()
        name = entry.name

        d = eng.decide_equal(eng.abar_of_set(frozenset()), eng.abar_zero())
        tally.saw(d, f"{name}: empty set measures to zero")
        tally.check(d.verdict == EQUAL, f"{name}: empty set measures to zero")

        vectors = _sample_vectors(eng, rng)
        # commutativity and disjoint additivity are identities of the
        # vector representation; the decision procedure must see them
        for _ in range(6):
            p, q = rng.choice(vectors), rng.choice(vectors)
            v = tally.saw(eng.decide_equal(p + q, q + p), f"{name}: commutativity")
            tally.check(v == EQUAL, f"{name}: commutativity")

        for i, a in enumerate(sets):
            # unordered pairs only; commutativity covers the mirror image
            for b in sets[i:]:
                if a & b:
                    continue
                d = eng.decide_equal(
                    eng.abar_of_set(a) + eng.abar_of_set(b),
                    eng.abar_of_set(a | b),
                )
                tally.saw(d, f"{name}: additivity")
                tally.check(d.verdict == EQUAL, f"{name}: additivity {a} {b}")

        for a in sets[: pair_cap // 4]:
            p = eng.abar_of_set(a)
            fold = eng.omega_fold(p)
            d = eng.decide_equal(fold + fold, fold)
            tally.saw(d, f"{name}: omega-fold absorbs itself")
            tally.check(d.verdict == EQUAL, f"{name}: omega-fold absorbs itself {a}")
            d = eng.decide_equal(fold + p, fold)
            tally.saw(d, f"{name}: omega-fold absorbs a summand")
            tally.check(
                d.verdict == EQUAL, f"{name}: omega-fold absorbs a summand {a}"
            )

        for s in range(eng.statspace.monoid.order):
            for a in sets:
                d = eng.decide_equal(
                    eng.abar_of_set(pullback(eng.statspace, s, a)),
                    eng.abar_of_set(a),
                )
                tally.saw(d, f"{name}: stationarity")
                tally.check(
                    d.verdict == EQUAL, f"{name}: stationarity s={s} A={sorted(a)}"
                )

        pairs = [
            (rng.choice(vectors), rng.choice(vectors)) for _ in range(pair_cap)
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
                    v != NOT_EQUAL, f"{name}: antisymmetry broken at {p}, {q}"
                )

        for p, q in pairs[: pair_cap // 3]:
            base = eng.decide_equal(p, q)
            for k in (2, 3):
                scaled = eng.decide_equal(p.scale(k), q.scale(k))
                tally.saw(scaled, f"{name}: cancellation")
                if base.verdict in _DEFINITE and scaled.verdict in _DEFINITE:
                    tally.check(
                        base.verdict == scaled.verdict,
                        f"{name}: {k}-cancellation broken at {p}, {q}",
                    )

    # cofunctor laws over composable morphism pairs
    pairs = corpus_morphism_pairs(entries, limit=morphism_limit)
    for m2, m1 in pairs:
        src = TypeEngine(m1.source)
        mid = TypeEngine(m1.target)
        tgt = TypeEngine(m2.target)
        f1 = morphism_type_map(m1, src, mid)
        f2 = morphism_type_map(m2, mid, tgt)
        ident = morphism_type_map(identity_morphism(m1.source), src, src)
        composed = morphism_type_map(compose_morphisms(m2, m1), src, tgt)
        for batom in range(tgt.n):
            t = tgt.type_of(frozenset({batom}))
            via_pair = f1(f2(t))
            via_composite = composed(t)
            d = src.decide_equal(via_pair, via_composite)
            tally.saw(d, "cofunctor composition")
            tally.check(d.verdict == EQUAL, "cofunctor composition")
        for batom in range(src.n):
            t = src.type_of(frozenset({batom}))
            d = src.decide_equal(ident(t), t)
            tally.saw(d, "cofunctor identity")
            tally.check(d.verdict == EQUAL, "cofunctor identity")
        # measuring a pulled-back set equals mapping the measured type
        for batom in range(mid.n):
            pulled = m1.preimage_atoms(batom)
            d = src.decide_equal(
                src.type_of(pulled), f1(mid.type_of(frozenset({batom})))
            )
            tally.saw(d, "measurement commutes with pullback")
            tally.check(d.verdict == EQUAL, "measurement commutes with pullback")
    tally.report["morphism_pairs"] = len(pairs)
    return tally.finish()


# ---------------------------------------------------------------------------
# Theorem 2: scales, isotropy groups, quantity arithmetic


def run_theorem2_suite(
    entries: Optional[Sequence[CorpusEntry]] = None,
    seed: int = 9,
    pairs_per_space: int = 100,
) -> Dict:
    tally = _Tally("theorem2")
    rng = random.Random(seed)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    for entry in entries:
        tally.enter_space(entry)
        eng = TypeEngine(entry.statspace)
        name = entry.name
        try:
            lat = enumerate_idempotents(eng)
        except TypemonoidError as exc:
            tally.report["failures"].append(f"{name}: lattice unavailable: {exc}")
            continue

        distributive, counterexample = check_distributive(lat)
        tally.check(distributive, f"{name}: distributivity {counterexample}")

        vectors = _sample_vectors(eng, rng, extra=8)
        scales = list(lat)
        for _ in range(pairs_per_space):
            e = rng.choice(scales)
            u = rng.choice(vectors).vec.add(e.vec)
            v = rng.choice(vectors).vec.add(e.vec)
            # same-scale pairs; embedding must reflect type equality
            if eng.omega_normalize(u).vec.omega != e.omega_support:
                continue
            if eng.omega_normalize(v).vec.omega != e.omega_support:
                continue
            try:
                qu = embed(eng, u)
                qv = embed(eng, v)
            except (TypemonoidError, AmbiguousMaximumError) as exc:
                tally.report["failures"].append(f"{name}: embed failed: {exc}")
                continue
            qd = quantity_eq(eng, qu, qv)
            td = eng.decide_equal(u, v)
            tally.saw(qd, f"{name}: embed")
            tally.saw(td, f"{name}: embed")
            if qd.verdict in _DEFINITE and td.verdict in _DEFINITE:
                tally.check(
                    (qd.verdict == EQUAL) == (td.verdict == EQUAL),
                    f"{name}: embed not injective at {u}, {v}",
                )

        for e in scales:
            at_scale = []
            for p in vectors:
                q = p.vec.add(e.vec)
                if eng.omega_normalize(q).vec.omega == e.omega_support:
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
                tally.saw(d, f"{name}: quantity commutativity")
                tally.check(d.verdict == EQUAL, f"{name}: quantity commutativity")
                lhs = quantity_add(eng, quantity_add(eng, x, y), w)
                rhs = quantity_add(eng, x, quantity_add(eng, y, w))
                d = quantity_eq(eng, lhs, rhs)
                tally.saw(d, f"{name}: quantity associativity")
                tally.check(d.verdict == EQUAL, f"{name}: quantity associativity")
                d = quantity_eq(eng, quantity_add(eng, x, z), x)
                tally.saw(d, f"{name}: quantity unit")
                tally.check(d.verdict == EQUAL, f"{name}: quantity unit")
                d = quantity_eq(eng, quantity_add(eng, x, quantity_neg(x)), z)
                tally.saw(d, f"{name}: quantity inverse")
                tally.check(d.verdict == EQUAL, f"{name}: quantity inverse")
    return tally.finish()


# ---------------------------------------------------------------------------
# Theorem 3: hierarchical measures and their continuity


def run_theorem3_suite(
    entries: Optional[Sequence[CorpusEntry]] = None,
    schemas_below: int = 20,
) -> Dict:
    tally = _Tally("theorem3")
    if entries is None:
        entries = [
            CorpusEntry(name=f"fixture_{name}", statspace=ss, kind="fixture")
            for name, ss in fixture_spaces().items()
        ]
    for entry in entries:
        tally.enter_space(entry)
        eng = TypeEngine(entry.statspace)
        name = entry.name
        try:
            lat = enumerate_idempotents(eng)
        except TypemonoidError as exc:
            tally.report["failures"].append(f"{name}: lattice unavailable: {exc}")
            continue
        rep = continuity_suite(eng, lat, schemas_below=schemas_below)
        for key in ("monotone", "subadditive", "below", "above"):
            tally.report["checks"] += rep[key]
        for failure in rep["failures"]:
            tally.report["failures"].append(f"{name}: {failure}")
        tally.check(rep["below"] >= schemas_below, f"{name}: below-schema count")

        # a colimit of an eventually constant chain is its own supremum
        p = eng.abar_of_set(frozenset(range(min(1, eng.n))))
        t, info = colimit_increasing(eng, [p], ("constant",))
        tally.check(
            eng.decide_equal(t, eng.type_of_abar(p)).verdict == EQUAL,
            f"{name}: constant colimit",
        )
        tally.report["checks"] += info["upper_bound_checks"]
    return tally.finish()


# ---------------------------------------------------------------------------
# Tarski: normalized measures exist exactly off the paradoxical sets


def run_tarski_suite(
    entries: Optional[Sequence[CorpusEntry]] = None,
) -> Dict:
    tally = _Tally("tarski")
    entries = corpus_with_fixtures() if entries is None else list(entries)
    tally.report["agreements"] = 0
    tally.report["null_type_sets"] = 0
    for entry in entries:
        tally.enter_space(entry)
        eng = TypeEngine(entry.statspace)
        for aset in eng.statspace.space.all_measurable_sets():
            if not aset:
                continue
            rep = cross_check_tarski(eng, aset)
            tally.report["checks"] += 1
            if rep.null_type:
                tally.report["null_type_sets"] += 1
                continue
            if rep.paradox.verdict == UNKNOWN:
                tally.report["unknown"] += 1
                if entry.kind == "fixture":
                    tally.report["fixture_unknown"] += 1
                continue
            if rep.consistent:
                tally.report["agreements"] += 1
            else:
                tally.report["failures"].append(
                    f"{entry.name}: biconditional fails on {sorted(aset)}: {rep.note}"
                )
    return tally.finish()


# ---------------------------------------------------------------------------
# Soundness: replay every logged definite decision


def run_soundness_audit(
    entries: Optional[Sequence[CorpusEntry]] = None,
    seed: int = 13,
    queries_per_space: int = 20,
) -> Dict:
    tally = _Tally("soundness")
    rng = random.Random(seed)
    entries = corpus_with_fixtures() if entries is None else list(entries)
    totals = dict.fromkeys(AUDIT_KINDS, 0)
    for entry in entries:
        tally.enter_space(entry)
        eng = TypeEngine(entry.statspace)
        vectors = _sample_vectors(eng, rng)
        for _ in range(queries_per_space):
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
