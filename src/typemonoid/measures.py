"""Stationary measures: synthesis, paradox checks, monoid-valued
measures, hierarchical measures, and the limit laws.

The classical side is exact rational arithmetic, and each answer is one
decision of the engine.  A stationary measure normalized on E solves the
system { x >= 0, x(preimage of a under s) = x(a) for all s and atoms a,
x(E) = 1 }.  Its finite solutions are the nonnegative conserved
functionals of the space's congruence scaled to x(E) = 1, and such a
functional is exactly what refutes 2[E] <= [E]: the engine asks the
conserved cone (or the simplex past RAY_LIMIT) for a y >= 0 with
y.(2e_E - e_E) = y(E) >= 1.  So synthesis decides 2[E] <= [E]; a
`functional` refutation y gives the measure y / y(E).  Otherwise no
measure exists, and the certificate is the domination witness of the
least k <= PARADOX_LIMIT with (k+1)[E] <= k[E] (Tarski's theorem: a set
carries a normalized measure exactly when no k+1 copies of it fit in k).
It is sound on its own: a measure with mu(E) = 1 would give k+1 <= k.
The answer is one flat `Synthesis`: the measure, or that decision.

Infinite values never help.  Suppose a measure is infinite on a set I
of atoms outside E and finite on the rest, J.  Stationarity forces I
to be forward invariant: an atom of I mapped into J would give an atom
of J an infinite preimage.  So under each symmetry s the preimages of
the atoms of J lie in J, and summing their stationarity equations shows
that the atoms of J which s maps into I carry total value 0.  Setting
the measure to 0 on I therefore keeps it stationary, with the same
value 1 on E (Tarski 1938, "Algebraische Fassung des Massproblems").
So the all-finite system alone decides existence, and a synthesized
measure has no infinite atom; measures with infinite atoms are still
built by hand and checked by `check`.

The monoid-valued side works with an abstract measure target: either a
finitely presented commutative monoid driven by the congruence engine,
or the extended nonnegative rationals.  Classification (stationary /
monotone / aparadoxical) and the extension of a measure through the
hierarchical measure at its null scale both reduce to target decisions,
each flag by an exact rule:

- Stationarity is checked on a generating set of the monoid.  The action
  composes, pre_st = pre_t o pre_s, and the preimages under t of the
  disjoint atoms of pre_s(a) are disjoint, so a measure stationary under
  s and t is stationary under st.  Every element before the first
  failing one is generated by passing generators, so the first failing
  element is itself a generator.
- Monotonicity.  A combination of atom values that sums to zero uses
  only unit values (x + y = 0 makes x a unit), so a measure whose
  non-null atoms have no unit value is monotone.  `is_unit` is exact on
  both targets: a rational is a unit when it is 0, and an element of a
  finitely presented monoid when its support lies in U(empty), the
  support closure theorem with W empty.  When a non-null atom a has a
  unit value, the identity assignment of `tarski_T_measure` gives the
  zero combination outright: the domination witness of x_a <= 0 is
  e_a + gamma ~ 0.  Any other assignment would need the unit group of
  the target, which is not computed, and raises `UnitGroupError`.
- Aparadoxicality is checked on single atoms.  omega is additive, so the
  idempotent omega(mu E) is the sum of omega(x_a) over the atoms a of E;
  when each term is zero or absorbs the top and every atom value, so
  does the sum, since absorption by one summand is absorption by the
  sum.  Some set fails exactly when some single atom does.

The hierarchical measure and the limit laws read scales from
`lattice.idempotent_of`.  A scale is certified by order decisions that
the engine logs and the audit replays; no certificate object exists.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .congruence import (
    EQUAL,
    INF,
    LEQ,
    NOT_EQUAL,
    NOT_LEQ,
    UNKNOWN,
    Budget,
    Congruence,
    Decision,
    ExtVec,
    unit_vec,
    vec_add,
    zero_vec,
)
from .errors import (
    AmbiguousMaximumError,
    BudgetExhaustedError,
    ContractError,
    NormalizationImpossibleError,
    SpaceMismatchError,
    UnitGroupError,
)
from .lattice import (
    IdempotentElement,
    IdempotentLattice,
    canonical_idempotent,
    idempotent_of,
    scale_covers,
)
from .monoid import generating_set
from .spaces import AtomSet, StatSpace, pullback
from .types import AbarElement, TarskiType, TypeEngine

# Most copies the paradox certificate of a set without a measure may use:
# synthesis looks for the least k <= PARADOX_LIMIT with (k+1)[E] <= k[E].
# Each k is one order decision under the engine's budget; a set whose
# certificate needs more says so in its report instead of guessing.
PARADOX_LIMIT = 8


# ----- classical rational measures -------------------------------------------


@dataclass(frozen=True)
class RationalStationaryMeasure:
    """Exact measure on a finite space: rational values per atom plus a
    set of atoms carrying infinite mass."""

    statspace: StatSpace
    finite_values: Tuple[Fraction, ...]
    infinite_atoms: FrozenSet[int]

    def __post_init__(self):
        if len(self.finite_values) != self.statspace.n_atoms:
            raise SpaceMismatchError("one value per atom required")
        if any(v < 0 for v in self.finite_values):
            raise ContractError("negative measure value")

    def value(self, atoms: AtomSet):
        if set(atoms) & self.infinite_atoms:
            return INF
        return sum((self.finite_values[a] for a in atoms), Fraction(0))

    def check(self) -> List[str]:
        """Stationarity for every symmetry, checked on single atoms.

        This is the check over every measurable set: preimages of
        disjoint atoms are disjoint, so finite values add up, and the
        preimage of A meets the infinite atoms exactly when the preimage
        of some atom of A does.  The values are scaled once to integers
        over their common denominator, and one pass over each atom map
        sums the preimage of every atom.
        """
        ss = self.statspace
        n, inf = ss.n_atoms, self.infinite_atoms
        den = math.lcm(*(v.denominator for v in self.finite_values))
        ints = [v.numerator * (den // v.denominator) for v in self.finite_values]
        problems = []
        for s, amap in enumerate(ss.atom_maps):
            sums = [0] * n
            meets_inf = [False] * n
            for b, a in enumerate(amap):
                if b in inf:
                    meets_inf[a] = True
                else:
                    sums[a] += ints[b]
            for a in range(n):
                if a in inf:
                    ok = meets_inf[a]
                else:
                    ok = not meets_inf[a] and sums[a] == ints[a]
                if not ok:
                    atom = frozenset({a})
                    problems.append(
                        f"s={s} A={[a]}: value {self.value(atom)} "
                        f"!= preimage value {self.value(pullback(ss, s, atom))}"
                    )
        return problems

    def to_json(self) -> dict:
        labels = self.statspace.space.atom_labels
        return {
            "finite": {
                labels[a]: f"{v.numerator}/{v.denominator}"
                for a, v in enumerate(self.finite_values)
                if a not in self.infinite_atoms
            },
            "infinite": sorted(labels[a] for a in self.infinite_atoms),
        }


def is_paradoxical(engine: TypeEngine, atoms: AtomSet) -> Decision:
    """Decide whether the set duplicates itself: two copies fit inside one.

    The empty set (and any null-type set) is degenerately paradoxical
    under this definition; callers that need the classical reading
    should test for null type separately.
    """
    t = engine.type_of(frozenset(atoms))
    d = engine.decide_leq(engine.type_scale(2, t), t)
    if d.verdict == LEQ:
        back = engine.decide_equal(engine.type_scale(2, t), t)
        if back.verdict == NOT_EQUAL:
            raise ContractError("2[E] <= [E] but 2[E] != [E]: order is broken")
    return d


@dataclass(frozen=True)
class Synthesis:
    """The answer of `synthesize_classical_measure`.  `measure` is the
    synthesized measure, or None when none exists; `method` is the route
    that decided ("cone", "lp" or "paradox").  Without a measure,
    `certificate` is the decision of (k+1)[E] <= k[E] at the least
    k <= PARADOX_LIMIT that decides `leq`; when no such k was found, k and
    the certificate are None and `exhausted` names the bound or budget
    that ran out."""

    measure: Optional[RationalStationaryMeasure]
    method: str
    k: Optional[int] = None
    certificate: Optional[Decision] = None
    exhausted: Optional[str] = None


def synthesize_classical_measure(engine: TypeEngine, atoms: AtomSet) -> Synthesis:
    """Search for a stationary measure on the engine's space with value
    exactly 1 on the given set.

    One engine decision answers: 2[E] <= [E], through `decide_leq`, so it
    is logged and audited.  A `functional` refutation y is a nonnegative
    conserved functional with y(E) >= 1, and the measure is y / y(E): on
    the conserved cone y comes from the first ray r with r(E) > 0, so the
    measure is r / r(E) (method "cone"); past RAY_LIMIT it is the
    simplex's point (method "lp").  A returned measure has passed `check`.

    Without such a y no measure exists, and the result carries the
    paradox certificate (method "paradox"): the least k <= PARADOX_LIMIT
    for which (k+1)[E] <= k[E] decides `leq`, with that decision.  If no
    k up to the bound decides `leq`, k is None and `exhausted` names
    PARADOX_LIMIT; the search stops at the first k decided `unknown`, and
    `exhausted` names the budget that decision names instead.  Every
    decision stays in the engine's audit log, which replays it.
    """
    e_set = frozenset(atoms)
    if not e_set:
        raise NormalizationImpossibleError("cannot normalize on the empty set")
    ss = engine.statspace
    if any(not (0 <= a < ss.n_atoms) for a in e_set):
        raise SpaceMismatchError("unknown atom in normalization set")
    t = engine.type_of(e_set)
    d = engine.decide_leq(engine.type_scale(2, t), t)
    if d.witness.get("kind") != "functional":
        for k in range(1, PARADOX_LIMIT + 1):
            if k > 1:
                d = engine.decide_leq(engine.type_scale(k + 1, t), engine.type_scale(k, t))
            if d.verdict == LEQ:
                return Synthesis(None, "paradox", k, d)
            if d.verdict == UNKNOWN:
                return Synthesis(None, "paradox", exhausted=d.witness["exhausted"][0])
        return Synthesis(None, "paradox", exhausted="PARADOX_LIMIT")
    y = d.witness["y"]
    mass = sum(y[a] for a in e_set)
    m = RationalStationaryMeasure(ss, tuple(c / mass for c in y), frozenset())
    bad = m.check()
    if bad:
        raise ContractError(f"synthesized measure fails invariants: {bad}")
    return Synthesis(m, "lp" if engine.congruence.conserved_rays() is None else "cone")


@dataclass
class TarskiCrossCheck:
    atoms: FrozenSet[int]
    null_type: bool
    paradox: Optional[Decision]
    measure: Optional[RationalStationaryMeasure]
    consistent: Optional[bool]
    note: str = ""


def cross_check_tarski(engine: TypeEngine, atoms: AtomSet) -> TarskiCrossCheck:
    """Existence of a normalized measure against the paradox verdict.

    Null-type sets are excluded from the biconditional: they admit no
    normalization for reasons of nullity, not of paradox, and are
    reported separately.
    """
    e_set = frozenset(atoms)
    if not e_set:
        raise NormalizationImpossibleError("empty set")
    t = engine.type_of(e_set)
    nullness = engine.decide_equal(t, engine.type_zero())
    if nullness.verdict == EQUAL:
        return TarskiCrossCheck(
            e_set, True, None, None, None,
            note="normalization impossible: set has null type",
        )
    d = is_paradoxical(engine, e_set)
    m = synthesize_classical_measure(engine, e_set).measure
    if not d.is_definite():
        return TarskiCrossCheck(e_set, False, d, m, None, note="paradox verdict unknown")
    consistent = (m is not None) == (d.verdict == NOT_LEQ)
    return TarskiCrossCheck(e_set, False, d, m, consistent)


# ----- measure targets --------------------------------------------------------


class FPMonoidTarget:
    """Measure values in a finitely presented commutative monoid, with
    equality decided by the congruence engine under its budget.  Countable
    self-sums stay inside the presented monoid's completion (omega
    vectors)."""

    def __init__(self, congruence: Congruence):
        self.congruence = congruence
        self.zero = ExtVec.from_vec(zero_vec(congruence.n))

    def add(self, x: ExtVec, y: ExtVec) -> ExtVec:
        return x.add(y)

    def scale(self, k: int, x: ExtVec) -> ExtVec:
        return x.scale(k)

    def omega(self, x: ExtVec) -> ExtVec:
        return self.congruence.normalize(ExtVec((0,) * x.n, x.support()))

    def eq(self, x: ExtVec, y: ExtVec) -> Decision:
        return self.congruence.decide_eq(x, y)

    def is_zero(self, x: ExtVec) -> Decision:
        return self.eq(x, self.zero)

    def is_unit(self, x: ExtVec) -> bool:
        """x + y ~ 0 for some y: every atom of x lies in U(empty)."""
        return x.support() <= self.congruence.support_closure(frozenset())[0]


class ExtendedRationalTarget:
    """Measure values in the nonnegative rationals with an absorbing
    infinity; every equality is decided exactly."""

    zero = Fraction(0)

    def add(self, x, y):
        if x == INF or y == INF:
            return INF
        return x + y

    def scale(self, k: int, x):
        if x == INF:
            return INF if k > 0 else Fraction(0)
        return k * x

    def omega(self, x):
        if x == INF or x > 0:
            return INF
        return Fraction(0)

    def eq(self, x, y) -> Decision:
        v = EQUAL if x == y else NOT_EQUAL
        return Decision(v, {"kind": "exact", "left": str(x), "right": str(y)}, Budget())

    def is_zero(self, x) -> Decision:
        return self.eq(x, Fraction(0))

    def is_unit(self, x) -> bool:
        return x == 0


@dataclass
class TMeasureSpec:
    """A measure valued in an abstract commutative-monoid target,
    presented by its atom values and extended additively."""

    statspace: StatSpace
    target: object
    assignment: Tuple[object, ...]

    def __post_init__(self):
        if len(self.assignment) != self.statspace.n_atoms:
            raise SpaceMismatchError("one target value per atom required")

    def value_of_atoms(self, atoms: AtomSet):
        v = self.target.zero
        for a in sorted(atoms):
            v = self.target.add(v, self.assignment[a])
        return v

    def value_of_vec(self, vec: Sequence[int]):
        v = self.target.zero
        for a, k in enumerate(vec):
            if k:
                v = self.target.add(v, self.target.scale(k, self.assignment[a]))
        return v

    def value_of_ext(self, x: ExtVec):
        """Additive extension to formal countable coproducts."""
        v = self.value_of_vec(x.finite)
        for a in sorted(x.omega):
            v = self.target.add(v, self.target.omega(self.assignment[a]))
        return v


def tarski_T_measure(engine: TypeEngine) -> TMeasureSpec:
    """The universal example: each atom is sent to its own type."""
    target = FPMonoidTarget(engine.congruence)
    assignment = tuple(
        ExtVec.from_vec(unit_vec(engine.n, a)) for a in range(engine.n)
    )
    return TMeasureSpec(engine.statspace, target, assignment)


@dataclass
class TMeasureFlags:
    stationary: bool
    monotone: bool
    aparadoxical: bool
    details: dict = field(default_factory=dict)


def _definite(d: Decision, what: str) -> str:
    if not d.is_definite():
        raise BudgetExhaustedError(f"target word problem undecided: {what}")
    return d.verdict


def _unit_witness(spec: TMeasureSpec, a: int) -> dict:
    """A zero combination of atom values that uses atom a, whose value is
    a unit.  Under the identity assignment the domination witness of
    x_a <= 0 gives it: e_a + gamma = w ~ 0."""
    n, t = spec.statspace.n_atoms, spec.target
    identity = tuple(ExtVec.from_vec(unit_vec(n, b)) for b in range(n))
    if not isinstance(t, FPMonoidTarget) or spec.assignment != identity:
        raise UnitGroupError(
            f"atom {a} has a unit value; deciding monotonicity needs the unit "
            "group of the target (ROADMAP item 4)"
        )
    d = t.congruence.decide_leq(spec.assignment[a], t.zero)
    if _definite(d, f"unit value of atom {a}") != LEQ:
        raise ContractError(f"unit value of atom {a} is not below zero")
    combination = vec_add(unit_vec(n, a), d.witness["gamma"])
    zero = t.is_zero(ExtVec.from_vec(combination))
    if _definite(zero, f"zero combination {combination}") != EQUAL:
        raise ContractError(f"combination {combination} is not zero")
    return {"atom": a, "combination": combination, "decision": zero.to_json()}


def classify_T_measure(spec: TMeasureSpec) -> TMeasureFlags:
    """Stationarity on a generating set of the monoid; monotonicity from
    the units of the target; aparadoxicality as extremality of the
    idempotent each single atom reaches by countable self-sums.  The
    module docstring gives the argument for each rule.
    """
    ss = spec.statspace
    t = spec.target
    n = ss.n_atoms
    details: Dict[str, object] = {}
    stationary = True
    for s in generating_set(ss.monoid):
        for a in range(n):
            pre = pullback(ss, s, frozenset({a}))
            d = t.eq(spec.value_of_atoms(pre), spec.assignment[a])
            if _definite(d, f"stationarity s={s} a={a}") != EQUAL:
                stationary = False
                details["stationarity_witness"] = {"s": s, "atom": a}
                break
        if not stationary:
            break

    monotone = True
    for a in range(n):
        if not t.is_unit(spec.assignment[a]):
            continue
        if _definite(t.is_zero(spec.assignment[a]), f"null atom {a}") == EQUAL:
            continue
        monotone = False
        details["unit_witness"] = _unit_witness(spec, a)
        break

    aparadoxical = True
    top = t.omega(spec.value_of_vec((1,) * n))
    for a in range(n):
        e_val = t.omega(spec.assignment[a])
        if _definite(t.is_zero(e_val), f"idempotent of atom {a}") == EQUAL:
            continue
        absorbing = _definite(
            t.eq(t.add(e_val, top), e_val), f"absorbency of atom {a}"
        ) == EQUAL and all(
            _definite(
                t.eq(t.add(e_val, spec.assignment[b]), e_val),
                f"absorbency of atom {a} on atom {b}",
            ) == EQUAL
            for b in range(n)
        )
        if not absorbing:
            aparadoxical = False
            details["interior_idempotent"] = {"support": [a]}
            break
    return TMeasureFlags(stationary, monotone, aparadoxical, details)


# ----- hierarchical measures --------------------------------------------------


@dataclass(frozen=True)
class HierarchicalValue:
    """A value in the completed isotropy monoid at a scale: either a
    member of the cancellative slice or one of its infinity points."""

    scale: IdempotentElement
    kind: str  # "member" | "infinity"
    member: Optional[ExtVec] = None
    infinity: Optional[IdempotentElement] = None

    def __str__(self) -> str:
        if self.kind == "member":
            return f"{self.member} @ {self.scale}"
        return f"{self.infinity} (infinite at {self.scale})"


def _require_scale(engine: TypeEngine, e: IdempotentElement) -> None:
    in_range = all(0 <= a < engine.n for a in e.omega_support)
    if not in_range or canonical_idempotent(engine, e.omega_support) != e:
        raise ContractError(f"{e} is not a scale of the space")


def hierarchical_measure(
    engine: TypeEngine,
    e: IdempotentElement,
    atoms_or_vec,
) -> HierarchicalValue:
    """The canonical measure at scale e: shift the type by e; if the
    result stays at scale e it is the value, otherwise the value is the
    infinity point of the completed scale below the shift.  The infinity
    points of scale e are its upper covers.  An e that is not a scale of
    the engine's space, in canonical form, is refused.

    The infinity points below the shift are the covers of e inside its
    scale s: a cover f below the shift has f + s below it too, so
    f + s = s, as s is the largest idempotent there, and s, strictly
    above e, holds at least one cover.  Covers form an antichain, so the value exists
    exactly when one cover lies inside s, and AmbiguousMaximumError is
    raised otherwise."""
    _require_scale(engine, e)
    shifted = engine.omega_normalize(engine._vec(atoms_or_vec).add(e.vec))
    s = idempotent_of(engine, shifted)
    if s == e:
        return HierarchicalValue(e, "member", member=shifted)
    below = [f for f in scale_covers(engine, e) if f.omega_support <= s.omega_support]
    if len(below) != 1:
        raise AmbiguousMaximumError(
            f"{len(below)} infinity points below the value, no unique maximum"
        )
    return HierarchicalValue(e, "infinity", infinity=below[0])


def hierarchical_eq(
    engine: TypeEngine, u: HierarchicalValue, v: HierarchicalValue
) -> bool:
    if u.scale != v.scale or u.kind != v.kind:
        return False
    if u.kind == "infinity":
        return u.infinity == v.infinity
    d = engine.decide_equal(u.member, v.member)
    if not d.is_definite():
        raise BudgetExhaustedError("hierarchical value comparison undecided")
    return d.verdict == EQUAL


def null_ideal(engine: TypeEngine, e: IdempotentElement) -> List[FrozenSet[int]]:
    """Measurable sets whose hierarchical value at e is the scale zero,
    in `all_measurable_sets` order; an e that is not a scale is refused.

    The value of A is zero exactly when [A] + e = e, that is [A] <= e =
    omega.U with U the support closure of e's support.  By the support
    closure theorem that holds exactly when A lies inside U, so the ideal
    is read off U with no decision."""
    _require_scale(engine, e)
    closed = engine.congruence.support_closure(e.omega_support)[0]
    return [a for a in engine.statspace.space.all_measurable_sets() if a <= closed]


# ----- extension of monoid-valued measures -------------------------------------


def evaluate_extension(spec: TMeasureSpec, value: HierarchicalValue):
    """The factor map: evaluate a measure additively on a value of the
    completed scale."""
    if value.kind == "member":
        return spec.value_of_ext(value.member)
    return spec.value_of_ext(value.infinity.vec)


@dataclass
class TMeasureExtension:
    scale: IdempotentElement
    idempotent_values: Dict[IdempotentElement, str]  # "zero" | "infinite"
    factorization_checked: int
    uniqueness_probe: str


def extend_T_measure(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    spec: TMeasureSpec,
) -> TMeasureExtension:
    """Factor an aparadoxical monotone measure through the hierarchical
    measure at its null scale.

    The scale is the largest idempotent with extended value zero; the
    factor map evaluates the measure additively on completed-scale
    values.  The factorization is checked on every measurable set, and
    uniqueness is probed against one perturbed alternative factor map.
    """
    if spec.statspace is not engine.statspace and spec.statspace != engine.statspace:
        raise SpaceMismatchError("measure and engine live on different spaces")
    flags = classify_T_measure(spec)
    if not (flags.stationary and flags.monotone and flags.aparadoxical):
        raise ContractError(
            f"extension requires a stationary monotone aparadoxical measure, got {flags}"
        )
    t = spec.target
    null_atoms = frozenset(
        a for a in range(engine.n)
        if _definite(t.is_zero(spec.assignment[a]), f"atom {a}") == EQUAL
    )
    scale = canonical_idempotent(engine, null_atoms)
    # the scale must be the largest idempotent of extended value zero
    idempotent_values: Dict[IdempotentElement, str] = {}
    for f in lattice:
        v = spec.value_of_ext(f.vec)
        is_z = _definite(t.is_zero(v), f"extended value at {f}") == EQUAL
        idempotent_values[f] = "zero" if is_z else "infinite"
        if is_z != lattice.leq(f, scale):
            raise ContractError(
                f"idempotent {f} has zero value iff below the scale; got {is_z}"
            )
    values = []
    for aset in engine.statspace.space.all_measurable_sets():
        mv = hierarchical_measure(engine, scale, aset)
        lhs = evaluate_extension(spec, mv)
        rhs = spec.value_of_atoms(aset)
        if _definite(t.eq(lhs, rhs), f"factorization on {sorted(aset)}") != EQUAL:
            raise ContractError(
                f"factorization fails on {sorted(aset)}: {lhs} != {rhs}"
            )
        values.append((aset, mv))
    # uniqueness probe: shift the factor map by one non-null atom and
    # watch the factorization break somewhere
    probe = "no non-null atom; factor map trivially unique"
    non_null = [a for a in range(engine.n) if a not in null_atoms]
    if non_null:
        a_star = non_null[0]
        broke = False
        for aset, mv in values:
            if mv.kind == "member":
                perturbed = spec.value_of_ext(
                    mv.member.add(ExtVec.from_vec(unit_vec(engine.n, a_star)))
                )
            else:
                perturbed = spec.value_of_ext(mv.infinity.vec)
            if _definite(
                t.eq(perturbed, spec.value_of_atoms(aset)), "uniqueness probe"
            ) != EQUAL:
                broke = True
                break
        if not broke:
            raise ContractError("perturbed factor map also factorizes; not unique")
        probe = f"perturbation by atom {a_star} breaks the factorization"
    return TMeasureExtension(scale, idempotent_values, len(values), probe)


# ----- limits -----------------------------------------------------------------


def _ext_dominates(hi: ExtVec, lo: ExtVec) -> bool:
    for i in range(hi.n):
        hi_v = None if i in hi.omega else hi.finite[i]
        lo_v = None if i in lo.omega else lo.finite[i]
        if hi_v is None:
            continue
        if lo_v is None or lo_v > hi_v:
            return False
    return True


def colimit_increasing(
    engine: TypeEngine,
    prefix: Sequence[AbarElement],
    tail: Tuple,
) -> Tuple[TarskiType, dict]:
    """Limit of an increasing sequence given as a finite prefix plus a
    tail schema: ("constant",) repeats the last prefix element,
    ("periodic", v) keeps adding the increment v.

    The limit saturates every coordinate the increment keeps growing.
    Each unrolled term is checked to embed in the next and to sit below
    the limit in the type order.
    """
    if not prefix:
        raise ContractError("prefix must be nonempty")
    terms = [engine.omega_normalize(p) for p in prefix]
    if tail[0] == "constant":
        limit_vec = terms[-1]
        unrolled = terms + [terms[-1]] * 2
    elif tail[0] == "periodic":
        inc = tail[1]
        if len(inc) != engine.n or any(k < 0 for k in inc) or not any(inc):
            raise ContractError("periodic increment must be nonzero and nonnegative")
        support = frozenset(i for i, k in enumerate(inc) if k)
        last = terms[-1]
        merged = last.omega | support
        saturated = tuple(
            0 if i in merged else last.finite[i] for i in range(engine.n)
        )
        limit_vec = engine.omega_normalize(ExtVec(saturated, merged))
        unrolled = list(terms)
        for k in range(1, 4):
            unrolled.append(
                ExtVec(
                    tuple(
                        0 if i in terms[-1].omega else terms[-1].finite[i] + k * inc[i]
                        for i in range(engine.n)
                    ),
                    terms[-1].omega,
                )
            )
    else:
        raise ContractError(f"unknown tail schema {tail[0]!r}")
    for lo, hi in zip(unrolled, unrolled[1:]):
        if not _ext_dominates(hi, lo):
            raise ContractError(f"sequence not increasing: {lo} then {hi}")
    report = {"upper_bound_checks": 0}
    limit = engine.type_of_abar(limit_vec)
    for term in unrolled:
        d = engine.decide_leq(term, limit_vec)
        if d.verdict != LEQ:
            raise ContractError(f"term {term} does not embed below the limit")
        report["upper_bound_checks"] += 1
    return limit, report


def decreasing_limit_with_scale(
    engine: TypeEngine, chain: Sequence
) -> Tuple[TarskiType, dict]:
    """Limit of a decreasing type chain that is eventually constant
    inside one isotropy slice.

    The eventual value c at scale e determines the limit as c + e (the
    scale's unit corrects for whatever infinite prefix the chain passed
    through); subtraction happens in the quantity group, which here
    amounts to reading off the stabilized value.
    """
    if not chain:
        raise ContractError("empty chain")
    vecs = [engine.omega_normalize(c) for c in chain]
    for hi, lo in zip(vecs, vecs[1:]):
        d = engine.decide_leq(lo, hi)
        if d.verdict != LEQ:
            raise ContractError("chain is not decreasing")
    tail_vec = vecs[-1]
    e = idempotent_of(engine, tail_vec)
    limit_plus_e = engine.omega_normalize(tail_vec.add(e.vec))
    d = engine.decide_equal(limit_plus_e, tail_vec)
    if d.verdict != EQUAL:
        raise ContractError("stabilized value is not fixed by its scale unit")
    return engine.type_of_abar(limit_plus_e), {"scale": e}


def continuity_suite(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    schemas_below: int = 20,
) -> dict:
    """The four limit laws of the canonical measure mu(A) = [A] on one
    space.

    Monotonicity and subadditivity are checked on one-atom steps: for
    each measurable A and atom x outside it, mu(A) <= mu(A | {x}) and
    mu(A | {x}) <= mu(A) + mu({x}).  A chain adding one atom at a time
    joins any A inside B, so transitivity gives mu(A) <= mu(B).  For
    mu(A | B) <= mu(A) + mu(B), induct on |B - A|: with x in B - A and
    B' = B - {x}, mu(A | B) <= mu(A | B') + mu({x}) by the step, which
    is <= mu(A) + mu(B') + mu({x}) by induction, as the order is kept by
    adding to both sides, and that is mu(A) + mu(B) by additivity; when
    B lies inside A, mu(A) <= mu(A) + mu(B) by the algebraic order.
    Continuity from below runs over generated increasing schemas;
    continuity from above over stabilizing chains through each
    nontrivial scale, asserting the eventual value plus the scale unit
    equals the limit.
    """
    report = {"monotone": 0, "subadditive": 0, "below": 0, "above": 0,
              "failures": []}
    for a_set in engine.statspace.space.all_measurable_sets():
        mu_a = engine.type_of(a_set)
        for x in range(engine.n):
            if x in a_set:
                continue
            atom = frozenset({x})
            mu_b = engine.type_of(a_set | atom)
            d = engine.decide_leq(mu_a, mu_b)
            if d.verdict == LEQ:
                report["monotone"] += 1
            else:
                report["failures"].append(("monotone", a_set, a_set | atom, d.verdict))
            d = engine.decide_leq(mu_b, engine.type_add(mu_a, engine.type_of(atom)))
            if d.verdict == LEQ:
                report["subadditive"] += 1
            else:
                report["failures"].append(("subadditive", a_set, atom, d.verdict))
    atom_cycle = itertools.cycle(range(engine.n))
    made = 0
    while made < schemas_below:
        a = next(atom_cycle)
        base = engine.abar_of_set(frozenset({a}))
        inc = unit_vec(engine.n, (a + made) % engine.n)
        prefix = [base, base + engine.abar(inc)]
        limit, _ = colimit_increasing(engine, prefix, ("periodic", inc))
        expected = engine.omega_normalize(
            ExtVec(
                tuple(0 if i in {(a + made) % engine.n} else base.vec.finite[i]
                      for i in range(engine.n)),
                frozenset({(a + made) % engine.n}),
            ),
        )
        d = engine.decide_equal(limit, expected)
        if d.verdict == EQUAL:
            report["below"] += 1
        else:
            report["failures"].append(("below", a, inc, d.verdict))
        made += 1
    for e in lattice:
        # stabilizing chain: pass through the top, settle at a value of scale e
        settle = e.vec
        if engine.n and e != lattice.top:
            off = _off_scale_atom(engine, e)
            settle = settle.add(ExtVec.from_vec(unit_vec(engine.n, off)))
        chain = [lattice.top.vec, settle, settle]
        try:
            limit, info = decreasing_limit_with_scale(engine, chain)
        except ContractError as exc:
            report["failures"].append(("above", e, str(exc)))
            continue
        d = engine.decide_equal(limit, settle)
        if d.verdict == EQUAL and info["scale"] == e:
            report["above"] += 1
        else:
            report["failures"].append(("above", e, d.verdict, info["scale"]))
    return report


def _off_scale_atom(engine: TypeEngine, e: IdempotentElement) -> int:
    for a in range(engine.n):
        if a not in e.omega_support:
            return a
    return 0
