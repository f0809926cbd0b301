"""Stationary measures: synthesis, paradox checks, monoid-valued
measures, hierarchical measures, and the limit laws.

The classical side is exact rational arithmetic.  A stationary measure
normalized on E solves the system { x >= 0, x(preimage of a under s) =
x(a) for all s and atoms a, x(E) = 1 }.  Its finite solutions are the
nonnegative conserved functionals of the space's congruence, so the
measure is read off the extreme rays of the conserved cone: a solution
exists exactly when some ray r has r(E) > 0, and then x = r / r(E).
Exact rational linear programming runs only where the cone gives no
answer: past RAY_LIMIT rays, and for the Farkas certificate when no
ray fits.

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
hierarchical measure at its null scale both reduce to target equality
decisions.

Monotonicity is decided by a bounded search for a nonzero combination
of atom values that collapses to zero; the bound is a documented
parameter, not a completeness claim.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .congruence import (
    EQUAL,
    LEQ,
    NOT_EQUAL,
    NOT_LEQ,
    Budget,
    Congruence,
    Decision,
    ExtVec,
    indicator,
    unit_vec,
    zero_vec,
)
from .errors import (
    AmbiguousMaximumError,
    BudgetExhaustedError,
    ContractError,
    NormalizationImpossibleError,
    SpaceMismatchError,
)
from .lattice import (
    IdempotentElement,
    IdempotentLattice,
    LatticeError,
    canonical_idempotent,
    isotropy_decompose,
    scale_covers,
)
from .lp import exact_lp_feasible
from .spaces import AtomSet, StatSpace, pullback
from .types import AbarElement, TarskiType, TypeEngine, relation_basis

INF = "inf"


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
        of some atom of A does.
        """
        ss = self.statspace
        problems = []
        for s in range(ss.monoid.order):
            for a in range(ss.n_atoms):
                atom = frozenset({a})
                pre = pullback(ss, s, atom)
                if self.value(pre) != self.value(atom):
                    problems.append(
                        f"s={s} A={[a]}: value {self.value(atom)} "
                        f"!= preimage value {self.value(pre)}"
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


def is_paradoxical(engine: TypeEngine, atoms: AtomSet,
                   budget: Optional[Budget] = None) -> Decision:
    """Decide whether the set duplicates itself: two copies fit inside one.

    The empty set (and any null-type set) is degenerately paradoxical
    under this definition; callers that need the classical reading
    should test for null type separately.
    """
    t = engine.type_of(frozenset(atoms))
    d = engine.decide_leq(engine.type_scale(2, t), t, budget)
    if d.verdict == LEQ:
        back = engine.decide_equal(engine.type_scale(2, t), t, budget)
        if back.verdict == NOT_EQUAL:
            raise ContractError("2[E] <= [E] but 2[E] != [E]: order is broken")
    return d


@dataclass
class SynthesisReport:
    measure: Optional[RationalStationaryMeasure]
    stages: List[dict] = field(default_factory=list)


def synthesize_classical_measure(
    ss: StatSpace, atoms: AtomSet, want_report: bool = False
) -> Union[Optional[RationalStationaryMeasure], SynthesisReport]:
    """Search for a stationary measure with value exactly 1 on the given set.

    The measure is a nonnegative conserved functional y with y(E) > 0,
    scaled to y / y(E): read off the conserved cone as the first ray r
    with r(E) > 0 in the cone's fixed order, or past RAY_LIMIT found by
    the exact LP.  The report has one stage, with the method that
    decided it ("cone" or "lp").  Returns None (or a report whose stage
    carries the LP's infeasibility certificate) when no functional fits,
    which by the existence theorem happens exactly for paradoxical
    sets.  A returned measure has passed `check`.
    """
    e_set = frozenset(atoms)
    if not e_set:
        raise NormalizationImpossibleError("cannot normalize on the empty set")
    if any(not (0 <= a < ss.n_atoms) for a in e_set):
        raise SpaceMismatchError("unknown atom in normalization set")
    cong = Congruence(ss.n_atoms, [(r.lhs, r.rhs) for r in relation_basis(ss)])
    return _synthesize(cong, ss, e_set, want_report)


def _synthesize(
    cong: Congruence, ss: StatSpace, e_set: FrozenSet[int], want_report: bool
) -> Union[Optional[RationalStationaryMeasure], SynthesisReport]:
    """`synthesize_classical_measure` on the space's congruence `cong`.

    With the cone, the first fitting ray gives the measure and the LP
    runs only for the Farkas certificate.  Past RAY_LIMIT one LP with
    x(E) = 1 decides: its point is the measure, or its Farkas vector the
    certificate.
    """
    n = ss.n_atoms
    target = indicator(n, e_set)
    by_cone = cong.conserved_rays() is not None
    y = cong._nonneg_conserved(target) if by_cone else None
    if y is None:
        equalities = [(d, 0) for d in cong.differences()] + [(target, 1)]
        res = exact_lp_feasible(n, equalities=equalities)
        if not res.feasible:
            stage = {"infinite": [], "feasible": False, "method": "lp", "farkas": res.farkas}
            return SynthesisReport(None, [stage]) if want_report else None
        if by_cone:
            raise ContractError("LP finds a measure that no conserved functional gives")
        y = res.point
    mass = sum(y[a] for a in e_set)
    m = RationalStationaryMeasure(ss, tuple(c / mass for c in y), frozenset())
    bad = m.check()
    if bad:
        raise ContractError(f"synthesized measure fails invariants: {bad}")
    if want_report:
        method = "cone" if by_cone else "lp"
        return SynthesisReport(m, [{"infinite": [], "feasible": True, "method": method}])
    return m


@dataclass
class TarskiCrossCheck:
    atoms: FrozenSet[int]
    null_type: bool
    paradox: Optional[Decision]
    measure: Optional[RationalStationaryMeasure]
    consistent: Optional[bool]
    note: str = ""


def cross_check_tarski(engine: TypeEngine, atoms: AtomSet,
                       budget: Optional[Budget] = None) -> TarskiCrossCheck:
    """Existence of a normalized measure against the paradox verdict.

    Null-type sets are excluded from the biconditional: they admit no
    normalization for reasons of nullity, not of paradox, and are
    reported separately.
    """
    e_set = frozenset(atoms)
    if not e_set:
        raise NormalizationImpossibleError("empty set")
    t = engine.type_of(e_set)
    nullness = engine.decide_equal(t, engine.type_zero(), budget)
    if nullness.verdict == EQUAL:
        return TarskiCrossCheck(
            e_set, True, None, None, None,
            note="normalization impossible: set has null type",
        )
    d = is_paradoxical(engine, e_set, budget)
    m = _synthesize(engine.congruence, engine.statspace, e_set, False)
    if not d.is_definite():
        return TarskiCrossCheck(e_set, False, d, m, None, note="paradox verdict unknown")
    consistent = (m is not None) == (d.verdict == NOT_LEQ)
    return TarskiCrossCheck(e_set, False, d, m, consistent)


# ----- measure targets --------------------------------------------------------


class FPMonoidTarget:
    """Measure values in a finitely presented commutative monoid, with
    equality decided by the congruence engine.  Countable self-sums stay
    inside the presented monoid's completion (omega vectors)."""

    def __init__(self, congruence: Congruence, budget: Budget = Budget()):
        self.congruence = congruence
        self.budget = budget
        self.zero = ExtVec.from_vec(zero_vec(congruence.n))

    def add(self, x: ExtVec, y: ExtVec) -> ExtVec:
        return x.add(y)

    def scale(self, k: int, x: ExtVec) -> ExtVec:
        return x.scale(k)

    def omega(self, x: ExtVec) -> ExtVec:
        out, _ = self.congruence.normalize(ExtVec((0,) * x.n, x.support()))
        return out

    def eq(self, x: ExtVec, y: ExtVec) -> Decision:
        return self.congruence.decide_eq(x, y, self.budget)

    def is_zero(self, x: ExtVec) -> Decision:
        return self.eq(x, self.zero)

    def describe(self) -> str:
        return f"fp-monoid({self.congruence.n} generators)"


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

    def describe(self) -> str:
        return "extended-rationals"


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
    target = FPMonoidTarget(engine.congruence, engine.budget)
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


def classify_T_measure(spec: TMeasureSpec, mult_bound: int = 3) -> TMeasureFlags:
    """Stationarity on atomic moves; monotonicity as triviality of the
    unit group of the image; aparadoxicality as extremality of every
    idempotent reachable from the image by countable self-sums.

    The unit-group search is bounded: it scans nonzero multiplicity
    vectors up to `mult_bound` per atom for a combination that is zero
    in the target while containing a non-null atom.
    """
    ss = spec.statspace
    t = spec.target
    details: Dict[str, object] = {}
    stationary = True
    for s in range(ss.monoid.order):
        for a in range(ss.n_atoms):
            pre = pullback(ss, s, frozenset({a}))
            d = t.eq(spec.value_of_atoms(pre), spec.assignment[a])
            if _definite(d, f"stationarity s={s} a={a}") != EQUAL:
                stationary = False
                details["stationarity_witness"] = {"s": s, "atom": a}
                break
        if not stationary:
            break

    null_atom = [
        _definite(t.is_zero(spec.assignment[a]), f"null atom {a}") == EQUAL
        for a in range(ss.n_atoms)
    ]
    monotone = True
    for vec in itertools.product(range(mult_bound + 1), repeat=ss.n_atoms):
        if not any(vec):
            continue
        if all(null_atom[a] for a in range(ss.n_atoms) if vec[a]):
            continue
        d = t.is_zero(spec.value_of_vec(vec))
        if _definite(d, f"unit search {vec}") == EQUAL:
            monotone = False
            details["unit_witness"] = {"combination": vec}
            break

    aparadoxical = True
    top = t.omega(spec.value_of_vec((1,) * ss.n_atoms))
    for r in range(ss.n_atoms + 1):
        for combo in itertools.combinations(range(ss.n_atoms), r):
            e_val = t.omega(spec.value_of_vec(indicator(ss.n_atoms, frozenset(combo))))
            if _definite(t.is_zero(e_val), f"idempotent of {combo}") == EQUAL:
                continue
            absorbing = _definite(
                t.eq(t.add(e_val, top), e_val), f"absorbency of {combo}"
            ) == EQUAL and all(
                _definite(
                    t.eq(t.add(e_val, spec.assignment[a]), e_val),
                    f"absorbency of {combo} on atom {a}",
                ) == EQUAL
                for a in range(ss.n_atoms)
            )
            if not absorbing:
                aparadoxical = False
                details["interior_idempotent"] = {"support": list(combo)}
                break
        if not aparadoxical:
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


def hierarchical_measure(
    engine: TypeEngine,
    e: IdempotentElement,
    atoms_or_vec,
    budget: Optional[Budget] = None,
) -> HierarchicalValue:
    """The canonical measure at scale e: shift the type by e; if the
    result stays at scale e it is the value, otherwise the value is the
    largest infinity point of the completed scale below the shift.  The
    infinity points of scale e are its upper covers.  An e that is not
    a scale of the engine's space, in canonical form, is refused."""
    in_range = all(0 <= a < engine.n for a in e.omega_support)
    if not in_range or canonical_idempotent(engine, e.omega_support) != e:
        raise ContractError(f"{e} is not a scale of the space")
    shifted = engine.omega_normalize(engine._vec(atoms_or_vec).add(e.vec))
    scale_of, _ = isotropy_decompose(engine, shifted, budget)
    if scale_of == e:
        return HierarchicalValue(e, "member", member=shifted.vec)
    t = engine.type_of_abar(shifted)
    below = []
    for f in scale_covers(engine, e):
        d = engine.decide_leq(f.vec, t, budget)
        if not d.is_definite():
            raise BudgetExhaustedError(f"cannot order infinity point {f}")
        if d.verdict == LEQ:
            below.append(f)
    if not below:
        raise LatticeError("shifted value escapes the scale with no infinity below")
    maxima = [f for f in below if all(g.omega_support <= f.omega_support for g in below)]
    if len(maxima) != 1:
        raise AmbiguousMaximumError(
            f"{len(below)} infinity points below the value, no unique maximum"
        )
    return HierarchicalValue(e, "infinity", infinity=maxima[0])


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
    """Measurable sets whose hierarchical value at e is the scale zero."""
    zero = HierarchicalValue(e, "member", member=ExtVec((0,) * engine.n, e.omega_support))
    out = []
    for aset in engine.statspace.space.all_measurable_sets():
        val = hierarchical_measure(engine, e, aset)
        if val.kind == "member" and hierarchical_eq(engine, val, zero):
            out.append(aset)
    return out


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
    budget: Optional[Budget] = None,
) -> TMeasureExtension:
    """Factor an aparadoxical monotone measure through the hierarchical
    measure at its null scale.

    The scale is the largest idempotent with extended value zero; the
    factor map evaluates the measure additively on completed-scale
    values.  The factorization is checked on every measurable set, and
    uniqueness is probed against one perturbed alternative factor map.
    """
    if spec.statspace is not engine.statspace:
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
    checked = 0
    for aset in engine.statspace.space.all_measurable_sets():
        mv = hierarchical_measure(engine, scale, aset, budget)
        lhs = evaluate_extension(spec, mv)
        rhs = spec.value_of_atoms(aset)
        if _definite(t.eq(lhs, rhs), f"factorization on {sorted(aset)}") != EQUAL:
            raise ContractError(
                f"factorization fails on {sorted(aset)}: {lhs} != {rhs}"
            )
        checked += 1
    # uniqueness probe: shift the factor map by one non-null atom and
    # watch the factorization break somewhere
    probe = "no non-null atom; factor map trivially unique"
    non_null = [a for a in range(engine.n) if a not in null_atoms]
    if non_null:
        a_star = non_null[0]
        broke = False
        for aset in engine.statspace.space.all_measurable_sets():
            mv = hierarchical_measure(engine, scale, aset, budget)
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
    return TMeasureExtension(scale, idempotent_values, checked, probe)


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
    budget: Optional[Budget] = None,
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
    terms = [engine.omega_normalize(p).vec for p in prefix]
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
        limit_vec = engine.omega_normalize(ExtVec(saturated, merged)).vec
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
        d = engine.decide_leq(term, limit_vec, budget)
        if d.verdict != LEQ:
            raise ContractError(f"term {term} does not embed below the limit")
        report["upper_bound_checks"] += 1
    return limit, report


def decreasing_limit_with_scale(
    engine: TypeEngine,
    chain: Sequence,
    budget: Optional[Budget] = None,
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
    vecs = [engine.omega_normalize(c).vec for c in chain]
    for hi, lo in zip(vecs, vecs[1:]):
        d = engine.decide_leq(lo, hi, budget)
        if d.verdict != LEQ:
            raise ContractError("chain is not decreasing")
    tail_vec = vecs[-1]
    e, _ = isotropy_decompose(engine, tail_vec, budget)
    limit_plus_e = engine.omega_normalize(tail_vec.add(e.vec))
    d = engine.decide_equal(limit_plus_e, tail_vec, budget)
    if d.verdict != EQUAL:
        raise ContractError("stabilized value is not fixed by its scale unit")
    return engine.type_of_abar(limit_plus_e), {"scale": e}


def continuity_suite(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    schemas_below: int = 20,
    budget: Optional[Budget] = None,
) -> dict:
    """The four limit laws of the canonical measure on one space.

    Monotonicity and subadditivity run over every measurable pair;
    continuity from below over generated increasing schemas; continuity
    from above over stabilizing chains through each nontrivial scale,
    asserting the eventual value plus the scale unit equals the limit.
    """
    report = {"monotone": 0, "subadditive": 0, "below": 0, "above": 0,
              "failures": []}
    sets = engine.statspace.space.all_measurable_sets()
    for a_set in sets:
        for b_set in sets:
            if a_set <= b_set:
                d = engine.decide_leq(engine.type_of(a_set), engine.type_of(b_set), budget)
                if d.verdict == LEQ:
                    report["monotone"] += 1
                else:
                    report["failures"].append(("monotone", a_set, b_set, d.verdict))
            union = engine.type_of(a_set | b_set)
            bound = engine.type_add(engine.type_of(a_set), engine.type_of(b_set))
            d = engine.decide_leq(union, bound, budget)
            if d.verdict == LEQ:
                report["subadditive"] += 1
            else:
                report["failures"].append(("subadditive", a_set, b_set, d.verdict))
    atom_cycle = itertools.cycle(range(engine.n))
    made = 0
    while made < schemas_below:
        a = next(atom_cycle)
        base = engine.abar_of_set(frozenset({a}))
        inc = unit_vec(engine.n, (a + made) % engine.n)
        prefix = [base, base + engine.abar(inc)]
        limit, _ = colimit_increasing(engine, prefix, ("periodic", inc), budget)
        expected = engine.omega_normalize(
            ExtVec(
                tuple(0 if i in {(a + made) % engine.n} else base.vec.finite[i]
                      for i in range(engine.n)),
                frozenset({(a + made) % engine.n}),
            ),
        )
        d = engine.decide_equal(limit, expected, budget)
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
            limit, info = decreasing_limit_with_scale(engine, chain, budget)
        except ContractError as exc:
            report["failures"].append(("above", e, str(exc)))
            continue
        d = engine.decide_equal(limit, settle, budget)
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
