"""Idempotent scale lattice and quantity groups.

Idempotent types (e with e+e = e) of a finite space all arise as the
omega-fold of some measurable set: an idempotent absorbs itself, so it
absorbs countably many copies of any of its finite representatives, and
conversely omega of anything is idempotent.  Omega over W equals omega
over V exactly when the support closures U(W) and U(V) agree, and
omega over W lies below omega over V exactly when W is inside U(V): the
{0, inf} measure of a closed support is stationary, and an atom of U(V)
sits below a finite multiple of V.  So the idempotents are the closed
supports, ordered by inclusion, and each has one normal form: the
closure, except that the closure of the empty support (the null atoms,
which lie in every closed support) is written as the empty support.

The lattice is built from the closure operator U alone.  Closed sets
are closed under intersection, so meet is intersection, join is the
closure of the union, and every closed set is reached from U({}) by
one-atom steps U(e + {b}): L closed sets cost at most L*n closures,
not the 2^n of a walk over every atom subset.  The minimal steps from e
are its upper covers.

On top of the lattice sit the isotropy slices: for each idempotent e,
the types whose largest idempotent below them is exactly e form a
cancellative commutative monoid with unit e, and its Grothendieck group
is the quantity group at scale e.  The disjoint union of those groups
carries a partial addition that coarsens both summands to the join of
their scales first.

A scale is read off the support closure and certified by order
queries against the upper covers of it, not found by a scan of the
lattice.  Every scale certificate is built and checked once per
(engine, vector, budget): the lattice keeps the certificates
isotropy_decompose has verified, so the quantity arithmetic, which
certifies each operand and result, repeats no order query.
"""

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .congruence import LEQ, NOT_EQUAL, NOT_LEQ, Budget, Decision, ExtVec
from .errors import BudgetExhaustedError, ContractError, TypemonoidError
from .types import TarskiType, TypeEngine

# Most closed sets a scale lattice may have.  A space with trivial
# symmetry has 2^n of them; past this many the walk stops with a
# LatticeError instead of filling L x L tables.
LATTICE_LIMIT = 256


class LatticeError(TypemonoidError):
    """A scale lattice that cannot be built or used: its closure system
    has more than LATTICE_LIMIT closed sets, or a scale certificate
    names or needs an idempotent the lattice does not hold."""


@dataclass(frozen=True)
class IdempotentElement:
    """An idempotent type: pure omega mass on a closed atom support."""

    n: int
    omega_support: FrozenSet[int]

    @property
    def vec(self) -> ExtVec:
        return ExtVec((0,) * self.n, self.omega_support)

    def __str__(self) -> str:
        if not self.omega_support:
            return "bot"
        atoms = ",".join(str(a) for a in sorted(self.omega_support))
        return f"w[{atoms}]"


class IdempotentLattice:
    """The lattice of closed sets of a closure operator on atoms 0..n-1.

    `closure` maps an atom set to the least closed set holding it.  The
    walk starts at the bottom closure({}) and takes every one-atom step
    closure(e + {b}), b not in e, from every closed set e it reaches.
    That reaches every closed set f: f above e holds some b outside e,
    and the step closure(e + {b}) lies inside f.  The upper covers of e
    are the minimal steps from it.  The order is inclusion, meet is
    intersection and join is the closure of the union; a closure system
    is always a bounded lattice, so there is nothing to check.  More
    than LATTICE_LIMIT closed sets raise LatticeError before any table
    is built.

    Elements are IdempotentElement values in canonical_idempotent form:
    the closed set, except that the bottom is written as the empty
    support.  They are listed by size, then by atoms.
    """

    def __init__(self, n: int, closure: Callable[[FrozenSet[int]], FrozenSet[int]]):
        base = closure(frozenset())
        steps: Dict[FrozenSet[int], Set[FrozenSet[int]]] = {base: set()}
        todo = [base]
        while todo:
            e = todo.pop()
            for b in range(n):
                if b in e:
                    continue
                f = closure(e | {b})
                steps[e].add(f)
                if f not in steps:
                    if len(steps) == LATTICE_LIMIT:
                        raise LatticeError(
                            f"more than LATTICE_LIMIT = {LATTICE_LIMIT} closed supports"
                        )
                    steps[f] = set()
                    todo.append(f)

        def canonical(s: FrozenSet[int]) -> FrozenSet[int]:
            return frozenset() if s == base else s

        sets = sorted(steps, key=lambda s: (len(canonical(s)), sorted(canonical(s))))
        pos = {s: i for i, s in enumerate(sets)}
        self.elements: Tuple[IdempotentElement, ...] = tuple(
            IdempotentElement(n, canonical(s)) for s in sets
        )
        self.index: Dict[IdempotentElement, int] = {e: i for i, e in enumerate(self.elements)}
        self.bottom = self.elements[0]
        self.top = self.elements[-1]
        self._meet = [[pos[a & b] for b in sets] for a in sets]
        self._join = [
            [pos[a | b] if a | b in pos else pos[closure(a | b)] for b in sets]
            for a in sets
        ]
        self._covers = [
            sorted(pos[f] for f in steps[e] if not any(g < f for g in steps[e]))
            for e in sets
        ]
        # scale certificates by (engine, vector, budget); see isotropy_decompose
        self._scales: Dict[tuple, Tuple[IdempotentElement, "IsotropyCertificate"]] = {}
        self.stats: Dict[str, int] = {"scale_certificates": 0, "scale_lookups": 0}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: IdempotentElement) -> bool:
        return x in self.index

    def leq(self, a: IdempotentElement, b: IdempotentElement) -> bool:
        return a.omega_support <= b.omega_support

    def meet(self, a: IdempotentElement, b: IdempotentElement) -> IdempotentElement:
        return self.elements[self._meet[self.index[a]][self.index[b]]]

    def join(self, a: IdempotentElement, b: IdempotentElement) -> IdempotentElement:
        return self.elements[self._join[self.index[a]][self.index[b]]]

    def minimal_above(self, a: IdempotentElement) -> List[IdempotentElement]:
        """The upper covers of a."""
        return [self.elements[j] for j in self._covers[self.index[a]]]

    def covers(self) -> List[Tuple[IdempotentElement, IdempotentElement]]:
        return [(a, b) for a in self.elements for b in self.minimal_above(a)]

    def to_dot(self, name: str = "scales") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for e in self.elements:
            lines.append(f'  "{e}";')
        for a, b in self.covers():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def enumerate_idempotents(engine: TypeEngine) -> IdempotentLattice:
    """All idempotent types of the space: the lattice of its closed
    supports under the support closure U."""
    closure = engine.congruence.support_closure
    return IdempotentLattice(engine.n, lambda support: closure(support)[0])


def canonical_idempotent(engine: TypeEngine, support: FrozenSet[int]) -> IdempotentElement:
    """The idempotent equal to omega over `support`: omega over its
    support closure, with the closure of the empty support written as
    the empty support (the bottom)."""
    cong = engine.congruence
    closed, _ = cong.support_closure(support)
    if closed == cong.support_closure(frozenset())[0]:
        closed = frozenset()
    return IdempotentElement(engine.n, closed)


def check_distributive(lattice: IdempotentLattice) -> Tuple[bool, Optional[dict]]:
    """Test both distributive laws and both absorption laws exhaustively."""
    for a in lattice:
        for b in lattice:
            if lattice.meet(a, lattice.join(a, b)) != a:
                return False, {"law": "absorption-meet", "a": a, "b": b}
            if lattice.join(a, lattice.meet(a, b)) != a:
                return False, {"law": "absorption-join", "a": a, "b": b}
            for c in lattice:
                lhs = lattice.meet(a, lattice.join(b, c))
                rhs = lattice.join(lattice.meet(a, b), lattice.meet(a, c))
                if lhs != rhs:
                    return False, {"law": "meet-over-join", "a": a, "b": b, "c": c,
                                   "lhs": lhs, "rhs": rhs}
                lhs = lattice.join(a, lattice.meet(b, c))
                rhs = lattice.meet(lattice.join(a, b), lattice.join(a, c))
                if lhs != rhs:
                    return False, {"law": "join-over-meet", "a": a, "b": b, "c": c,
                                   "lhs": lhs, "rhs": rhs}
    return True, None


def idempotent_of(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    alpha,
    budget: Optional[Budget] = None,
) -> IdempotentElement:
    """The unique maximal idempotent below alpha: the scale that
    isotropy_decompose certifies."""
    return isotropy_decompose(engine, lattice, alpha, budget)[0]


@dataclass
class IsotropyCertificate:
    """Membership evidence: alpha sits at scale e and at no finer one.
    `excluded` refutes each upper cover of e below alpha."""

    scale: IdempotentElement
    alpha: TarskiType
    above_scale: Decision
    excluded: List[Tuple[IdempotentElement, Decision]]

    @property
    def ok(self) -> bool:
        return self.above_scale.verdict == LEQ and all(
            d.verdict == NOT_LEQ for _, d in self.excluded
        )


def isotropy_decompose(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    alpha,
    budget: Optional[Budget] = None,
) -> Tuple[IdempotentElement, IsotropyCertificate]:
    """Locate alpha's scale: the idempotent e with e <= alpha and no
    strictly larger idempotent below alpha.

    e is the canonical idempotent of the closed omega support of
    alpha's normal form.  The certificate checks e <= alpha and that no
    upper cover of e is below alpha.  That excludes every f strictly
    above e: f holds an atom b outside e, so the step U(e + {b}) lies
    inside f and some cover g of e lies inside that step, and g <= f <=
    alpha would contradict g's exclusion.  And it is enough for e to be
    the largest idempotent below alpha: if g <= alpha too, then alpha +
    e + g = alpha, so the join e + g is below alpha, and it is not
    strictly above e, so g <= e.

    The certificate is built and checked once per (engine, vector,
    budget) and kept on the lattice; a repeated call is a lookup.  A
    certificate that fails its checks is never stored.
    """
    budget = budget or engine.budget
    vec = engine._vec(alpha)
    key = (engine, vec, budget)
    hit = lattice._scales.get(key)
    if hit is not None:
        lattice.stats["scale_lookups"] += 1
        return hit
    t = engine.type_of_abar(vec)
    e = canonical_idempotent(engine, t.rep.omega)
    if e not in lattice:
        raise LatticeError(f"support closure gives {e}, which is not in the lattice")
    above = engine.decide_leq(engine.type_of_abar(e.vec), t, budget)
    excluded = []
    for f in lattice.minimal_above(e):
        d = engine.decide_leq(engine.type_of_abar(f.vec), t, budget)
        if not d.is_definite():
            raise BudgetExhaustedError(f"membership against {f} undecided")
        excluded.append((f, d))
    cert = IsotropyCertificate(e, t, above, excluded)
    if not cert.ok:
        raise LatticeError("isotropy membership certificate failed")
    lattice._scales[key] = (e, cert)
    lattice.stats["scale_certificates"] += 1
    return e, cert


# ----- quantity groups ------------------------------------------------------


@dataclass(frozen=True)
class QuantityElement:
    """Grothendieck pair at a scale: formally plus - minus, both members
    of the isotropy monoid of the scale."""

    scale: IdempotentElement
    plus: ExtVec
    minus: ExtVec

    def __str__(self) -> str:
        return f"{self.scale} | {self.plus} - {self.minus}"


def _certify_scale(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    v: ExtVec,
    e: IdempotentElement,
) -> None:
    got, _ = isotropy_decompose(engine, lattice, v)
    if got != e:
        raise ContractError(f"operand has scale {got}, expected {e}")


def grothendieck_diff(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    a,
    b,
    scale: Optional[IdempotentElement] = None,
) -> QuantityElement:
    """Form the difference a - b in the quantity group of their shared
    scale.  Both operands must certify membership in the same isotropy
    monoid."""
    va = engine.omega_normalize(a).vec
    vb = engine.omega_normalize(b).vec
    ea, _ = isotropy_decompose(engine, lattice, va)
    eb, _ = isotropy_decompose(engine, lattice, vb)
    if ea != eb:
        raise ContractError(f"operands live at different scales {ea} vs {eb}")
    if scale is not None and scale != ea:
        raise ContractError(f"operands have scale {ea}, expected {scale}")
    return QuantityElement(ea, va, vb)


def embed(
    engine: TypeEngine, lattice: IdempotentLattice, alpha
) -> QuantityElement:
    """The additive embedding of types into the quantity space: alpha at
    scale e maps to the pair (alpha, e)."""
    v = engine.omega_normalize(alpha).vec
    e, _ = isotropy_decompose(engine, lattice, v)
    return QuantityElement(e, v, e.vec)


def quantity_eq(
    engine: TypeEngine, x: QuantityElement, y: QuantityElement,
    budget: Optional[Budget] = None,
) -> Decision:
    """Grothendieck equality at a shared scale: plus_x + minus_y equals
    plus_y + minus_x.  Elements of different scales are never equal; a
    syntactic NotEqual decision is returned for them."""
    if x.scale != y.scale:
        return Decision(NOT_EQUAL, {"kind": "scale", "left": str(x.scale),
                                    "right": str(y.scale)}, budget or engine.budget)
    return engine.decide_equal(x.plus.add(y.minus), y.plus.add(x.minus), budget)


def _coarsen(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    v: ExtVec,
    e: IdempotentElement,
) -> ExtVec:
    """Push a vector up to scale e by adding the idempotent, then verify
    the result really lands in the isotropy monoid of e."""
    w = engine.omega_normalize(v.add(e.vec)).vec
    _certify_scale(engine, lattice, w, e)
    return w


def quantity_add(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    x: QuantityElement,
    y: QuantityElement,
) -> QuantityElement:
    """Add two quantity elements, coarsening both to the join of their
    scales first."""
    g = lattice.join(x.scale, y.scale)
    xp = _coarsen(engine, lattice, x.plus, g)
    xm = _coarsen(engine, lattice, x.minus, g)
    yp = _coarsen(engine, lattice, y.plus, g)
    ym = _coarsen(engine, lattice, y.minus, g)
    plus = engine.omega_normalize(xp.add(yp)).vec
    minus = engine.omega_normalize(xm.add(ym)).vec
    _certify_scale(engine, lattice, plus, g)
    _certify_scale(engine, lattice, minus, g)
    return QuantityElement(g, plus, minus)


def quantity_neg(x: QuantityElement) -> QuantityElement:
    return QuantityElement(x.scale, x.minus, x.plus)


def quantity_zero(engine: TypeEngine, e: IdempotentElement) -> QuantityElement:
    return QuantityElement(e, e.vec, e.vec)
