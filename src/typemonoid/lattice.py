"""Idempotent scales, the scale lattice, and quantity groups.

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

The scale of a value, the largest idempotent below it, is read off the
support closure of its omega support and certified by order queries
against the upper covers of that scale.  A cover of a closed set e is a
minimal one-atom step U(e + {b}), so certifying a scale needs U(e) and
at most n steps, never the whole lattice.  The certifying decisions run
through the engine's `decide_leq`, under its budget, so they sit in its
audit log and the audit replays them; no certificate object exists.
The engine keeps every scale it has certified, by vector, so the
quantity arithmetic, which certifies each operand and result, repeats
no order query.

IdempotentLattice enumerates every scale, for the code that ranges over
all of them.  Closed sets are closed under intersection, so meet is
intersection and join is the closure of the union, and every closed set
is reached from U({}) by upper covers: L closed sets cost at most L*n
closures, not the 2^n of a walk over every atom subset.

On top of the scales sit the isotropy slices: for each idempotent e,
the types whose largest idempotent below them is exactly e form a
cancellative commutative monoid with unit e, and its Grothendieck group
is the quantity group at scale e.  The disjoint union of those groups
carries an addition that lands at the join of the two scales: the sum
of the summands plus the join's idempotent.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .congruence import LEQ, NOT_EQUAL, NOT_LEQ, Decision, ExtVec
from .errors import BudgetExhaustedError, ContractError, TypemonoidError
from .types import TypeEngine

Closure = Callable[[FrozenSet[int]], FrozenSet[int]]

# Most closed sets a scale lattice may have.  A space with trivial
# symmetry has 2^n of them; past this many the walk stops with a
# LatticeError.  Certifying one scale is not bounded by it.
LATTICE_LIMIT = 256


class LatticeError(TypemonoidError):
    """A scale lattice with more than LATTICE_LIMIT closed sets, or a
    scale whose certifying decisions fail."""


@dataclass(frozen=True)
class IdempotentElement:
    """An idempotent type: pure omega mass on a closed atom support."""

    n: int
    omega_support: FrozenSet[int]

    @cached_property
    def vec(self) -> ExtVec:
        return ExtVec((0,) * self.n, self.omega_support)

    def __str__(self) -> str:
        if not self.omega_support:
            return "bot"
        atoms = ",".join(str(a) for a in sorted(self.omega_support))
        return f"w[{atoms}]"


def _element_order(s: FrozenSet[int]):
    return len(s), sorted(s)


def upper_covers(n: int, closure: Closure, e: IdempotentElement) -> List[IdempotentElement]:
    """The upper covers of e among the closed sets of `closure`: the
    minimal one-atom steps closure(e + {b}), b outside e, by size, then
    by atoms.

    Every closed f strictly above e holds some b outside e, and the step
    closure(e + {b}) lies inside f, so some cover lies inside f.  A step
    is never the bottom, so each cover is its own canonical form.
    """
    closed = closure(e.omega_support)
    steps = {closure(closed | {b}) for b in range(n) if b not in closed}
    minimal = [f for f in steps if not any(g < f for g in steps)]
    return [IdempotentElement(n, f) for f in sorted(minimal, key=_element_order)]


def _support_closure(engine: TypeEngine) -> Closure:
    support_closure = engine.congruence.support_closure
    return lambda support: support_closure(support)[0]


def scale_covers(engine: TypeEngine, e: IdempotentElement) -> List[IdempotentElement]:
    """The upper covers of scale e under the engine's support closure."""
    return upper_covers(engine.n, _support_closure(engine), e)


class IdempotentLattice:
    """The lattice of closed sets of a closure operator on atoms 0..n-1.

    `closure` maps an atom set to the least closed set holding it.  The
    walk starts at the bottom closure({}) and takes the upper covers of
    every closed set it reaches, which reaches every closed set.  The
    order is inclusion, meet is intersection and join is the closure of
    the union; a closure system is always a bounded lattice, so there is
    nothing to check.  More than LATTICE_LIMIT closed sets raise
    LatticeError.

    Elements are IdempotentElement values in canonical_idempotent form:
    the closed set, except that the bottom is written as the empty
    support.  They are listed by size, then by atoms; `closed` lists
    their closed sets in the same order.
    """

    def __init__(self, n: int, closure: Closure):
        self.n = n
        self.closure = closure
        self._base = closure(frozenset())
        bottom = IdempotentElement(n, frozenset())
        self._covers: Dict[IdempotentElement, List[IdempotentElement]] = {}
        seen = {bottom}
        todo = [bottom]
        while todo:
            e = todo.pop()
            self._covers[e] = upper_covers(n, closure, e)
            for f in self._covers[e]:
                if f not in seen:
                    if len(seen) == LATTICE_LIMIT:
                        raise LatticeError(
                            f"more than LATTICE_LIMIT = {LATTICE_LIMIT} closed supports"
                        )
                    seen.add(f)
                    todo.append(f)
        self.elements: Tuple[IdempotentElement, ...] = tuple(
            sorted(self._covers, key=lambda e: _element_order(e.omega_support))
        )
        self.closed: Tuple[FrozenSet[int], ...] = tuple(
            e.omega_support or self._base for e in self.elements
        )
        self.bottom = self.elements[0]
        self.top = self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: IdempotentElement) -> bool:
        return x in self._covers

    def _element(self, closed: FrozenSet[int]) -> IdempotentElement:
        return IdempotentElement(self.n, frozenset() if closed == self._base else closed)

    def leq(self, a: IdempotentElement, b: IdempotentElement) -> bool:
        return a.omega_support <= b.omega_support

    def meet(self, a: IdempotentElement, b: IdempotentElement) -> IdempotentElement:
        return self._element(a.omega_support & b.omega_support)

    def join(self, a: IdempotentElement, b: IdempotentElement) -> IdempotentElement:
        return self._element(self.closure(a.omega_support | b.omega_support))

    def minimal_above(self, a: IdempotentElement) -> List[IdempotentElement]:
        """The upper covers of a."""
        return list(self._covers[a])

    def covers(self) -> List[Tuple[IdempotentElement, IdempotentElement]]:
        return [(a, b) for a in self.elements for b in self._covers[a]]

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
    return IdempotentLattice(engine.n, _support_closure(engine))


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
    """Decide distributivity on the join-irreducibles, the elements with
    exactly one lower cover (after Birkhoff 1937, "Rings of sets").

    A finite lattice is distributive exactly when every join-irreducible
    j is join-prime: j below x v y puts j below x or below y.  That holds
    exactly when j is not below the join of all elements not above j.  So
    for each j the closed sets x not above j are joined, in `closed`
    order, into y, from the bottom.  The first x with j below y v x is a
    meet-over-join counterexample: j ^ (y v x) = j, while j ^ y and j ^ x
    lie strictly below j, so below its one lower cover, and so does their
    join.  Absorption holds in every closure system, and join-over-meet
    follows from meet-over-join in every lattice, so neither is tested.
    At most |J|·|L| closures, and there are at most n join-irreducibles.
    A counterexample names lattice elements.
    """
    close = lattice.closure
    element = dict(zip(lattice.closed, lattice.elements))
    lower_covers = Counter(b for _, b in lattice.covers())
    for e, j in zip(lattice.elements, lattice.closed):
        if lower_covers[e] != 1:
            continue
        y = lattice.closed[0]
        for x in lattice.closed:
            if j <= x:
                continue
            yx = close(y | x)
            if j <= yx:
                rhs = close((j & y) | (j & x))
                return False, {"law": "meet-over-join", "a": e, "b": element[y],
                               "c": element[x], "lhs": e, "rhs": element[rhs]}
            y = yx
    return True, None


def idempotent_of(engine: TypeEngine, alpha) -> IdempotentElement:
    """The scale of alpha: the idempotent e with e <= alpha and no
    strictly larger idempotent below alpha.

    e is the canonical idempotent of the closed omega support of
    alpha's normal form.  It is certified by deciding e <= alpha and
    that no upper cover of e is below alpha.  That excludes every f
    strictly above e: some cover g of e lies inside f (see upper_covers),
    and g <= f <= alpha would contradict g's exclusion.  And it is enough
    for e to be the largest idempotent below alpha: if g <= alpha too,
    then alpha + e + g = alpha, so the join e + g is below alpha, and it
    is not strictly above e, so g <= e.  Only U(e) and the one-atom
    steps from it are computed, so no lattice is needed.

    The scale is certified once per vector and kept on the engine; a
    repeated call is a lookup, counted in engine.stats.  A cover left
    undecided raises BudgetExhaustedError and a failed check LatticeError;
    neither stores a scale.
    """
    vec = engine._vec(alpha)
    hit = engine._scales.get(vec)
    if hit is not None:
        engine.stats["scale_lookups"] += 1
        return hit
    t = engine.type_of_abar(vec)
    e = canonical_idempotent(engine, t.rep.omega)
    ok = engine.decide_leq(engine.type_of_abar(e.vec), t).verdict == LEQ
    for f in scale_covers(engine, e):
        d = engine.decide_leq(engine.type_of_abar(f.vec), t)
        if not d.is_definite():
            raise BudgetExhaustedError(f"membership against {f} undecided")
        ok = ok and d.verdict == NOT_LEQ
    if not ok:
        raise LatticeError("isotropy membership certificate failed")
    engine._scales[vec] = e
    engine.stats["scale_certificates"] += 1
    return e


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


def grothendieck_diff(engine: TypeEngine, a, b) -> QuantityElement:
    """Form the difference a - b in the quantity group of their shared
    scale.  Both operands must certify membership in the same isotropy
    monoid."""
    va = engine.omega_normalize(a)
    vb = engine.omega_normalize(b)
    ea, eb = idempotent_of(engine, va), idempotent_of(engine, vb)
    if ea != eb:
        raise ContractError(f"operands live at different scales {ea} vs {eb}")
    return QuantityElement(ea, va, vb)


def embed(engine: TypeEngine, alpha) -> QuantityElement:
    """The additive embedding of types into the quantity space: alpha at
    scale e maps to the pair (alpha, e)."""
    v = engine.omega_normalize(alpha)
    e = idempotent_of(engine, v)
    return QuantityElement(e, v, e.vec)


def quantity_eq(engine: TypeEngine, x: QuantityElement, y: QuantityElement) -> Decision:
    """Grothendieck equality at a shared scale: plus_x + minus_y equals
    plus_y + minus_x.  Elements of different scales are never equal; a
    syntactic NotEqual decision is returned for them."""
    if x.scale != y.scale:
        return Decision(NOT_EQUAL, {"kind": "scale", "left": str(x.scale),
                                    "right": str(y.scale)}, engine.budget)
    return engine.decide_equal(x.plus.add(y.minus), y.plus.add(x.minus))


def quantity_add(
    engine: TypeEngine, x: QuantityElement, y: QuantityElement
) -> QuantityElement:
    """Add two quantity elements at the join g of their scales, the
    canonical idempotent of the union of the supports: plus is
    x.plus + y.plus + g and minus the same, each certified at scale g.

    Coarsening each operand to g first gives the same sums, since
    normalizing commutes with addition and g + g = g, and no other
    failure: an idempotent strictly above g below x.plus + g is below
    the sum too, so the sum is not at scale g either."""
    g = canonical_idempotent(engine, x.scale.omega_support | y.scale.omega_support)
    plus = engine.omega_normalize(x.plus.add(y.plus).add(g.vec))
    minus = engine.omega_normalize(x.minus.add(y.minus).add(g.vec))
    for v in (plus, minus):
        got = idempotent_of(engine, v)
        if got != g:
            raise ContractError(f"operand has scale {got}, expected {g}")
    return QuantityElement(g, plus, minus)


def quantity_neg(x: QuantityElement) -> QuantityElement:
    return QuantityElement(x.scale, x.minus, x.plus)


def quantity_zero(engine: TypeEngine, e: IdempotentElement) -> QuantityElement:
    return QuantityElement(e, e.vec, e.vec)
