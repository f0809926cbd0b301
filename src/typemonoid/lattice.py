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

On top of the lattice sit the isotropy slices: for each idempotent e,
the types whose largest idempotent below them is exactly e form a
cancellative commutative monoid with unit e, and its Grothendieck group
is the quantity group at scale e.  The disjoint union of those groups
carries a partial addition that coarsens both summands to the join of
their scales first.

A scale is read off the support closure and certified by order
queries against the idempotents strictly above it, not found by a scan
of the lattice.  Every scale certificate is built and checked once per
(engine, vector, budget): the lattice keeps the certificates
isotropy_decompose has verified, so the quantity arithmetic, which
certifies each operand and result, repeats no order query.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from .congruence import EQUAL, LEQ, NOT_EQUAL, NOT_LEQ, Budget, Decision, ExtVec
from .errors import (
    AmbiguousMaximumError,
    BudgetExhaustedError,
    ContractError,
    TypemonoidError,
)
from .types import TarskiType, TypeEngine


class LatticeError(TypemonoidError):
    """The enumerated order fails to be a (bounded) lattice."""


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
    """A finite bounded lattice, given by its elements and order.

    Used both for enumerated idempotent lattices (elements are
    IdempotentElement) and for hand-built fixtures (elements are any
    hashable labels).  Construction verifies the poset axioms and that
    every pair has a unique greatest lower and least upper bound.
    """

    def __init__(
        self,
        elements: Sequence[Hashable],
        leq_pairs: Sequence[Tuple[Hashable, Hashable]],
    ):
        self.elements: Tuple[Hashable, ...] = tuple(elements)
        self.index: Dict[Hashable, int] = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise LatticeError("duplicate elements")
        n = len(self.elements)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for a, b in leq_pairs:
            rel[self.index[a]][self.index[b]] = True
        # transitive closure; antisymmetry check afterwards
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    row_k = rel[k]
                    row_i = rel[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j] and rel[j][i]:
                    raise LatticeError(
                        f"order not antisymmetric: {self.elements[i]} ~ {self.elements[j]}"
                    )
        self._rel = rel
        self._meet = [[-1] * n for _ in range(n)]
        self._join = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self._meet[i][j] = self._bound(i, j, lower=True)
                self._join[i][j] = self._bound(i, j, lower=False)
        bots = [i for i in range(n) if all(rel[i][j] for j in range(n))]
        tops = [i for i in range(n) if all(rel[j][i] for j in range(n))]
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("lattice must have unique bottom and top")
        self.bottom: Hashable = self.elements[bots[0]]
        self.top: Hashable = self.elements[tops[0]]
        # scale certificates by (engine, vector, budget); see isotropy_decompose
        self._scales: Dict[tuple, Tuple[Hashable, "IsotropyCertificate"]] = {}
        self.stats: Dict[str, int] = {"scale_certificates": 0, "scale_lookups": 0}

    def _bound(self, i: int, j: int, lower: bool) -> int:
        n = len(self.elements)
        if lower:
            cands = [k for k in range(n) if self._rel[k][i] and self._rel[k][j]]
            best = [k for k in cands if all(self._rel[c][k] for c in cands)]
        else:
            cands = [k for k in range(n) if self._rel[i][k] and self._rel[j][k]]
            best = [k for k in cands if all(self._rel[k][c] for c in cands)]
        if len(best) != 1:
            kind = "glb" if lower else "lub"
            raise LatticeError(
                f"no unique {kind} for {self.elements[i]}, {self.elements[j]}"
            )
        return best[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: Hashable) -> bool:
        return x in self.index

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return self._rel[self.index[a]][self.index[b]]

    def meet(self, a: Hashable, b: Hashable) -> Hashable:
        return self.elements[self._meet[self.index[a]][self.index[b]]]

    def join(self, a: Hashable, b: Hashable) -> Hashable:
        return self.elements[self._join[self.index[a]][self.index[b]]]

    def strictly_above(self, a: Hashable) -> List[Hashable]:
        i = self.index[a]
        return [self.elements[j] for j in range(len(self.elements))
                if self._rel[i][j] and i != j]

    def minimal_above(self, a: Hashable) -> List[Hashable]:
        ups = self.strictly_above(a)
        return [f for f in ups
                if not any(self.leq(g, f) and g != f for g in ups)]

    def covers(self) -> List[Tuple[Hashable, Hashable]]:
        out = []
        for a in self.elements:
            for b in self.strictly_above(a):
                between = [c for c in self.elements
                           if c not in (a, b) and self.leq(a, c) and self.leq(c, b)]
                if not between:
                    out.append((a, b))
        return out

    def to_dot(self, name: str = "scales") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for e in self.elements:
            lines.append(f'  "{e}";')
        for a, b in self.covers():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def m3_fixture() -> IdempotentLattice:
    """The five-element diamond M3: three incomparable middle elements.

    Modular but not distributive; exists only as a test fixture, no
    finite space here produces it.
    """
    els = ["bot", "x", "y", "z", "top"]
    pairs = [("bot", m) for m in ("x", "y", "z")]
    pairs += [(m, "top") for m in ("x", "y", "z")]
    return IdempotentLattice(els, pairs)


def enumerate_idempotents(engine: TypeEngine) -> IdempotentLattice:
    """List all idempotent types of the space as a bounded lattice.

    The elements are the canonical idempotents of every atom subset, and
    the order is inclusion of their supports.
    """
    n = engine.n
    elements = sorted(
        {
            canonical_idempotent(engine, frozenset(combo))
            for r in range(n + 1)
            for combo in combinations(range(n), r)
        },
        key=lambda e: (len(e.omega_support), sorted(e.omega_support)),
    )
    pairs = [
        (e, f) for e in elements for f in elements
        if e.omega_support <= f.omega_support
    ]
    return IdempotentLattice(elements, pairs)


def canonical_idempotent(engine: TypeEngine, support: FrozenSet[int]) -> IdempotentElement:
    """The idempotent equal to omega over `support`: omega over its
    support closure, with the closure of the empty support written as
    the empty support (the bottom)."""
    cong = engine.congruence
    closed, _ = cong.support_closure(support)
    if closed == cong.support_closure(frozenset())[0]:
        closed = frozenset()
    return IdempotentElement(engine.n, closed)


def join_idempotents(
    engine: TypeEngine,
    lattice: IdempotentLattice,
    e: IdempotentElement,
    f: IdempotentElement,
) -> IdempotentElement:
    """Join is the sum e+f; checked to agree with the order-theoretic lub."""
    nv = engine.omega_normalize(e.vec.add(f.vec))
    cand = IdempotentElement(engine.n, nv.vec.omega)
    lub = lattice.join(e, f)
    if cand != lub:
        raise LatticeError(f"join mismatch: sum gives {cand}, order gives {lub}")
    return cand


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


def _ext_min(u: ExtVec, v: ExtVec) -> ExtVec:
    """Componentwise intersection: min on finite values, omega wins only
    against omega."""
    n = u.n
    fin = [0] * n
    om = set()
    for i in range(n):
        ui = None if i in u.omega else u.finite[i]
        vi = None if i in v.omega else v.finite[i]
        if ui is None and vi is None:
            om.add(i)
        elif ui is None:
            fin[i] = vi
        elif vi is None:
            fin[i] = ui
        else:
            fin[i] = min(ui, vi)
    return ExtVec(tuple(fin), frozenset(om))


def meet_by_realizations(
    engine: TypeEngine,
    e: IdempotentElement,
    f: IdempotentElement,
    lattice: Optional[IdempotentLattice] = None,
    pair_cap: int = 4096,
) -> IdempotentElement:
    """Oracle meet: maximize the intersection type over representative pairs.

    Representatives of an idempotent are bounded omega vectors in its
    class; intersections are componentwise minima.  The maximum of the
    collected intersection types under the type order is returned and
    must be unique among the candidates.  Exponential; small spaces only.
    """
    n = engine.n
    reps_e = _idempotent_representatives(engine, e)
    reps_f = _idempotent_representatives(engine, f)
    if len(reps_e) * len(reps_f) > pair_cap:
        raise BudgetExhaustedError(
            f"{len(reps_e)}x{len(reps_f)} representative pairs exceed cap {pair_cap}"
        )
    seen: List[ExtVec] = []
    for u in reps_e:
        for v in reps_f:
            w = engine.omega_normalize(_ext_min(u, v)).vec
            if w in seen:
                continue
            # normal forms are not unique per class; dedupe by decision
            if any(engine.decide_equal(w, x).verdict == EQUAL for x in seen):
                continue
            seen.append(w)
    best: List[ExtVec] = []
    for w in seen:
        if all(engine.decide_leq(x, w).verdict == LEQ for x in seen):
            best.append(w)
    if len(best) != 1:
        raise AmbiguousMaximumError(
            f"intersection types have {len(best)} maxima under the type order"
        )
    top = best[0]
    if any(v for v in top.finite):
        raise LatticeError(f"maximal intersection {top} is not an idempotent")
    if lattice is not None:
        return canonical_idempotent(engine, top.omega)
    return IdempotentElement(n, top.omega)


def _idempotent_representatives(
    engine: TypeEngine, e: IdempotentElement
) -> List[ExtVec]:
    """All omega vectors in the class of e (no finite parts: finite mass
    on an idempotent representative is either absorbed or pushes the
    type above e)."""
    n = engine.n
    target = engine.type_of_abar(e.vec)
    out = []
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            cand = ExtVec((0,) * n, frozenset(combo))
            d = engine.decide_equal(cand, target)
            if d.verdict == EQUAL:
                out.append(cand)
    return out


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
    """Membership evidence: alpha sits at scale e and at no finer one."""

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
    idempotent strictly above e is below alpha, and that is enough for
    e to be the largest idempotent below alpha: if g <= alpha too, then
    alpha + e + g = alpha, so the join e + g is below alpha, and it is
    not strictly above e, so g <= e.

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
    for f in lattice.strictly_above(e):
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


@dataclass
class CompletedScale:
    """The isotropy monoid at e together with its infinity points: the
    minimal idempotents strictly above e."""

    scale: IdempotentElement
    infinities: Tuple[IdempotentElement, ...]


def complete_isotropy(
    lattice: IdempotentLattice, e: IdempotentElement
) -> CompletedScale:
    return CompletedScale(e, tuple(lattice.minimal_above(e)))


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
