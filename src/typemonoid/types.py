"""Formal coproducts of measurable sets, equidecomposability, and types.

A monoid element s moves a measurable set A onto its preimage under the
action; equidecomposability is the equivalence generated by cutting a
formal coproduct into countably many pieces and moving each piece once.
On a finite space with finitely many symmetries this equivalence, on
finite-multiplicity vectors, is exactly the commutative-monoid congruence
generated by the atomic moves

    [atom a]  ~  [preimage of a under s]      (one relation per (s, a)).

Why atomic moves generate everything: preimages preserve disjoint unions,
so a one-piece move of any measurable set is the coproduct of the moves
of its atoms, and a multi-piece realization is a finite sum of one-piece
moves; a move with two nontrivial movers s, t factors through the common
image as a move by s followed by the reverse move by t, so single-mover
relations suffice; sums and chains of realizations are realizations.
Hence the reflexive-transitive-additive closure of the atomic moves and
the full equidecomposability relation agree wherever both are defined.

The order alpha <= beta means beta = alpha + gamma for some type gamma.
On representatives this is equivalent to: some member of beta's class
dominates some member of alpha's class componentwise. (If u + g is
congruent to v then v's class contains the dominating member u + g;
conversely domination w >= m with m ~ u, w ~ v exhibits gamma = [w - m].)

One caveat on semantics: actions here are total point maps, and for
idempotents acting as retractions the preimage of A need not equal the
forward image of A under the weak inverse. Every construction below uses
preimages only, which is what stationarity of measures quantifies over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .congruence import (
    Budget,
    Congruence,
    Decision,
    ExtVec,
    Vec,
    indicator,
    unit_vec,
    vec_add,
    vec_geq,
    vec_sub,
    zero_on,
    zero_vec,
)
from .errors import MalformedCertificateError, SpaceMismatchError
from .spaces import AtomSet, StatMorphism, StatSpace


@dataclass(frozen=True)
class MoveRelation:
    """One atomic move: an atom and the indicator of its preimage."""

    atom: int
    mover: int
    lhs: Vec
    rhs: Vec


def relation_basis(ss: StatSpace) -> List[MoveRelation]:
    """All atomic moves of a space, identity relations included."""
    out: List[MoveRelation] = []
    n = ss.n_atoms
    for s, amap in enumerate(ss.atom_maps):
        for a in range(n):
            pre = indicator(n, [b for b in range(n) if amap[b] == a])
            out.append(MoveRelation(atom=a, mover=s, lhs=unit_vec(n, a), rhs=pre))
    return out


def _atom_set(atoms) -> AtomSet:
    """Atom indices given as a set.  A list or tuple is refused: elsewhere
    in the engine it stands for multiplicities, not for atoms."""
    if not isinstance(atoms, (set, frozenset)):
        raise TypeError(
            f"atom indices must be a set or frozenset, not {type(atoms).__name__}"
        )
    return frozenset(atoms)


def _pull_back(v: ExtVec, amap: Sequence[int]) -> ExtVec:
    """Preimage of a coproduct along an atom map: coordinate b of the
    result is coordinate amap[b] of v."""
    fin = tuple(0 if a in v.omega else v.finite[a] for a in amap)
    omega = frozenset(b for b, a in enumerate(amap) if a in v.omega)
    return ExtVec(fin, omega)


@dataclass(frozen=True)
class AbarElement:
    """A formal coproduct of atoms: finite multiplicities plus omega atoms."""

    space: StatSpace
    vec: ExtVec

    def __post_init__(self):
        if self.vec.n != self.space.n_atoms:
            raise SpaceMismatchError("vector length does not match atom count")

    def __add__(self, other: "AbarElement") -> "AbarElement":
        if other.space != self.space:
            raise SpaceMismatchError("coproduct across different spaces")
        return AbarElement(self.space, self.vec.add(other.vec))

    def scale(self, k: int) -> "AbarElement":
        return AbarElement(self.space, self.vec.scale(k))

    @property
    def is_finite(self) -> bool:
        return self.vec.is_finite()


@dataclass(frozen=True, eq=False)
class TarskiType:
    """An equidecomposability class, held by a normalized representative.

    Syntactic equality of representatives is deliberately not exposed as
    ==; compare through the owning engine's decide_equal / decide_leq.
    """

    space: StatSpace
    rep: ExtVec


@dataclass(frozen=True)
class Realization:
    """Pieces and movers witnessing one equidecomposition, replayed
    syntactically: piece j moved by the left mover must coincide with
    piece j of the right side moved by the right mover."""

    space: StatSpace
    left_whole: ExtVec
    right_whole: ExtVec
    left_pieces: Tuple[ExtVec, ...]
    right_pieces: Tuple[ExtVec, ...]
    moves: Tuple[Tuple[int, int], ...]


@dataclass
class RealizationReport:
    ok: bool
    problems: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


# Witness kinds audit_decisions counts; "other" is the kinds it cannot re-check.
AUDIT_KINDS = (
    "functional", "path", "domination", "support", "syntactic", "zero-bottom", "other",
)


@dataclass
class AuditEntry:
    op: str  # "eq" | "leq"
    left: ExtVec
    right: ExtVec
    decision: Decision


class TypeEngine:
    """Decision procedures for one space, with an audit trail.

    Every definite verdict this engine hands out is remembered so the
    soundness audit can replay positive witnesses through
    verify_realization and re-check negative functionals against the
    relation differences.
    """

    def __init__(self, statspace: StatSpace, budget: Budget = Budget()):
        self.statspace = statspace
        self.n = statspace.n_atoms
        self.relations = relation_basis(statspace)
        self.congruence = Congruence(
            self.n, [(r.lhs, r.rhs) for r in self.relations]
        )
        self.budget = budget
        self.audit_log: List[AuditEntry] = []
        # scale certificates by (vector, budget); see lattice.isotropy_decompose
        self._scales: Dict[tuple, tuple] = {}
        self.stats: Dict[str, int] = {"scale_certificates": 0, "scale_lookups": 0}

    # ----- formal coproducts ------------------------------------------------

    def abar_of_set(self, atoms: AtomSet) -> AbarElement:
        return AbarElement(self.statspace, self._vec(_atom_set(atoms)))

    def abar_zero(self) -> AbarElement:
        return AbarElement(self.statspace, ExtVec.from_vec(zero_vec(self.n)))

    def abar(self, finite: Sequence[int], omega: Iterable[int] = ()) -> AbarElement:
        return AbarElement(self.statspace, ExtVec(tuple(finite), frozenset(omega)))

    def omega_fold(self, p) -> AbarElement:
        """Countably many copies of p: omega on every supported atom."""
        supp = self._vec(p).support()
        return AbarElement(self.statspace, ExtVec(zero_vec(self.n), supp))

    def _vec(self, x) -> ExtVec:
        """The coproduct that x stands for, checked against this space.

        The one coercion of the package: every entry point of the engine,
        and every module that needs a vector from a caller's value, goes
        through it.  x is an ExtVec, an AbarElement or TarskiType of this
        space, a set of atom indices, or a tuple or list of multiplicities.
        """
        if isinstance(x, (AbarElement, TarskiType)):
            if x.space != self.statspace:
                raise SpaceMismatchError("element belongs to a different space")
            return x.vec if isinstance(x, AbarElement) else x.rep
        if isinstance(x, (frozenset, set)):
            bad = [a for a in x if not (0 <= a < self.n)]
            if bad:
                raise SpaceMismatchError(f"unknown atoms {bad}")
            return ExtVec.from_vec(indicator(self.n, x))
        if isinstance(x, (tuple, list)):
            x = ExtVec.from_vec(x)
        if not isinstance(x, ExtVec):
            raise TypeError(f"cannot interpret {type(x).__name__} as a coproduct")
        if x.n != self.n:
            raise SpaceMismatchError("vector length does not match atom count")
        return x

    # ----- decisions ----------------------------------------------------------

    def decide_equal(self, p, q, budget: Optional[Budget] = None) -> Decision:
        b = budget or self.budget
        u, v = self._vec(p), self._vec(q)
        dec = self.congruence.decide_eq(u, v, b)
        self.audit_log.append(AuditEntry("eq", u, v, dec))
        return dec

    def decide_leq(self, p, q, budget: Optional[Budget] = None) -> Decision:
        b = budget or self.budget
        u, v = self._vec(p), self._vec(q)
        dec = self.congruence.decide_leq(u, v, b)
        self.audit_log.append(AuditEntry("leq", u, v, dec))
        return dec

    def omega_normalize(self, p) -> AbarElement:
        out, _ = self.congruence.normalize(self._vec(p))
        return AbarElement(self.statspace, out)

    # ----- types ---------------------------------------------------------------

    def type_of(self, atoms: AtomSet) -> TarskiType:
        return self.type_of_abar(_atom_set(atoms))

    def type_of_abar(self, p) -> TarskiType:
        v = self._vec(p)
        out, _ = self.congruence.normalize(v)
        return TarskiType(self.statspace, out)

    def type_zero(self) -> TarskiType:
        return TarskiType(self.statspace, ExtVec.from_vec(zero_vec(self.n)))

    def type_add(self, a: TarskiType, b: TarskiType) -> TarskiType:
        return self.type_of_abar(self._vec(a).add(self._vec(b)))

    def type_scale(self, k: int, a: TarskiType) -> TarskiType:
        return self.type_of_abar(self._vec(a).scale(k))

    # ----- realizations ---------------------------------------------------------

    def verify_realization(self, r: Realization) -> RealizationReport:
        if r.space != self.statspace:
            raise MalformedCertificateError("realization for a different space")
        if not (len(r.left_pieces) == len(r.right_pieces) == len(r.moves)):
            raise MalformedCertificateError("piece and move counts differ")
        order = self.statspace.monoid.order
        for s, t in r.moves:
            if not (0 <= s < order and 0 <= t < order):
                raise MalformedCertificateError(f"mover ({s},{t}) out of range")
        for v in (r.left_whole, r.right_whole) + r.left_pieces + r.right_pieces:
            if v.n != self.n:
                raise MalformedCertificateError("piece has wrong dimension")
        problems: List[str] = []
        left_sum = ExtVec.from_vec(zero_vec(self.n))
        for p in r.left_pieces:
            left_sum = left_sum.add(p)
        if left_sum != r.left_whole:
            problems.append("left pieces do not sum to the left whole")
        right_sum = ExtVec.from_vec(zero_vec(self.n))
        for q in r.right_pieces:
            right_sum = right_sum.add(q)
        if right_sum != r.right_whole:
            problems.append("right pieces do not sum to the right whole")
        for j, ((s, t), pj, qj) in enumerate(
            zip(r.moves, r.left_pieces, r.right_pieces)
        ):
            lhs = _pull_back(pj, self.statspace.atom_maps[s])
            rhs = _pull_back(qj, self.statspace.atom_maps[t])
            if lhs != rhs:
                problems.append(
                    f"move equation fails at piece {j}: "
                    f"{lhs} != {rhs} under movers ({s},{t})"
                )
        return RealizationReport(ok=not problems, problems=problems)

    def step_realization(self, start: Vec, rel_index: int, direction: int) -> Realization:
        """The two-piece realization of a single rewrite step: direction 1
        rewrites lhs to rhs, -1 rhs to lhs."""
        rel = self.relations[rel_index]
        unit = self.statspace.monoid.unit
        if direction == 1:
            src, dst, movers = rel.lhs, rel.rhs, (rel.mover, unit)
        else:
            src, dst, movers = rel.rhs, rel.lhs, (unit, rel.mover)
        if not vec_geq(start, src):
            raise MalformedCertificateError(f"step ({rel_index}, {direction}) does not apply")
        rest = vec_sub(start, src)
        return Realization(
            space=self.statspace,
            left_whole=ExtVec.from_vec(start),
            right_whole=ExtVec.from_vec(vec_add(rest, dst)),
            left_pieces=(ExtVec.from_vec(src), ExtVec.from_vec(rest)),
            right_pieces=(ExtVec.from_vec(dst), ExtVec.from_vec(rest)),
            moves=(movers, (unit, unit)),
        )

    def realizations_from_path(
        self, start: Vec, steps: Sequence[Tuple[int, int]]
    ) -> List[Realization]:
        """One realization per rewrite step, chained end to end."""
        out: List[Realization] = []
        cur = tuple(start)
        for rel_index, direction in steps:
            r = self.step_realization(cur, rel_index, direction)
            out.append(r)
            cur = r.right_whole.finite
        return out

    # ----- soundness audit --------------------------------------------------------

    def audit_decisions(self) -> Dict[str, int]:
        """Re-verify every logged definite decision; raises on any violation.

        Functional witnesses must annihilate all relation differences (the
        congruence's integer check) and, between finite sides, separate
        them: y.left != y.right for equality (equal to the recorded
        separation), y.left > y.right for order.  Path and domination
        witnesses must replay into realizations that verify
        syntactically.  Support witnesses must name a closed support that
        contains one side and misses the listed atoms of the other.  Omega
        witnesses must name the closed support that omega on the sides
        spans, and a lifted path or domination whose ends match the two
        finite parts off that support: omega on the support absorbs the
        rest.  A syntactic equality needs two equal finite sides, and a
        zero-bottom order a left side that normalizes to zero.
        """
        counts = dict.fromkeys(AUDIT_KINDS, 0)
        for entry in self.audit_log:
            w = entry.decision.witness
            kind = w.get("kind")
            if kind == "functional":
                nonneg = bool(w.get("nonnegative"))
                self.congruence._assert_functional(w["y"], nonneg=nonneg)
                if entry.left.is_finite() and entry.right.is_finite():
                    _audit_separation(entry)
                counts["functional"] += 1
            elif kind == "path":
                self._audit_path(w["start"], w["steps"], w["end"])
                counts["path"] += 1
            elif kind == "domination":
                self._audit_domination(w, entry.left.finite, entry.right.finite)
                counts["domination"] += 1
            elif kind == "support":
                self._audit_support(entry)
                counts["support"] += 1
            elif kind == "omega_equal":
                inner = w["finite"]
                self._audit_omega_support(entry, inner["start"], inner["end"])
                self._audit_path(inner["start"], inner["steps"], inner["end"])
                counts["path"] += 1
            elif kind == "omega_leq":
                inner = w["finite"]
                left, right = inner["start_left"], inner["start_right"]
                support = self._audit_omega_support(entry, left, right)
                self._audit_domination(inner, left, right, support)
                counts["domination"] += 1
            elif kind == "syntactic":
                assert entry.left.is_finite() and entry.left == entry.right, "sides differ"
                counts["syntactic"] += 1
            elif kind == "zero-bottom":
                left, _ = self.congruence.normalize(entry.left)
                assert entry.op == "leq" and left.is_zero(), "left side is not zero"
                counts["zero-bottom"] += 1
            else:
                counts["other"] += 1
        return counts

    def _assert_closed(self, closed: FrozenSet[int]) -> None:
        """For every relation, supp(lhs) is inside `closed` exactly when
        supp(rhs) is."""
        for rel in self.relations:
            lhs_in = all(i in closed for i, c in enumerate(rel.lhs) if c)
            rhs_in = all(i in closed for i, c in enumerate(rel.rhs) if c)
            assert lhs_in == rhs_in, "support is not closed under a relation"

    def _audit_support(self, entry: AuditEntry) -> None:
        """One pass over the relations: the witness's support is closed,
        holds the right side (either side for equality), and misses the
        listed atoms of the other."""
        w = entry.decision.witness
        closed = w["closed"]
        self._assert_closed(closed)
        x, y = entry.left, entry.right
        if entry.op == "eq" and not y.support() <= closed:
            x, y = y, x
        assert y.support() <= closed, "support misses the bounding side"
        outside = set(w["outside"])
        assert outside and outside <= x.support() - closed, "listed atoms not outside"

    def _audit_omega_support(self, entry: AuditEntry, left: Vec, right: Vec) -> FrozenSet[int]:
        """The support of an omega witness: closed, the support closure of
        the right omega set (and of the left one for equality, which for
        order need only lie inside it), and off it `left` and `right` are
        the two finite parts.  A larger closed set would absorb mass that
        omega on the sides does not."""
        support = entry.decision.witness["support"]
        self._assert_closed(support)
        closure = self.congruence.support_closure
        assert closure(entry.right.omega)[0] == support, "support is not the right closure"
        if entry.op == "eq":
            assert closure(entry.left.omega)[0] == support, "support is not the left closure"
        else:
            assert entry.left.omega <= support, "support misses the left omega set"
        assert zero_on(left, support) == zero_on(entry.left.finite, support), "left start is off"
        assert zero_on(right, support) == zero_on(entry.right.finite, support), "right start is off"
        return support

    def _audit_domination(self, w: dict, left: Vec, right: Vec, support=frozenset()) -> None:
        """Both paths replay from `left` and `right`, and off `support` the
        right member is the left one plus a nonnegative gamma."""
        m, top = zero_on(w["u"], support), zero_on(w["w"], support)
        assert vec_geq(top, m), "dominating member does not dominate"
        assert vec_add(m, w["gamma"]) == top, "gamma mismatch"
        self._audit_path(left, w["path_left"], w["u"])
        self._audit_path(right, w["path_right"], w["w"])

    def _audit_path(self, start, steps, end) -> None:
        cur = tuple(start)
        for r in self.realizations_from_path(start, steps):
            rep = self.verify_realization(r)
            assert rep.ok, f"step realization failed: {rep.problems}"
            assert r.left_whole.finite == cur
            cur = r.right_whole.finite
        assert cur == tuple(end), "path does not reach its claimed endpoint"


def _audit_separation(entry: AuditEntry) -> None:
    """A functional witness between finite sides tells them apart."""
    w = entry.decision.witness
    pairs = zip(w["y"], entry.left.finite, entry.right.finite)
    sep = sum(c * (l - r) for c, l, r in pairs if c and l != r)
    if entry.op == "eq":
        assert sep != 0, "functional does not separate the classes"
        if "separation" in w:
            assert sep == w["separation"], "separation does not match"
    else:
        assert sep > 0, "functional does not separate the classes"


def morphism_type_map(
    m: StatMorphism,
    source_engine: TypeEngine,
    target_engine: TypeEngine,
) -> Callable[[TarskiType], TarskiType]:
    """The contravariant map on types induced by taking preimages."""
    if m.source != source_engine.statspace or m.target != target_engine.statspace:
        raise SpaceMismatchError("engines do not match the morphism endpoints")
    tgt_atom = tuple(
        m.target.space.atom_of_point(m.point_map[next(iter(m.source.space.atoms[a]))])
        for a in range(source_engine.n)
    )

    def on_types(beta: TarskiType) -> TarskiType:
        return source_engine.type_of_abar(_pull_back(target_engine._vec(beta), tgt_atom))

    return on_types
