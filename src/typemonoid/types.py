"""Formal coproducts of measurable sets, equidecomposability, and types.

A monoid element s moves a measurable set A onto its preimage under the
action; equidecomposability is the equivalence generated by cutting a
formal coproduct into countably many pieces and moving each piece once.
On a finite space with finitely many symmetries this equivalence, on
finite-multiplicity vectors, is exactly the commutative-monoid congruence
generated by the atomic moves

    [atom a]  ~  [preimage of a under s]      (s in the monoid, a an atom).

Why atomic moves generate everything: preimages preserve disjoint unions,
so a one-piece move of any measurable set is the coproduct of the moves
of its atoms, and a multi-piece realization is a finite sum of one-piece
moves; a move with two nontrivial movers s, t factors through the common
image as a move by s followed by the reverse move by t, so single-mover
relations suffice; sums and chains of realizations are realizations.
Hence the reflexive-transitive-additive closure of the atomic moves and
the full equidecomposability relation agree wherever both are defined.

Why the moves of the space's generators suffice: the action composes, so
pre_st(a) = pre_t(pre_s(a)), and the preimages under t of the disjoint
atoms of pre_s(a) are disjoint.  Hence [a] ~ [pre_s(a)] followed by the
move by t of each atom of pre_s(a) reaches [pre_st(a)], and by induction
on a word in the generators every atomic move is a chain of generator
moves (Redei 1965, "The theory of finitely generated commutative
semigroups").  The unit moves nothing, and a move whose two sides agree
adds nothing, so `relation_basis` keeps one relation per distinct
nontrivial (generator, atom) move: n of them on an n-cycle, not n^2.

The order alpha <= beta means beta = alpha + gamma for some type gamma.
On representatives this is equivalent to: some member of beta's class
dominates some member of alpha's class componentwise. (If u + g is
congruent to v then v's class contains the dominating member u + g;
conversely domination w >= m with m ~ u, w ~ v exhibits gamma = [w - m].)
The congruence decides both exactly, from its completed relations; a
domination witness it gives takes m = u and is one path from v to
w = u + gamma.

One caveat on semantics: actions here are total point maps, and for
idempotents acting as retractions the preimage of A need not equal the
forward image of A under the weak inverse. Every construction below uses
preimages only, which is what stationarity of measures quantifies over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .congruence import (
    INF,
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
    """The distinct nontrivial moves of the space's generators.

    For each generator g, in order, and each atom a, in order, the move
    [a] ~ [pre_g(a)] is kept unless its two sides agree or an earlier
    generator gave the same pair.  Path witnesses name these moves by
    their index.
    """
    out: List[MoveRelation] = []
    seen = set()
    n = ss.n_atoms
    units = [unit_vec(n, a) for a in range(n)]
    for g in ss.generators:
        # one pass over the atom map: b lies in the preimage of amap[b]
        pre = [[0] * n for _ in range(n)]
        for b, a in enumerate(ss.atom_map(g)):
            pre[a][b] = 1
        for a in range(n):
            rhs = tuple(pre[a])
            if rhs != units[a] and (a, rhs) not in seen:
                seen.add((a, rhs))
                out.append(MoveRelation(atom=a, mover=g, lhs=units[a], rhs=rhs))
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


# Witness kinds audit_decisions counts: an omega_equal witness counts as a
# path and an omega_leq one as a domination.
AUDIT_KINDS = ("functional", "path", "domination", "normal_form", "support")


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
    verify_realization, and re-check negative functionals against the
    relation differences and normal forms against the completed rules.
    """

    def __init__(self, statspace: StatSpace, budget: Budget = Budget()):
        self.statspace = statspace
        self.n = statspace.n_atoms
        self.relations = relation_basis(statspace)
        self.congruence = Congruence(
            self.n, [(r.lhs, r.rhs) for r in self.relations], budget
        )
        self.audit_log: List[AuditEntry] = []
        self._set_elements: Dict[FrozenSet[int], AbarElement] = {}
        # certified scales by vector, canonical idempotents by support, and
        # upper covers by closed support; see lattice.idempotent_of
        self._scales: Dict[ExtVec, object] = {}
        self._canonical: Dict[FrozenSet[int], object] = {}
        self._covers: Dict[FrozenSet[int], tuple] = {}
        self.stats: Dict[str, int] = {"scale_certificates": 0, "scale_lookups": 0}

    @property
    def budget(self) -> Budget:
        """The budget every decision of this engine runs under."""
        return self.congruence.budget

    # ----- formal coproducts ------------------------------------------------

    def abar_of_set(self, atoms: AtomSet) -> AbarElement:
        """The coproduct of a set of atoms, built once per set."""
        atoms = _atom_set(atoms)
        hit = self._set_elements.get(atoms)
        if hit is None:
            hit = AbarElement(self.statspace, self._vec(atoms))
            self._set_elements[atoms] = hit
        return hit

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
        An element of this engine's own space object is taken without
        comparing spaces; one of an equal space object is compared.
        """
        if type(x) is ExtVec and len(x.finite) == self.n:
            return x
        if isinstance(x, (AbarElement, TarskiType)):
            if x.space is not self.statspace and x.space != self.statspace:
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

    def decide_equal(self, p, q) -> Decision:
        u, v = self._vec(p), self._vec(q)
        dec = self.congruence.decide_eq(u, v)
        self.audit_log.append(AuditEntry("eq", u, v, dec))
        return dec

    def decide_leq(self, p, q) -> Decision:
        u, v = self._vec(p), self._vec(q)
        dec = self.congruence.decide_leq(u, v)
        self.audit_log.append(AuditEntry("leq", u, v, dec))
        return dec

    def omega_normalize(self, p) -> ExtVec:
        """The normal form of p: omega on the support closure of its omega
        atoms, and finite multiplicities off it."""
        return self.congruence.normalize(self._vec(p))

    # ----- types ---------------------------------------------------------------

    def type_of(self, atoms: AtomSet) -> TarskiType:
        return self.type_of_abar(_atom_set(atoms))

    def type_of_abar(self, p) -> TarskiType:
        return TarskiType(self.statspace, self.congruence.normalize(self._vec(p)))

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
        ss = self.statspace
        for s, t in r.moves:
            if not (ss.has_element(s) and ss.has_element(t)):
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
            lhs = _pull_back(pj, ss.atom_map(s))
            rhs = _pull_back(qj, ss.atom_map(t))
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
        unit = self.statspace.unit
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

        An unknown decision claims nothing and is skipped.  A definite one
        is counted under one of AUDIT_KINDS, so the counts sum to the
        number of definite decisions; any other witness kind raises.

        Functional witnesses must annihilate all relation differences (the
        congruence's integer check, run here in full on every logged
        witness although the congruence ran it once when it built the
        functional), be nonnegative for order and whenever a side has
        omega mass, whatever the witness says, and separate the sides
        under saturation (y is INF on a side whose omega atoms it weighs):
        y.left != y.right for equality, y.left > y.right for order.  A
        recorded separation or value must equal the one computed.  Every
        positive witness is one path, possibly with no steps, that must
        replay into realizations that verify syntactically: a path runs
        from the left side to the right one, and a domination, for order
        only, from the right side to the left one plus a nonnegative gamma;
        these need finite sides.  Support witnesses must name a closed support that
        contains one side and misses the listed atoms of the other.  Omega
        witnesses must name the closed support that omega on the sides
        spans, and a lifted path (omega_equal) or domination (omega_leq)
        whose ends match the finite parts off that support: omega on the
        support absorbs the rest.  Every support closure these use is
        checked by `_checked_closure`.  The first normal-form witness
        checks the congruence's completed rules by `_assert_complete`,
        once per call; each such witness then replays its two paths, from
        finite sides, to the normal forms it names, and
        `_assert_normal_form` checks those against the rules.
        """
        counts = dict.fromkeys(AUDIT_KINDS, 0)
        for entry in self.audit_log:
            if not entry.decision.is_definite():
                continue
            w = entry.decision.witness
            kind = w.get("kind")
            if kind == "functional":
                finite = entry.left.is_finite() and entry.right.is_finite()
                nonneg = entry.op == "leq" or not finite
                self.congruence._assert_functional(w["y"], nonneg=nonneg)
                _audit_separation(entry)
                counts["functional"] += 1
            elif kind == "path":
                left, right = _finite_sides(entry)
                assert (w["start"], w["end"]) == (left, right), "path ends are not the sides"
                self._audit_path(left, w["steps"], right)
                counts["path"] += 1
            elif kind == "domination":
                self._audit_domination(entry, w, _finite_sides(entry)[1])
                counts["domination"] += 1
            elif kind == "normal_form":
                if not counts["normal_form"]:
                    self.congruence._assert_complete()
                left, right = _finite_sides(entry)
                self._audit_path(left, w["path_left"], w["left"])
                self._audit_path(right, w["path_right"], w["right"])
                self.congruence._assert_normal_form(entry.op == "leq", w)
                counts["normal_form"] += 1
            elif kind == "support":
                self._audit_support(entry)
                counts["support"] += 1
            elif kind == "omega_equal":
                inner = w["finite"]
                self._audit_omega_support(entry, inner["start"], inner["end"])
                self._audit_path(inner["start"], inner["steps"], inner["end"])
                counts["path"] += 1
            elif kind == "omega_leq":
                start = w["finite"]["start"]
                support = self._audit_omega_support(entry, entry.left.finite, start)
                self._audit_domination(entry, w["finite"], start, support)
                counts["domination"] += 1
            else:
                raise AssertionError(f"unrecognised witness kind {kind!r}")
        return counts

    def _assert_closed(self, closed: FrozenSet[int]) -> None:
        """For every relation, supp(lhs) is inside `closed` exactly when
        supp(rhs) is."""
        for rel in self.relations:
            lhs_in = all(i in closed for i, c in enumerate(rel.lhs) if c)
            rhs_in = all(i in closed for i, c in enumerate(rel.rhs) if c)
            assert lhs_in == rhs_in, "support is not closed under a relation"

    def _checked_closure(self, support: FrozenSet[int]) -> FrozenSet[int]:
        """U(support), checked without trusting `support_closure`: each
        atom of its derivation is forced by its relation and direction once
        the given side is inside, so the result lies in every closed set
        holding `support`, and the result is closed."""
        closed, cert = self.congruence.support_closure(support)
        inside = set(support)
        for b, (idx, direction) in cert["added"].items():
            rel = self.relations[idx]
            given, forced = (rel.lhs, rel.rhs) if direction == 1 else (rel.rhs, rel.lhs)
            assert all(i in inside for i, c in enumerate(given) if c), "given side not inside"
            assert forced[b], "atom not forced by its relation"
            inside.add(b)
        assert inside == closed, "derivation does not reach the closure"
        self._assert_closed(closed)
        return closed

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
        closure = self._checked_closure
        assert closure(entry.right.omega) == support, "support is not the right closure"
        if entry.op == "eq":
            assert closure(entry.left.omega) == support, "support is not the left closure"
        else:
            assert entry.left.omega <= support, "support misses the left omega set"
        assert zero_on(left, support) == zero_on(entry.left.finite, support), "left start is off"
        assert zero_on(right, support) == zero_on(entry.right.finite, support), "right start is off"
        return support

    def _audit_domination(
        self, entry: AuditEntry, w: dict, right: Vec, support=frozenset()
    ) -> None:
        """An order: the path replays from `right` to w, and off `support`
        w is the left finite part plus a nonnegative gamma."""
        assert entry.op == "leq", "an order witness for an equality"
        m, top = zero_on(entry.left.finite, support), zero_on(w["w"], support)
        assert vec_geq(top, m), "dominating member does not dominate"
        assert vec_add(m, w["gamma"]) == top, "gamma mismatch"
        self._audit_path(right, w["path"], w["w"])

    def _audit_path(self, start, steps, end) -> None:
        cur = tuple(start)
        for r in self.realizations_from_path(start, steps):
            rep = self.verify_realization(r)
            assert rep.ok, f"step realization failed: {rep.problems}"
            assert r.left_whole.finite == cur
            cur = r.right_whole.finite
        assert cur == tuple(end), "path does not reach its claimed endpoint"


def _finite_sides(entry: AuditEntry) -> Tuple[Vec, Vec]:
    """The two sides of an entry whose witness speaks of finite vectors."""
    assert entry.left.is_finite() and entry.right.is_finite(), "a side is not finite"
    return entry.left.finite, entry.right.finite


def _audit_separation(entry: AuditEntry) -> None:
    """A functional witness tells the sides apart: its values on them,
    INF where y weighs an omega atom, differ for equality, and the left
    one is the larger for order.  Recorded values must be these."""
    w = entry.decision.witness
    left, right = _saturating_value(w["y"], entry.left), _saturating_value(w["y"], entry.right)
    if entry.op == "eq":
        separated = left != right
    else:
        separated = right != INF and (left == INF or left > right)
    assert separated, "functional does not separate the classes"
    if "separation" in w:
        assert INF not in (left, right) and w["separation"] == left - right, (
            "separation does not match")
    assert (w.get("value_left", left), w.get("value_right", right)) == (left, right), (
        "recorded values do not match")


def _saturating_value(y, v: ExtVec):
    """y on v, or INF when y weighs an atom of v's omega set."""
    if any(y[i] for i in v.omega):
        return INF
    return sum(c * x for c, x in zip(y, v.finite) if c and x)


def morphism_type_map(
    m: StatMorphism,
    source_engine: TypeEngine,
    target_engine: TypeEngine,
) -> Callable[[TarskiType], TarskiType]:
    """The contravariant map on types induced by taking preimages.

    Raises NotMeasurableError when m splits a source atom."""
    if m.source != source_engine.statspace or m.target != target_engine.statspace:
        raise SpaceMismatchError("engines do not match the morphism endpoints")
    tgt_atom = m.atom_map

    def on_types(beta: TarskiType) -> TarskiType:
        return source_engine.type_of_abar(_pull_back(target_engine._vec(beta), tgt_atom))

    return on_types
