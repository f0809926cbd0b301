"""Finite measurable spaces acted on by inverse monoids, and their morphisms.

A space is a finite point set with an atom partition; measurable sets are
exactly the unions of atoms and are represented as frozensets of atom
indices.  An action assigns to every monoid element a total point map such
that preimages of atoms are measurable; equivalently every element induces
a map on atoms, which is what the type machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import NotMeasurableError, SpaceMismatchError
from .monoid import (
    InverseMonoidTable,
    check_inverse_monoid,
    trivial_monoid,
)

AtomSet = FrozenSet[int]


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """Points with an atom partition; atoms indexed densely."""

    points: Tuple[str, ...]
    atoms: Tuple[FrozenSet[int], ...]
    atom_labels: Tuple[str, ...] = ()

    def __post_init__(self):
        covered: set = set()
        for a in self.atoms:
            if not a:
                raise ValueError("empty atom")
            if covered & a:
                raise ValueError("atoms overlap")
            covered |= a
        if covered != set(range(len(self.points))):
            raise ValueError("atoms do not partition the points")
        if not self.atom_labels:
            labels = tuple(
                "+".join(self.points[p] for p in sorted(a)) for a in self.atoms
            )
            object.__setattr__(self, "atom_labels", labels)
        if len(self.atom_labels) != len(self.atoms):
            raise ValueError("one label per atom required")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def atom_of_point(self, p: int) -> int:
        for i, a in enumerate(self.atoms):
            if p in a:
                return i
        raise ValueError(f"point {p} not in any atom")

    def all_measurable_sets(self) -> List[AtomSet]:
        n = self.n_atoms
        return [
            frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
        ]


def build_space(
    points: Sequence[str],
    atoms: Sequence[Sequence[int]],
    atom_labels: Sequence[str] = (),
) -> FiniteMeasurableSpace:
    return FiniteMeasurableSpace(
        tuple(points),
        tuple(frozenset(a) for a in atoms),
        tuple(atom_labels),
    )


@dataclass
class ActionReport:
    monoid_valid: bool = True
    unit_acts_as_identity: bool = True
    homomorphism: bool = True
    homomorphism_witness: Optional[Tuple[int, int]] = None
    measurable: bool = True
    measurability_witness: Optional[Tuple[int, int]] = None
    total: bool = True

    @property
    def valid(self) -> bool:
        return (
            self.monoid_valid
            and self.unit_acts_as_identity
            and self.homomorphism
            and self.measurable
            and self.total
        )


@dataclass(frozen=True)
class StatSpace:
    """A finite measurable space together with an inverse monoid action.

    `action[s][p]` is the image point of p under element s.  Validity
    (checked by `validate_action`) requires action(unit) = id,
    action(s t) = action(s) ∘ action(t), and measurability of every
    preimage of an atom.
    """

    space: FiniteMeasurableSpace
    monoid: InverseMonoidTable
    action: Tuple[Tuple[int, ...], ...]

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms

    @cached_property
    def atom_maps(self) -> Tuple[Tuple[int, ...], ...]:
        """`atom_map(s)` for every element s, computed once per space."""
        return tuple(self.atom_map(s) for s in range(self.monoid.order))

    def atom_map(self, s: int) -> Tuple[int, ...]:
        """The induced map on atoms: atom b lands inside atom_map[b]."""
        out = []
        for b, atom in enumerate(self.space.atoms):
            images = {self.space.atom_of_point(self.action[s][p]) for p in atom}
            if len(images) != 1:
                raise NotMeasurableError(
                    f"element {self.monoid.labels[s]} splits atom "
                    f"{self.space.atom_labels[b]}"
                )
            out.append(next(iter(images)))
        return tuple(out)


def validate_action(ss: StatSpace) -> ActionReport:
    rep = ActionReport()
    rep.monoid_valid = check_inverse_monoid(ss.monoid).valid
    n_pts = len(ss.space.points)
    if len(ss.action) != ss.monoid.order or any(
        len(row) != n_pts or any(not (0 <= q < n_pts) for q in row)
        for row in ss.action
    ):
        rep.total = False
        return rep
    if ss.action[ss.monoid.unit] != tuple(range(n_pts)):
        rep.unit_acts_as_identity = False
    for s in range(ss.monoid.order):
        for t in range(ss.monoid.order):
            st = ss.monoid.mul[s][t]
            composed = tuple(ss.action[s][ss.action[t][p]] for p in range(n_pts))
            if ss.action[st] != composed:
                rep.homomorphism = False
                rep.homomorphism_witness = (s, t)
                break
        if not rep.homomorphism:
            break
    for s in range(ss.monoid.order):
        for b in range(ss.space.n_atoms):
            images = {
                ss.space.atom_of_point(ss.action[s][p]) for p in ss.space.atoms[b]
            }
            if len(images) != 1:
                rep.measurable = False
                rep.measurability_witness = (s, b)
                return rep
    return rep


def pullback(ss: StatSpace, s: int, aset: AtomSet) -> AtomSet:
    """Atoms of the preimage of a measurable set under element s."""
    amap = ss.atom_maps[s]
    return frozenset(b for b in range(ss.n_atoms) if amap[b] in aset)


def with_trivial_symmetry(space: FiniteMeasurableSpace) -> StatSpace:
    """The same space acted on by the one-element monoid."""
    return StatSpace(
        space=space,
        monoid=trivial_monoid(),
        action=(tuple(range(len(space.points))),),
    )


@dataclass
class MorphismReport:
    point_map_total: bool = True
    measurable: bool = True
    measurability_witness: Optional[int] = None
    fstar_unit: bool = True
    fstar_homomorphism: bool = True
    fstar_witness: Optional[Tuple[int, int]] = None
    equivariant: bool = True
    equivariance_witness: Optional[Tuple[int, int]] = None

    @property
    def valid(self) -> bool:
        return (
            self.point_map_total
            and self.measurable
            and self.fstar_unit
            and self.fstar_homomorphism
            and self.equivariant
        )


@dataclass(frozen=True)
class StatMorphism:
    """Measurable map f with a monoid comparison running the other way.

    fstar sends target monoid elements to source elements so that taking
    f-preimages intertwines the two actions:
    f^{-1}(t^{-1} B) = fstar(t)^{-1}(f^{-1} B) for all t and measurable B.
    Checking this on atoms B suffices: both sides are preimage operators,
    so they commute with unions of atoms.
    """

    source: StatSpace
    target: StatSpace
    point_map: Tuple[int, ...]
    fstar: Tuple[int, ...]

    def preimage_atoms(self, target_atom: int) -> AtomSet:
        """Source atoms mapping into a given target atom (f measurable)."""
        out = set()
        for a, atom in enumerate(self.source.space.atoms):
            tgt = {
                self.target.space.atom_of_point(self.point_map[p]) for p in atom
            }
            if len(tgt) != 1:
                raise NotMeasurableError(f"morphism splits atom {a}")
            if next(iter(tgt)) == target_atom:
                out.add(a)
        return frozenset(out)

    def preimage_atomset(self, bset: AtomSet) -> AtomSet:
        out: set = set()
        for b in bset:
            out |= self.preimage_atoms(b)
        return frozenset(out)


def validate_morphism(m: StatMorphism) -> MorphismReport:
    rep = MorphismReport()
    n_src = len(m.source.space.points)
    n_tgt = len(m.target.space.points)
    if len(m.point_map) != n_src or any(
        not (0 <= q < n_tgt) for q in m.point_map
    ):
        rep.point_map_total = False
        return rep
    for a, atom in enumerate(m.source.space.atoms):
        tgt = {m.target.space.atom_of_point(m.point_map[p]) for p in atom}
        if len(tgt) != 1:
            rep.measurable = False
            rep.measurability_witness = a
            return rep
    T, S = m.target.monoid, m.source.monoid
    if len(m.fstar) != T.order or any(not (0 <= s < S.order) for s in m.fstar):
        rep.fstar_homomorphism = False
        return rep
    if m.fstar[T.unit] != S.unit:
        rep.fstar_unit = False
    for t1 in range(T.order):
        for t2 in range(T.order):
            if m.fstar[T.mul[t1][t2]] != S.mul[m.fstar[t1]][m.fstar[t2]]:
                rep.fstar_homomorphism = False
                rep.fstar_witness = (t1, t2)
                break
        if rep.fstar_witness:
            break
    for t in range(T.order):
        for b in range(m.target.n_atoms):
            lhs = m.preimage_atomset(pullback(m.target, t, frozenset([b])))
            rhs = pullback(m.source, m.fstar[t], m.preimage_atoms(b))
            if lhs != rhs:
                rep.equivariant = False
                rep.equivariance_witness = (t, b)
                return rep
    return rep


def identity_morphism(ss: StatSpace) -> StatMorphism:
    return StatMorphism(
        source=ss,
        target=ss,
        point_map=tuple(range(len(ss.space.points))),
        fstar=tuple(range(ss.monoid.order)),
    )


def compose_morphisms(m2: StatMorphism, m1: StatMorphism) -> StatMorphism:
    """m2 after m1 on points; the monoid comparisons compose the other way."""
    if m1.target is not m2.source and m1.target != m2.source:
        raise SpaceMismatchError("morphisms not composable")
    return StatMorphism(
        source=m1.source,
        target=m2.target,
        point_map=tuple(m2.point_map[q] for q in m1.point_map),
        fstar=tuple(m1.fstar[m2.fstar[t]] for t in range(m2.target.monoid.order)),
    )
