"""Finite measurable spaces acted on by inverse monoids, and their morphisms.

A space is a finite point set with an atom partition; measurable sets are
exactly the unions of atoms and are represented as frozensets of atom
indices.  An action assigns to every monoid element a total point map such
that preimages of atoms are measurable; equivalently every element induces
a map on atoms, which is what the type machinery consumes, for the unit
and the space's generators only.  One routine, `induced_atom_map`,
induces the atom maps of actions and morphisms alike, and refuses a point
map that splits an atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from .errors import NotMeasurableError, SpaceMismatchError
from .monoid import (
    InverseMonoidReport,
    InverseMonoidTable,
    check_inverse_monoid,
    generating_set,
    trivial_monoid,
)

AtomSet = FrozenSet[int]


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """Points with an atom partition; atoms indexed densely, and
    `point_atoms[p]` the atom holding point p."""

    points: Tuple[str, ...]
    atoms: Tuple[FrozenSet[int], ...]
    atom_labels: Tuple[str, ...] = ()
    point_atoms: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owner: Dict[int, int] = {}
        for i, a in enumerate(self.atoms):
            if not a:
                raise ValueError("empty atom")
            for p in a:
                if p in owner:
                    raise ValueError("atoms overlap")
                owner[p] = i
        n = len(self.points)
        if owner.keys() != set(range(n)):
            raise ValueError("atoms do not partition the points")
        object.__setattr__(self, "point_atoms", tuple(owner[p] for p in range(n)))
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
        if not 0 <= p < len(self.point_atoms):
            raise ValueError(f"point {p} not in any atom")
        return self.point_atoms[p]

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


def induced_atom_map(
    point_map: Sequence[int],
    source: FiniteMeasurableSpace,
    target: FiniteMeasurableSpace,
    name: str,
) -> Tuple[int, ...]:
    """The atom map of a point map from source to target: source atom a
    lands inside target atom out[a].  At the first atom whose points land
    in two atoms, raises NotMeasurableError naming the map and carrying
    the atom's index."""
    out = []
    for a, atom in enumerate(source.atoms):
        images = {target.atom_of_point(point_map[p]) for p in atom}
        if len(images) != 1:
            raise NotMeasurableError(name, a, source.atom_labels[a])
        out.append(images.pop())
    return tuple(out)


def _preimage(atom_map: Tuple[int, ...], aset: AtomSet) -> AtomSet:
    """Source atoms an atom map sends into aset."""
    return frozenset(a for a, b in enumerate(atom_map) if b in aset)


@dataclass
class ActionReport:
    monoid: InverseMonoidReport = field(default_factory=InverseMonoidReport)
    unit_acts_as_identity: bool = True
    homomorphism: bool = True
    homomorphism_witness: Optional[Tuple[int, int]] = None
    measurable: bool = True
    measurability_witness: Optional[Tuple[int, int]] = None
    total: bool = True

    @property
    def valid(self) -> bool:
        return (
            self.monoid.valid
            and self.unit_acts_as_identity
            and self.homomorphism
            and self.measurable
            and self.total
        )


PointMap = Tuple[int, ...]


@dataclass(frozen=True)
class StatSpace:
    """A finite measurable space together with an inverse monoid action.

    `action[s][p]` is the image point of p under element s.  Validity
    (checked by `validate_action`) requires action(unit) = id,
    action(s t) = action(s) ∘ action(t), and measurability of every
    preimage of an atom.

    A space keeps the generators it was given; the decisions, laws and
    audit read only the unit and them, since their moves generate every
    move (the `types` docstring).  Built from point maps
    (`corpus.statspace_from_maps`, `statspace_from_partial_maps`), `seed`
    holds the label and point map of the unit, element 0, and of each
    generator, elements 1..k, numbered as the closure numbers its seed.
    `close` builds the whole table, under the builder's cap, when
    `monoid` or `action` is first read.  Given by a table (`from_table`),
    `seed` is empty and the generators are `generating_set(monoid)`.
    Equality and hashing read `space`, `given` (the seed elements, or the
    table and action) and `seed`, never the closed table.
    """

    space: FiniteMeasurableSpace
    given: Hashable
    close: Callable[[], Tuple[InverseMonoidTable, Tuple[PointMap, ...]]] = field(
        compare=False, repr=False
    )
    seed: Tuple[Tuple[str, PointMap], ...] = field(default=(), repr=False)
    _atom_maps: Dict[int, PointMap] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def from_table(
        cls, space: FiniteMeasurableSpace, monoid: InverseMonoidTable,
        action: Sequence[PointMap],
    ) -> "StatSpace":
        closed = (monoid, tuple(action))
        return cls(space, closed, lambda: closed)

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms

    @cached_property
    def _closed(self) -> Tuple[InverseMonoidTable, Tuple[PointMap, ...]]:
        return self.close()

    @property
    def monoid(self) -> InverseMonoidTable:
        return self._closed[0]

    @property
    def action(self) -> Tuple[PointMap, ...]:
        return self._closed[1]

    @property
    def unit(self) -> int:
        return 0 if self.seed else self.monoid.unit

    @cached_property
    def generators(self) -> Tuple[int, ...]:
        if self.seed:
            return tuple(range(1, len(self.seed)))
        return tuple(generating_set(self.monoid))

    def has_element(self, s: int) -> bool:
        """Whether s numbers an element; past the unit and the generators
        this closes the table."""
        return 0 <= s < len(self.seed) or 0 <= s < self.monoid.order

    def atom_map(self, s: int) -> Tuple[int, ...]:
        """The induced map on atoms: atom b lands inside atom_map(s)[b].
        The unit and the generators need no table; any other element
        closes it."""
        amap = self._atom_maps.get(s)
        if amap is None:
            if 0 <= s < len(self.seed):
                label, row = self.seed[s]
            else:
                label, row = self.monoid.labels[s], self.action[s]
            amap = induced_atom_map(row, self.space, self.space, f"element {label}")
            self._atom_maps[s] = amap
        return amap


def validate_action(ss: StatSpace) -> ActionReport:
    """Check the monoid table, then the action laws on the generators.

    The action laws are stated over a monoid, so the report stops after
    the monoid's when associativity or the unit law fails, as it does
    when the action is not total.  Then action(s g) = action(s) ∘
    action(g) is checked for every s and every g in `ss.generators`.
    Given action(unit) = id, that is exact: every t is reached from the
    unit by right multiplication by generators, and by induction on that
    word action(s (t' g)) = action((s t') g) = action(s t') ∘ action(g)
    = action(s) ∘ action(t') ∘ action(g) = action(s) ∘ action(t' g).
    Measurability is checked on the generators, through `ss.atom_map`,
    the cached atom maps the engine reads: every other element then acts
    as a composite of measurable maps.
    """
    mon, action = ss.monoid, ss.action
    rep = ActionReport(monoid=check_inverse_monoid(mon))
    n_pts = len(ss.space.points)
    if len(action) != mon.order or any(
        len(row) != n_pts or any(not (0 <= q < n_pts) for q in row)
        for row in action
    ):
        rep.total = False
        return rep
    if not (rep.monoid.associative and rep.monoid.unit_ok):
        return rep
    if action[mon.unit] != tuple(range(n_pts)):
        rep.unit_acts_as_identity = False
    rep.homomorphism_witness = next((
        (s, g) for s in range(mon.order) for g in ss.generators
        if action[mon.mul[s][g]] != tuple(action[s][q] for q in action[g])
    ), None)
    rep.homomorphism = rep.homomorphism_witness is None
    for g in ss.generators:
        try:
            ss.atom_map(g)
        except NotMeasurableError as exc:
            rep.measurable = False
            rep.measurability_witness = (g, exc.atom)
            return rep
    return rep


def pullback(ss: StatSpace, s: int, aset: AtomSet) -> AtomSet:
    """Atoms of the preimage of a measurable set under element s."""
    return _preimage(ss.atom_map(s), aset)


def with_trivial_symmetry(space: FiniteMeasurableSpace) -> StatSpace:
    """The same space acted on by the one-element monoid."""
    return StatSpace.from_table(space, trivial_monoid(), (tuple(range(len(space.points))),))


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
    so they commute with unions of atoms.  Both ends are valid spaces (a
    morphism of spaces presupposes them), so the homomorphism law of
    fstar and equivariance hold for every t once they hold for the
    target's generators (`validate_morphism`).
    """

    source: StatSpace
    target: StatSpace
    point_map: Tuple[int, ...]
    fstar: Tuple[int, ...]

    @cached_property
    def atom_map(self) -> Tuple[int, ...]:
        """Source atom a lands inside target atom atom_map[a]."""
        return induced_atom_map(
            self.point_map, self.source.space, self.target.space, "morphism"
        )

    def preimage_atoms(self, target_atom: int) -> AtomSet:
        """Source atoms mapping into a given target atom (f measurable)."""
        return _preimage(self.atom_map, {target_atom})

    def preimage_atomset(self, bset: AtomSet) -> AtomSet:
        return _preimage(self.atom_map, bset)


def validate_morphism(m: StatMorphism) -> MorphismReport:
    """Check the point map, then fstar and equivariance on the target's
    generators.

    This is exact between valid spaces, which a morphism of spaces
    presupposes.  Every t is reached from the unit by right
    multiplication by generators g.  Given fstar(unit) = unit and the law
    on T × generators, fstar(t (t' g)) = fstar((t t') g)
    = fstar(t) fstar(t') fstar(g) = fstar(t) fstar(t' g) by induction on
    the word.  Preimages compose as pre_{t g} = pre_g ∘ pre_t in both
    spaces, and f^{-1} and both preimages commute with unions of atoms,
    so equivariance at t and at g gives it at t g:
    f^{-1} pre_g pre_t B = pre_{fstar(g)} pre_{fstar(t)} f^{-1} B
    = pre_{fstar(t) fstar(g)} f^{-1} B = pre_{fstar(t g)} f^{-1} B.
    """
    rep = MorphismReport()
    n_src = len(m.source.space.points)
    n_tgt = len(m.target.space.points)
    if len(m.point_map) != n_src or any(
        not (0 <= q < n_tgt) for q in m.point_map
    ):
        rep.point_map_total = False
        return rep
    try:
        m.atom_map
    except NotMeasurableError as exc:
        rep.measurable = False
        rep.measurability_witness = exc.atom
        return rep
    T, S = m.target.monoid, m.source.monoid
    if len(m.fstar) != T.order or any(not (0 <= s < S.order) for s in m.fstar):
        rep.fstar_homomorphism = False
        return rep
    if m.fstar[T.unit] != S.unit:
        rep.fstar_unit = False
    rep.fstar_witness = next((
        (t, g) for t in range(T.order) for g in m.target.generators
        if m.fstar[T.mul[t][g]] != S.mul[m.fstar[t]][m.fstar[g]]
    ), None)
    rep.fstar_homomorphism = rep.fstar_witness is None
    for g in m.target.generators:
        for b in range(m.target.n_atoms):
            lhs = m.preimage_atomset(pullback(m.target, g, frozenset([b])))
            rhs = pullback(m.source, m.fstar[g], m.preimage_atoms(b))
            if lhs != rhs:
                rep.equivariant = False
                rep.equivariance_witness = (g, b)
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
