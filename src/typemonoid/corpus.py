"""Fixture spaces and a seeded random corpus of small monoid-on-space setups.

The named fixtures are the recurring tiny examples used across the tests
and the CLI: a four-point space whose symmetries preserve point parity, a
two-point space collapsed onto one point by an idempotent, and a handful
of degenerate companions.  Random spaces mix three sources of generators:
permutations (groups), commuting retractions onto measurable sets
(semilattices), and partial injections totalized through an absorbing
sink point (genuinely inverse-monoid examples with nontrivial
idempotents).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .errors import CarrierMismatchError, ClosureCapError
from .monoid import InverseMonoidTable
from .partial_bijection import PartialBijection, closure, invert, monoid_closure
from .spaces import (
    StatMorphism,
    StatSpace,
    build_space,
    validate_action,
    with_trivial_symmetry,
)


def transformation_closure(
    generators: Sequence[Tuple[int, ...]],
    n_points: int,
    cap: int = 64,
) -> Tuple[InverseMonoidTable, List[Tuple[int, ...]]]:
    """Close total point maps under composition, identity included.

    mul[s][t] composes t first, then s, so the element-to-map assignment
    is itself the action.
    """
    seed = [tuple(range(n_points))] + [tuple(g) for g in generators]
    return monoid_closure(seed, lambda f, g: tuple(f[x] for x in g), cap)


def _presented_space(
    points: Sequence[str],
    atoms: Sequence[Sequence[int]],
    seed: Sequence[Hashable],
    generators: Sequence[Hashable],
    gen_labels: Sequence[str],
    point_map: Callable[[Hashable], Tuple[int, ...]],
    close: Callable[[], Tuple[InverseMonoidTable, List]],
) -> StatSpace:
    """The space of a closure seed: the unit, then the generators.

    Its elements are numbered as `monoid_closure` numbers a seed, repeats
    dropped, and labelled "1" for the unit, gen_labels[k] for generator k
    (unless an earlier label took its element), and "s<i>" for every other
    element i.  So a generator label may not repeat, nor be "1" or
    "s<digits>": element labels key the action of a written table.
    `close()` builds the whole table when it is first read.
    """
    if gen_labels and len(gen_labels) != len(generators):
        raise ValueError("one label per generator required")
    for k, label in enumerate(gen_labels):
        if label in gen_labels[:k]:
            raise ValueError(f"generator label {label!r} repeats")
        if label == "1" or re.fullmatch(r"s\d+", label):
            raise ValueError(
                f"generator label {label!r} is reserved: the closure labels elements 1 and s<i>"
            )
    elems = list(dict.fromkeys(seed))
    labels = ["1"] + ["s%d" % i for i in range(1, len(elems))]
    for g, label in zip(generators, gen_labels):
        gi = elems.index(g)
        if labels[gi] == "s%d" % gi:
            labels[gi] = label
    labelled_maps = tuple(zip(labels, map(point_map, elems)))

    def closed():
        table, all_elems = close()
        k = len(labelled_maps)
        labels_all = [label for label, _ in labelled_maps]
        labels_all += ["s%d" % i for i in range(k, table.order)]
        action = [row for _, row in labelled_maps]
        action += [point_map(f) for f in all_elems[k:]]
        return replace(table, labels=tuple(labels_all)), tuple(action)

    return StatSpace(
        space=build_space(points, atoms),
        given=tuple(elems),
        close=closed,
        seed=labelled_maps,
    )


def statspace_from_maps(
    points: Sequence[str],
    atoms: Sequence[Sequence[int]],
    generators: Sequence[Tuple[int, ...]],
    gen_labels: Sequence[str] = (),
    cap: int = 64,
) -> StatSpace:
    """A StatSpace of total generator maps; the monoid is closed under
    `cap` when its table is first read."""
    gens = [tuple(g) for g in generators]
    n = len(points)
    return _presented_space(
        points, atoms, [tuple(range(n))] + gens, gens, gen_labels, tuple,
        lambda: transformation_closure(gens, n, cap=cap),
    )


def totalize(f: PartialBijection, sink: int) -> Tuple[int, ...]:
    m = dict(f.pairs)
    return tuple(m.get(x, sink) for x in range(f.carrier))


def statspace_from_partial_maps(
    points: Sequence[str],
    atoms: Sequence[Sequence[int]],
    generators: Sequence[PartialBijection],
    sink: int,
    gen_labels: Sequence[str] = (),
    cap: int = 64,
) -> StatSpace:
    """Partial injections acting through an absorbing sink point.

    The sink must avoid every generator's domain and image; undefined
    points are sent to it, which turns the abstract closure table into a
    genuine action by total maps.  The generators of the space are each
    generator and its inverse, totalized; the monoid is closed under
    `cap` when its table is first read.
    """
    gens = list(generators)
    n = len(points)
    seed = [PartialBijection.identity(n)]
    for g in gens:
        if g.carrier != n:
            raise CarrierMismatchError("generator carrier mismatch")
        if sink in g.domain or sink in g.image:
            raise ValueError("sink point must avoid generator domains and images")
        seed += [g, invert(g)]
    return _presented_space(
        points, atoms, seed, gens, gen_labels, lambda f: totalize(f, sink),
        lambda: closure(gens, n, cap=cap),
    )


# ---------------------------------------------------------------------------
# Named fixtures


def parity_space() -> StatSpace:
    """Four points, singleton atoms, symmetries swap 0<->2 and 1<->3.

    Every element preserves the parity of a point, so the counts of even
    and odd atoms are conserved quantities.
    """
    return statspace_from_maps(
        points=["0", "1", "2", "3"],
        atoms=[[0], [1], [2], [3]],
        generators=[(2, 1, 0, 3), (0, 3, 2, 1)],
        gen_labels=["g1", "g2"],
    )


def collapse_space() -> StatSpace:
    """Two points; an idempotent squashes both onto point 0.

    The atom {1} has empty preimage under the squash, which makes it a
    nonempty null set.
    """
    space = build_space(["0", "1"], [[0], [1]])
    table = InverseMonoidTable(
        order=2, unit=0, mul=((0, 1), (1, 1)), labels=("1", "e")
    )
    return StatSpace.from_table(space, table, ((0, 1), (0, 0)))


def cyclic4_space() -> StatSpace:
    """Four points rotated cyclically; a free transitive group action."""
    return statspace_from_maps(
        points=["0", "1", "2", "3"],
        atoms=[[0], [1], [2], [3]],
        generators=[(1, 2, 3, 0)],
        gen_labels=["r"],
    )


def two_point_space() -> StatSpace:
    """Two points, atoms named even/odd, trivial symmetry."""
    return with_trivial_symmetry(
        build_space(["even", "odd"], [[0], [1]])
    )


def one_point_space() -> StatSpace:
    return with_trivial_symmetry(build_space(["*"], [[0]]))


def sink_space() -> StatSpace:
    """Partial shift 0 -> 1 totalized through sink point 2."""
    return statspace_from_partial_maps(
        points=["0", "1", "sink"],
        atoms=[[0], [1], [2]],
        generators=[PartialBijection.from_dict(3, {0: 1})],
        sink=2,
        gen_labels=["f"],
    )


def parity_to_two_point_morphism(src: Optional[StatSpace] = None) -> StatMorphism:
    """Send each point of the parity space `src` (a new one when None) to
    its parity class."""
    src = parity_space() if src is None else src
    tgt = two_point_space()
    return StatMorphism(
        source=src,
        target=tgt,
        point_map=(0, 1, 0, 1),
        fstar=(src.unit,),
    )


def parity_shadow_space(src: Optional[StatSpace] = None) -> StatSpace:
    """Two parity classes acted on trivially by the monoid of the parity
    space `src` (a new one when None)."""
    src = parity_space() if src is None else src
    space = build_space(["even", "odd"], [[0], [1]])
    ident = (0, 1)
    return StatSpace.from_table(
        space, src.monoid, tuple(ident for _ in range(src.monoid.order))
    )


def parity_shadow_morphism(src: Optional[StatSpace] = None) -> StatMorphism:
    """Parity map from the parity space `src` (a new one when None) with
    the identity monoid comparison; equivariant because every symmetry
    preserves both parity classes setwise."""
    src = parity_space() if src is None else src
    tgt = parity_shadow_space(src)
    return StatMorphism(
        source=src,
        target=tgt,
        point_map=(0, 1, 0, 1),
        fstar=tuple(range(src.monoid.order)),
    )


def fixture_spaces() -> Dict[str, StatSpace]:
    return {
        "parity": parity_space(),
        "collapse": collapse_space(),
        "cyclic4": cyclic4_space(),
        "two_point": two_point_space(),
        "one_point": one_point_space(),
        "sink": sink_space(),
        "parity_shadow": parity_shadow_space(),
    }


# ---------------------------------------------------------------------------
# Random corpus


@dataclass
class CorpusEntry:
    name: str
    statspace: StatSpace
    kind: str  # "group" | "retraction" | "partial" | "fixture"


def _random_permutation(rng: random.Random, n: int) -> Tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _random_atoms(rng: random.Random, n_points: int) -> List[List[int]]:
    pts = list(range(n_points))
    rng.shuffle(pts)
    blocks: List[List[int]] = []
    while pts:
        take = min(len(pts), rng.randint(1, 2))
        blocks.append(sorted(pts[:take]))
        pts = pts[take:]
    return sorted(blocks)


def _try_space(
    max_order: int, build, n: int, atoms: List[List[int]], *args
) -> Optional[StatSpace]:
    """build(points, atoms, *args) on points "0".."n-1", closing the
    monoid under a cap just past max_order; None when that fails or the
    result is not a valid action."""
    try:
        ss = build([str(i) for i in range(n)], atoms, *args, cap=max_order + 1)
        if ss.monoid.order > max_order:
            return None
    except (ClosureCapError, ValueError):
        return None
    return ss if validate_action(ss).valid else None


def _random_group_space(
    rng: random.Random, max_atoms: int, max_order: int
) -> Optional[StatSpace]:
    n = rng.randint(2, max_atoms)
    gens = [_random_permutation(rng, n) for _ in range(rng.randint(1, 2))]
    # singleton atoms are always safe; coarser ones must stay measurable
    atoms = [[i] for i in range(n)]
    if rng.random() < 0.4:
        atoms = _random_atoms(rng, n)
    return _try_space(max_order, statspace_from_maps, n, atoms, gens)


def _random_retraction_space(
    rng: random.Random, max_atoms: int, max_order: int
) -> Optional[StatSpace]:
    n = rng.randint(2, max_atoms)
    gens = []
    for _ in range(rng.randint(1, 2)):
        # collapse a random block onto one of its points
        block = rng.sample(range(n), rng.randint(2, n))
        target = rng.choice(block)
        g = tuple(target if x in block else x for x in range(n))
        gens.append(g)
    if rng.random() < 0.5:
        gens.append(_random_permutation(rng, n))
    atoms = [[i] for i in range(n)]
    return _try_space(max_order, statspace_from_maps, n, atoms, gens)


def _random_partial_space(
    rng: random.Random, max_atoms: int, max_order: int
) -> Optional[StatSpace]:
    n = rng.randint(3, max_atoms)
    sink = n - 1
    active = list(range(n - 1))
    gens = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, len(active))
        dom = rng.sample(active, k)
        img = rng.sample(active, k)
        gens.append(PartialBijection.from_dict(n, dict(zip(dom, img))))
    atoms = [[i] for i in range(n)]
    return _try_space(max_order, statspace_from_partial_maps, n, atoms, gens, sink)


def random_corpus(
    seed: int = 2024,
    count: int = 60,
    max_atoms: int = 5,
    max_order: int = 8,
    small_count: int = 24,
) -> List[CorpusEntry]:
    """Seeded corpus of valid spaces; `small_count` of them get <= 3 atoms."""
    rng = random.Random(seed)
    out: List[CorpusEntry] = []
    makers = [
        ("group", _random_group_space),
        ("retraction", _random_retraction_space),
        ("partial", _random_partial_space),
    ]
    k = small = 0
    while len(out) < count:
        cap_atoms = 3 if small < small_count else max_atoms
        kind, maker = makers[k % len(makers)]
        k += 1
        ss = maker(rng, cap_atoms, max_order)
        if ss is None:
            continue
        small += ss.n_atoms <= 3
        out.append(CorpusEntry(name=f"{kind}_{len(out)}", statspace=ss, kind=kind))
    return out


# Most pairs `corpus_morphism_pairs` builds: the two fixture pairs, then
# one pair per corpus space.
MORPHISM_PAIRS = 12


def corpus_morphism_pairs(
    entries: Sequence[CorpusEntry],
) -> List[Tuple[StatMorphism, StatMorphism]]:
    """At most MORPHISM_PAIRS composable morphism pairs built from
    fixtures and corpus spaces.

    The parity chain contributes genuinely non-identity composites; each
    corpus space contributes its trivialization followed by the collapse
    onto a single point.  Both parity pairs start at one parity space, so
    its table is closed once.
    """
    pairs: List[Tuple[StatMorphism, StatMorphism]] = []
    one = one_point_space()
    parity = parity_space()
    m1 = parity_to_two_point_morphism(parity)
    m2 = StatMorphism(
        source=m1.target, target=one, point_map=(0, 0), fstar=(0,)
    )
    pairs.append((m2, m1))
    m3 = parity_shadow_morphism(parity)
    m4 = StatMorphism(
        source=m3.target,
        target=with_trivial_symmetry(m3.target.space),
        point_map=(0, 1),
        fstar=(m3.target.unit,),
    )
    pairs.append((m4, m3))
    for e in entries:
        if len(pairs) >= MORPHISM_PAIRS:
            break
        ss = e.statspace
        trivialized = with_trivial_symmetry(ss.space)
        to_trivial = StatMorphism(
            source=ss,
            target=trivialized,
            point_map=tuple(range(len(ss.space.points))),
            fstar=(ss.unit,),
        )
        to_point = StatMorphism(
            source=trivialized,
            target=one,
            point_map=tuple(0 for _ in ss.space.points),
            fstar=(0,),
        )
        pairs.append((to_point, to_trivial))
    return pairs
