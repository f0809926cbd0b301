"""Partial bijections on a finite carrier and closures into inverse monoids.

A partial bijection is an injective map defined on a subset of
{0, ..., carrier-1}.  Under composition and inversion these form the
symmetric inverse monoid I(carrier); any set of them generates an inverse
submonoid, which `closure` materializes as a multiplication table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .errors import CarrierMismatchError, ClosureCapError

Pairs = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class PartialBijection:
    """Injective partial self-map of {0..carrier-1}, stored as sorted pairs."""

    carrier: int
    pairs: Pairs

    def __post_init__(self):
        seen_src = set()
        seen_dst = set()
        for s, d in self.pairs:
            if not (0 <= s < self.carrier and 0 <= d < self.carrier):
                raise ValueError(f"pair ({s},{d}) outside carrier {self.carrier}")
            if s in seen_src:
                raise ValueError(f"source {s} repeated")
            if d in seen_dst:
                raise ValueError(f"target {d} repeated: not injective")
            seen_src.add(s)
            seen_dst.add(d)
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @staticmethod
    def from_dict(carrier: int, mapping: Dict[int, int]) -> "PartialBijection":
        return PartialBijection(carrier, tuple(sorted(mapping.items())))

    @staticmethod
    def identity(carrier: int) -> "PartialBijection":
        return PartialBijection(carrier, tuple((i, i) for i in range(carrier)))

    @staticmethod
    def empty(carrier: int) -> "PartialBijection":
        return PartialBijection(carrier, ())

    def as_dict(self) -> Dict[int, int]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset:
        return frozenset(s for s, _ in self.pairs)

    @property
    def image(self) -> frozenset:
        return frozenset(d for _, d in self.pairs)

    def __call__(self, x: int) -> Optional[int]:
        return self.as_dict().get(x)

    def is_idempotent(self) -> bool:
        return all(s == d for s, d in self.pairs)


def compose(g: PartialBijection, f: PartialBijection) -> PartialBijection:
    """g after f: defined on f^{-1}(Dom g ∩ Im f)."""
    if g.carrier != f.carrier:
        raise CarrierMismatchError(f"carriers {g.carrier} != {f.carrier}")
    gd = g.as_dict()
    return PartialBijection(
        f.carrier, tuple((s, gd[d]) for s, d in f.pairs if d in gd)
    )


def invert(f: PartialBijection) -> PartialBijection:
    """The unique weak inverse of f inside I(carrier)."""
    return PartialBijection(f.carrier, tuple((d, s) for s, d in f.pairs))


def union_graph_is_injective(f: PartialBijection, g: PartialBijection) -> bool:
    """Whether graph(f) ∪ graph(g) is again a partial bijection."""
    merged: Dict[int, int] = dict(f.pairs)
    for s, d in g.pairs:
        if merged.get(s, d) != d:
            return False
        merged[s] = d
    return len(set(merged.values())) == len(merged)


def is_compatible(f: PartialBijection, g: PartialBijection) -> bool:
    """f ~ g iff both f∘g^{-1} and f^{-1}∘g are idempotent.

    Requiring both products keeps the test equivalent to
    union_graph_is_injective; either product alone only constrains one of
    the two ways the graphs can clash.
    """
    if g.carrier != f.carrier:
        raise CarrierMismatchError(f"carriers {g.carrier} != {f.carrier}")
    return (
        compose(f, invert(g)).is_idempotent()
        and compose(invert(f), g).is_idempotent()
    )


def monoid_closure(
    seed: Sequence[Hashable],
    product: Callable[[Hashable, Hashable], Hashable],
    cap: int,
) -> Tuple["InverseMonoidTableData", List]:
    """Close `seed` under `product`, as a multiplication table.

    seed[0] must be the unit; repeats in the seed are dropped.  Elements
    are numbered in first-in-first-out order of discovery: each element
    taken from the queue is multiplied on both sides by every element
    known at that moment.  Raises ClosureCapError rather than grow past
    `cap` elements.
    """
    elements: List = []
    index: Dict[Hashable, int] = {}
    for f in seed:
        if f not in index:
            index[f] = len(elements)
            elements.append(f)
    queue = deque(elements)
    while queue:
        f = queue.popleft()
        for g in list(elements):
            for h in (product(f, g), product(g, f)):
                if h not in index:
                    if len(elements) >= cap:
                        raise ClosureCapError(cap, len(elements) + 1)
                    index[h] = len(elements)
                    elements.append(h)
                    queue.append(h)
    order = len(elements)
    mul = tuple(
        tuple(index[product(elements[i], elements[j])] for j in range(order))
        for i in range(order)
    )
    return InverseMonoidTableData(order=order, unit=0, mul=mul), elements


def closure(
    generators: Sequence[PartialBijection], carrier: int, cap: int = 10000
) -> Tuple["InverseMonoidTableData", List[PartialBijection]]:
    """Close generators under composition and inversion, with the identity.

    Returns raw table data (order, unit, mul) plus the element list; the
    caller wraps it into a table object.  Raises ClosureCapError beyond
    `cap` elements.
    """
    for f in generators:
        if f.carrier != carrier:
            raise CarrierMismatchError("generator carrier mismatch")
    seed = [PartialBijection.identity(carrier)]
    for f in generators:
        seed += [f, invert(f)]
    return monoid_closure(seed, compose, cap)


@dataclass(frozen=True)
class InverseMonoidTableData:
    """Plain multiplication-table payload produced by closures."""

    order: int
    unit: int
    mul: Tuple[Tuple[int, ...], ...]


def all_partial_bijections(n: int) -> List[PartialBijection]:
    """Every injective partial self-map of an n-point carrier."""
    out = []
    points = range(n)
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in combinations(points, k):
                for perm in permutations(img):
                    out.append(PartialBijection(n, tuple(zip(dom, perm))))
    return out


def symmetric_inverse_monoid(
    n: int, cap: int = 10000
) -> Tuple[InverseMonoidTableData, List[PartialBijection]]:
    """The full symmetric inverse monoid I(n) as a table."""
    elements = all_partial_bijections(n)
    if len(elements) > cap:
        raise ClosureCapError(cap, len(elements))
    elements.sort(key=lambda f: (-len(f.pairs), f.pairs))
    # identity sorts inside the total maps; move it to index 0
    ident = PartialBijection.identity(n)
    elements.remove(ident)
    elements.insert(0, ident)
    index = {f: i for i, f in enumerate(elements)}
    order = len(elements)
    mul = tuple(
        tuple(index[compose(elements[i], elements[j])] for j in range(order))
        for i in range(order)
    )
    return InverseMonoidTableData(order=order, unit=0, mul=mul), elements
