"""Abstract inverse monoids as multiplication tables.

Elements are dense integers 0..order-1.  `InverseMonoidTable` is the one
table type: `partial_bijection.monoid_closure` builds every closed table,
and a table read from a file or written by hand is the same object.
Validation never raises on bad algebra; it returns a report with
witnesses so callers can show *why* a table fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import InvalidTableError


@dataclass(frozen=True)
class InverseMonoidTable:
    order: int
    unit: int
    mul: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"s{i}" for i in range(self.order))
            )
        n = self.order
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise ValueError(f"table must be square, {n} by {n}")
        if any(not (0 <= x < n) for row in self.mul for x in row):
            raise ValueError("multiplication entries out of range")
        if len(self.labels) != n:
            raise ValueError("one label per element required")
        if not (0 <= self.unit < n):
            raise ValueError("unit index out of range")


@dataclass
class InverseMonoidReport:
    associative: bool = True
    assoc_witness: Optional[Tuple[int, int, int]] = None
    unit_ok: bool = True
    unit_witness: Optional[int] = None
    regular: bool = True
    regular_witness: Optional[int] = None
    unique_weak_inverse: bool = True
    uniqueness_witness: Optional[Tuple[int, int, int]] = None
    idempotents_commute: bool = True
    commute_witness: Optional[Tuple[int, int]] = None
    idempotents: Tuple[int, ...] = ()
    star: Optional[Tuple[int, ...]] = None

    @property
    def valid(self) -> bool:
        return (
            self.associative
            and self.unit_ok
            and self.regular
            and self.unique_weak_inverse
            and self.idempotents_commute
        )


def check_inverse_monoid(table: InverseMonoidTable) -> InverseMonoidReport:
    """Check the inverse monoid axioms, collecting witnesses for failures.

    An element t is a weak inverse of s when s t s = s and t s t = t; the
    table is valid when every element has exactly one weak inverse and
    idempotents commute (equivalently, weak inverses are unique).

    Associativity is Light's test (Clifford & Preston 1961, vol. 1): the
    law (a b) c = a (b c) is checked for every a and c, and for b the
    unit and the elements of `generating_set`.  That is exact for any
    table.  The middles b that pass for every a and c are closed under
    products: for passing c and d,
    (x (c d)) y = ((x c) d) y = (x c)(d y) = x (c (d y)) = x ((c d) y).
    Every element is a generator or is reached from the unit by right
    multiplication by generators, so every element passes when the unit
    and the generators do, whether or not the unit law holds.
    """
    rep = InverseMonoidReport()
    n, mul, e = table.order, table.mul, table.unit
    middles = [e] + generating_set(table)
    for a in range(n):
        for b in middles:
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    rep.associative = False
                    rep.assoc_witness = (a, b, c)
                    return rep
    for a in range(n):
        if mul[e][a] != a or mul[a][e] != a:
            rep.unit_ok = False
            rep.unit_witness = a
            return rep
    rep.idempotents = tuple(x for x in range(n) if mul[x][x] == x)
    star: List[Optional[int]] = [None] * n
    for s in range(n):
        weak = [
            t
            for t in range(n)
            if mul[mul[s][t]][s] == s and mul[mul[t][s]][t] == t
        ]
        if not weak:
            rep.regular = False
            rep.regular_witness = s
        elif len(weak) > 1:
            rep.unique_weak_inverse = False
            rep.uniqueness_witness = (s, weak[0], weak[1])
        else:
            star[s] = weak[0]
    for i, f in enumerate(rep.idempotents):
        for g in rep.idempotents[i + 1 :]:
            if mul[f][g] != mul[g][f]:
                rep.idempotents_commute = False
                rep.commute_witness = (f, g)
                break
        if not rep.idempotents_commute:
            break
    if rep.valid:
        rep.star = tuple(star)  # type: ignore[arg-type]
    return rep


def require_valid(table: InverseMonoidTable) -> InverseMonoidReport:
    rep = check_inverse_monoid(table)
    if not rep.valid:
        raise InvalidTableError(f"not an inverse monoid: {rep}")
    return rep


def generating_set(table: InverseMonoidTable) -> List[int]:
    """Elements that generate the monoid, read off its table.

    Elements are scanned in index order, and one is taken when the ones
    taken before it do not generate it: it is missing from the closure of
    the unit under right multiplication by them.  The unit is never taken.
    """
    mul = table.mul
    gens: List[int] = []
    reached = {table.unit}
    for s in range(table.order):
        if s in reached:
            continue
        gens.append(s)
        # the old closure is closed under the old generators; only its
        # products with s and what they reach are new
        todo = [mul[x][s] for x in reached]
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                todo.extend(mul[y][g] for g in gens)
    return gens


def natural_partial_order(table: InverseMonoidTable) -> Tuple[Tuple[bool, ...], ...]:
    """Matrix of s <= t, where s <= t iff s = t e for some idempotent e."""
    rep = require_valid(table)
    n, mul = table.order, table.mul
    leq = [[False] * n for _ in range(n)]
    for t in range(n):
        for e in rep.idempotents:
            leq[mul[t][e]][t] = True
    return tuple(tuple(row) for row in leq)


def trivial_monoid() -> InverseMonoidTable:
    return InverseMonoidTable(order=1, unit=0, mul=((0,),), labels=("1",))
