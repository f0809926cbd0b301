"""Abstract inverse monoids as multiplication tables.

Elements are dense integers 0..order-1.  Validation never raises on bad
algebra; it returns a report with witnesses so callers can show *why* a
table fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InvalidTableError
from .partial_bijection import PartialBijection


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
        if len(self.labels) != self.order or len(self.mul) != self.order:
            raise ValueError("table shape does not match order")
        for row in self.mul:
            if len(row) != self.order or any(
                not (0 <= x < self.order) for x in row
            ):
                raise ValueError("multiplication entries out of range")
        if not (0 <= self.unit < self.order):
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
    """
    rep = InverseMonoidReport()
    n, mul, e = table.order, table.mul, table.unit
    for a in range(n):
        for b in range(n):
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


def natural_partial_order(table: InverseMonoidTable) -> Tuple[Tuple[bool, ...], ...]:
    """Matrix of s <= t, where s <= t iff s = t e for some idempotent e."""
    rep = require_valid(table)
    n, mul = table.order, table.mul
    leq = [[False] * n for _ in range(n)]
    for t in range(n):
        for e in rep.idempotents:
            leq[mul[t][e]][t] = True
    return tuple(tuple(row) for row in leq)


def wagner_preston(table: InverseMonoidTable) -> Dict[int, PartialBijection]:
    """Faithful representation by partial bijections of the carrier 0..order-1.

    Element s is sent to left multiplication x -> s x restricted to the
    domain s* S.  With the composition convention "apply f first, then g"
    this is a homomorphism: (s t) x = s (t x), and the domains compose the
    right way; the classical right-handed construction is its mirror image.
    """
    rep = require_valid(table)
    assert rep.star is not None
    n, mul = table.order, table.mul
    out: Dict[int, PartialBijection] = {}
    for s in range(n):
        dom = sorted({mul[rep.star[s]][u] for u in range(n)})
        out[s] = PartialBijection(n, tuple((x, mul[s][x]) for x in dom))
    return out


def trivial_monoid() -> InverseMonoidTable:
    return InverseMonoidTable(order=1, unit=0, mul=((0,),), labels=("1",))
