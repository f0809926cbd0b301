"""Reference scale lattice: every atom subset, then a generic poset.

The oracle for `lattice.IdempotentLattice`, which walks one-atom steps
of the support closure and reads order, meet and join off the sets.
Here the elements are the canonical idempotents of all 2^n atom subsets,
the order is given as pairs and transitively closed, and meet and join
are found as the unique greatest lower and least upper bounds.  Also
here: a meet by maximizing intersection types over representatives, a
join checked to be the sum, and distributivity tested by both laws and
both absorption laws on every triple of closed sets, the reference for
`lattice.check_distributive`.  All of it is exponential or cubic; small
spaces only.
"""

from itertools import combinations
from typing import Dict, Hashable, List, Sequence, Tuple

from typemonoid.congruence import EQUAL, LEQ, ExtVec
from typemonoid.errors import AmbiguousMaximumError, BudgetExhaustedError
from typemonoid.lattice import (
    IdempotentElement,
    IdempotentLattice,
    LatticeError,
    canonical_idempotent,
)
from typemonoid.types import TypeEngine


class PosetLattice:
    """A finite bounded lattice, given by its elements and order pairs.

    Construction closes the order transitively, checks antisymmetry, and
    checks that every pair has a unique greatest lower and least upper
    bound and that there is one bottom and one top.
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
        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in leq_pairs:
            rel[self.index[a]][self.index[b]] = True
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    for j in range(n):
                        if rel[k][j]:
                            rel[i][j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j] and rel[j][i]:
                    raise LatticeError(
                        f"order not antisymmetric: {self.elements[i]} ~ {self.elements[j]}"
                    )
        self._rel = rel
        self._meet = [[self._bound(i, j, lower=True) for j in range(n)] for i in range(n)]
        self._join = [[self._bound(i, j, lower=False) for j in range(n)] for i in range(n)]
        bots = [i for i in range(n) if all(rel[i][j] for j in range(n))]
        tops = [i for i in range(n) if all(rel[j][i] for j in range(n))]
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("lattice must have unique bottom and top")
        self.bottom: Hashable = self.elements[bots[0]]
        self.top: Hashable = self.elements[tops[0]]

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


def enumerate_by_subsets(engine: TypeEngine) -> PosetLattice:
    """The canonical idempotents of every atom subset, ordered by
    inclusion of their supports."""
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
    return PosetLattice(elements, pairs)


def join_idempotents(engine: TypeEngine, lattice, e, f) -> IdempotentElement:
    """Join is the sum e+f; checked to agree with the lattice's join."""
    nv = engine.omega_normalize(e.vec.add(f.vec))
    cand = IdempotentElement(engine.n, nv.omega)
    lub = lattice.join(e, f)
    if cand != lub:
        raise LatticeError(f"join mismatch: sum gives {cand}, order gives {lub}")
    return cand


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
    pair_cap: int = 4096,
) -> IdempotentElement:
    """Meet by maximizing the intersection type over representative pairs.

    Representatives of an idempotent are bounded omega vectors in its
    class; intersections are componentwise minima.  The maximum of the
    collected intersection types under the type order is returned, as a
    canonical idempotent, and must be unique among the candidates.
    """
    reps_e = _idempotent_representatives(engine, e)
    reps_f = _idempotent_representatives(engine, f)
    if len(reps_e) * len(reps_f) > pair_cap:
        raise BudgetExhaustedError(
            f"{len(reps_e)}x{len(reps_f)} representative pairs exceed cap {pair_cap}"
        )
    seen: List[ExtVec] = []
    for u in reps_e:
        for v in reps_f:
            w = engine.omega_normalize(_ext_min(u, v))
            if w in seen:
                continue
            # normal forms are not unique per class; dedupe by decision
            if any(engine.decide_equal(w, x).verdict == EQUAL for x in seen):
                continue
            seen.append(w)
    best = [w for w in seen if all(engine.decide_leq(x, w).verdict == LEQ for x in seen)]
    if len(best) != 1:
        raise AmbiguousMaximumError(
            f"intersection types have {len(best)} maxima under the type order"
        )
    top = best[0]
    if any(v for v in top.finite):
        raise LatticeError(f"maximal intersection {top} is not an idempotent")
    return canonical_idempotent(engine, top.omega)


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
            if engine.decide_equal(cand, target).verdict == EQUAL:
                out.append(cand)
    return out


def reference_distributive(lattice):
    """Both distributive laws and both absorption laws on every pair and
    triple of closed sets (4 L^3 closures): (ok, counterexample), the
    counterexample naming lattice elements."""
    close = lattice.closure
    element = dict(zip(lattice.closed, lattice.elements))
    for a in lattice.closed:
        for b in lattice.closed:
            ab = close(a | b)
            if a & ab != a:
                return False, {"law": "absorption-meet", "a": element[a], "b": element[b]}
            if close(a | (a & b)) != a:
                return False, {"law": "absorption-join", "a": element[a], "b": element[b]}
            for c in lattice.closed:
                lhs = a & close(b | c)
                rhs = close((a & b) | (a & c))
                if lhs != rhs:
                    return False, {"law": "meet-over-join", "a": element[a], "b": element[b],
                                   "c": element[c], "lhs": element[lhs], "rhs": element[rhs]}
                lhs = close(a | (b & c))
                rhs = ab & close(a | c)
                if lhs != rhs:
                    return False, {"law": "join-over-meet", "a": element[a], "b": element[b],
                                   "c": element[c], "lhs": element[lhs], "rhs": element[rhs]}
    return True, None


def is_meet_over_join_failure(lattice, why) -> bool:
    """Whether a counterexample of `check_distributive` is a real one:
    a ^ (b v c) is lhs, (a ^ b) v (a ^ c) is rhs, and they differ."""
    closed = dict(zip(lattice.elements, lattice.closed))
    a, b, c = (closed[why[k]] for k in "abc")
    close = lattice.closure
    return (
        why["law"] == "meet-over-join"
        and a & close(b | c) == closed[why["lhs"]]
        and close((a & b) | (a & c)) == closed[why["rhs"]]
        and why["lhs"] != why["rhs"]
    )


def random_closure_lattice(rng, n: int):
    """The lattice of a seeded random closure system on n points: a few
    random sets, the whole set, and every intersection of them."""
    closed = {frozenset(range(n))}
    for _ in range(rng.randint(1, 2 * n)):
        new = frozenset(x for x in range(n) if rng.random() < 0.5)
        closed |= {new} | {new & c for c in closed}
    return IdempotentLattice(
        n, lambda s: frozenset.intersection(*(c for c in closed if s <= c))
    )
