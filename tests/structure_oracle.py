"""The exhaustive structure checks, kept as references.

`monoid.check_inverse_monoid` tests associativity by Light's test, and
`spaces.validate_action` and `spaces.validate_morphism` check their laws
on generators.  Here every law is tested on every element: associativity
on every triple (|M|^3), the homomorphism law of an action on every pair
and its measurability on every element (|M|^2), and the homomorphism law
of fstar on every pair and equivariance on every element (|T|^2).  Also
here: seeded tampering, one entry of a table, an action or an fstar at a
time.
"""

from dataclasses import replace

from typemonoid.errors import NotMeasurableError
from typemonoid.monoid import InverseMonoidTable, check_inverse_monoid
from typemonoid.spaces import (
    ActionReport,
    MorphismReport,
    StatSpace,
    induced_atom_map,
    pullback,
)


def reference_associative(table: InverseMonoidTable) -> bool:
    """(a b) c = a (b c) for every triple."""
    n, mul = table.order, table.mul
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def reference_action(ss: StatSpace) -> ActionReport:
    """The action laws on every pair and every element; the monoid
    report is `check_inverse_monoid`'s."""
    mon, action = ss.monoid, ss.action
    rep = ActionReport(monoid=check_inverse_monoid(mon))
    n_pts = len(ss.space.points)
    if len(action) != mon.order or any(
        len(row) != n_pts or any(not (0 <= q < n_pts) for q in row)
        for row in action
    ):
        rep.total = False
        return rep
    if action[mon.unit] != tuple(range(n_pts)):
        rep.unit_acts_as_identity = False
    for s in range(mon.order):
        for t in range(mon.order):
            composed = tuple(action[s][q] for q in action[t])
            if action[mon.mul[s][t]] != composed:
                rep.homomorphism = False
                rep.homomorphism_witness = (s, t)
                break
        if not rep.homomorphism:
            break
    for s, row in enumerate(action):
        try:
            induced_atom_map(row, ss.space, ss.space, f"element {mon.labels[s]}")
        except NotMeasurableError as exc:
            rep.measurable = False
            rep.measurability_witness = (s, exc.atom)
            return rep
    return rep


def reference_morphism(m) -> MorphismReport:
    """The homomorphism law of fstar on every pair and equivariance on
    every target element and atom."""
    rep = MorphismReport()
    n_src = len(m.source.space.points)
    n_tgt = len(m.target.space.points)
    if len(m.point_map) != n_src or any(not (0 <= q < n_tgt) for q in m.point_map):
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


def _changed(rows, rng, values):
    """rows with one entry, chosen by rng, set to another of `values`."""
    rows = [list(r) for r in rows]
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    rows[i][j] = rng.choice([v for v in values if v != rows[i][j]])
    return tuple(tuple(r) for r in rows)


def tampered_table(table: InverseMonoidTable, rng) -> InverseMonoidTable:
    """The table with one product changed."""
    return InverseMonoidTable(
        table.order, table.unit, _changed(table.mul, rng, range(table.order)), table.labels
    )


def tampered_action(ss: StatSpace, rng) -> StatSpace:
    """A table-given copy of ss with one point image changed."""
    action = _changed(ss.action, rng, range(len(ss.space.points)))
    return StatSpace.from_table(ss.space, ss.monoid, action)


def tampered_fstar(m, rng):
    """The morphism with one entry of fstar changed."""
    return replace(m, fstar=_changed([m.fstar], rng, range(m.source.monoid.order))[0])
