"""Decision procedures for finitely presented commutative monoid congruences.

The congruence on N^n is generated by vector pairs (lhs, rhs): u and v are
identified exactly when v is reachable from u by steps u -> u - lhs + rhs
(either orientation, nonnegative intermediates).  Equidecomposability of
finite multiplicity vectors over a finite space reduces to this congruence
for the atomic-move relations, because a pullback distributes over a
disjoint union of atoms: any single move splits into one relation instance
per atom copy, and conversely every relation instance is realized by a two
piece rearrangement.  Chains and sums of realizations are again
realizations, which is precisely closure under transitivity and addition.

Elements may in addition carry omega multiplicities (an omega support),
with saturating arithmetic: omega + k = omega.  Omega copies of atom b are
absorbed by omega copies of a support W exactly when [b] <= k * [W] for
some finite k, and that holds exactly when b lies in the support closure
U(W): the least atom set containing W such that, for every relation
(l, r), supp(l) is inside U exactly when supp(r) is.  Weighting the atoms
of U by 0 and the others by infinity is a stationary measure (Tarski's
{0, inf} measures), which gives one direction; the derivation of each
added atom gives the other.  U(W) is a Horn-clause fixpoint, computed by
forward chaining, and the same measure refutes p <= q whenever p has an
atom outside U(supp q).

Since omega*U + a = omega*U for every a in N^U, the finite parts of an
omega query only matter up to x + a ~ y + b with a, b in N^U.  That
relation is the congruence generated by the relations and e_u ~ 0 for u
in U, which on vectors zero on U is the congruence whose relations have
the coordinates of U zeroed: the quotient by U.  So once the omega
supports agree, one finite decision in the quotient covers every shift
by mass on U at once, and a positive answer there proves the omega
query.  Its paths are lifted back by the least a in N^U that makes each
step apply here, so an omega witness replays against the original
relations.  A negative quotient verdict is no refutation of the omega
query, which then ends in Unknown.

Verdicts are three valued.  Every positive answer carries one
replayable path of relation steps: a `path` from u to v for equality, a
`domination` from v to w = u + gamma, gamma >= 0, for order, and for an
omega query the same lifted from the quotient, inside an `omega_equal`
or `omega_leq`.  Equal sides, and a right side that dominates the left
one coordinatewise, give a path with no steps.  Negative answers carry
a conserved functional (a rational vector annihilating every relation
difference, nonnegative for order queries, evaluated with saturation on
omega coordinates), a closed support, or normal forms under the
completed relations; budget exhaustion yields
Unknown, never a guess, and names the budget that ran out.  An omega
Unknown names max_rules when its finite decision ran out of it, and
nothing when the supports do not match or the quotient refuted.
Witnesses are checked by assertion before they are first returned: a
path by replay, a functional once, when it is built.

The relations enter every functional computation through one matrix: the
distinct nonzero differences lhs - rhs, sorted, built once per
congruence.  The conserved basis, the cone and the simplex fallback read
it, and a functional is checked by scaling it to integers by the lcm of
its denominators and testing it against each distinct difference in
exact int arithmetic.  A functional is built, scaled and checked once
per congruence and carries its scaling (a `Functional`), so a separation
or a saturating value is evaluated in integers with no second check.
The basis itself is eliminated in integers from that matrix.

The nonnegative conserved functionals form the conserved cone
{y >= 0 : y.(lhs - rhs) = 0}, the stationary measures.  Its extreme rays
are computed once per congruence by the double-description method, and
every order functional is read off them: the rays vanishing on a set Z
generate the face of the cone zero on Z, so a y there with y.p >= 1
exists exactly when one of those rays r has r.p > 0, and then
y = r / (r.p).  Past RAY_LIMIT rays the cone is abandoned and such
queries fall back to the exact simplex of `lp`.  Measure synthesis
is the same query with p the indicator of the normalizing set.

A finite equality or order that no functional refutes is decided from
a completed presentation (Knuth & Bendix 1970, "Simple word problems in
universal algebras", read for commutative monoids as in Eisenbud &
Sturmfels 1996, "Binomial ideals"), built once per congruence (and per
quotient).  Every vector then has one normal form, and u ~ v exactly
when the two agree; u <= v exactly when x^v lies in the ideal I + <x^u>
of the monoid algebra, that is, when NF(v) lies above one of its
minimal monomials.  Rules and monomials carry the relation steps that
derive them, so a positive verdict is a replayable path; a negative one
names normal forms, which the audit checks with the rules.  Completion
can take exponential space: max_rules bounds the rules it adds beyond
one per distinct relation, and separately the monomials one order
closure adds.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import asdict, dataclass, is_dataclass
from functools import cached_property
from fractions import Fraction
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from .errors import SpaceMismatchError
from .lp import exact_lp_feasible, integer_scaling, rational_kernel_basis

Vec = Tuple[int, ...]

EQUAL = "equal"
NOT_EQUAL = "not_equal"
LEQ = "leq"
NOT_LEQ = "not_leq"
UNKNOWN = "unknown"

# the saturated value of a functional that weighs an omega atom
INF = "inf"

# Most extreme rays the conserved cone may have.  The double-description
# walk is exponential in the worst case; a congruence whose cone passes
# this many rays during the build answers order queries by the simplex.
RAY_LIMIT = 256


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_geq(u: Vec, v: Vec) -> bool:
    return all(a >= b for a, b in zip(u, v))


def vec_scale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def indicator(n: int, support: Iterable[int]) -> Vec:
    s = set(support)
    return tuple(1 if j in s else 0 for j in range(n))


def zero_on(v: Vec, coords: FrozenSet[int]) -> Vec:
    return tuple(0 if i in coords else c for i, c in enumerate(v))


def _supp(v: Vec) -> FrozenSet[int]:
    return frozenset(i for i, c in enumerate(v) if c)


def _primitive(v: Vec) -> Vec:
    """v divided by the gcd of its entries, its first nonzero entry positive."""
    g = math.gcd(*v)
    if g == 0:
        return v
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def _minimal_support(vecs: Iterable[Vec]) -> List[Vec]:
    """The vectors whose support contains no other's, without repeats."""
    keyed = sorted(
        {sum(1 << i for i, c in enumerate(v) if c): v for v in vecs}.items(),
        key=lambda mv: (mv[0].bit_count(), mv[1]),
    )
    kept: List[Vec] = []
    masks: List[int] = []
    for mask, v in keyed:
        if not any(m & mask == m for m in masks):
            kept.append(v)
            masks.append(mask)
    return kept


@dataclass(frozen=True)
class ExtVec:
    """Finite multiplicities plus an omega support.

    Invariant, checked on construction: every finite multiplicity is
    nonnegative (else ValueError "negative multiplicity"), every omega
    coordinate lies in 0..n-1 (else ValueError "omega coordinate out of
    range"), and the finite multiplicity of an omega coordinate is 0
    (else ValueError "finite multiplicity on an omega coordinate").

    The hash, that of (finite, omega), is computed once on construction:
    the memos of normalization, decisions and scale certificates hash a
    value on every lookup.  It is kept outside the fields, so equality,
    repr and asdict see only finite and omega.
    """

    finite: Vec
    omega: FrozenSet[int] = frozenset()

    def __post_init__(self):
        finite = self.finite
        if finite and min(finite) < 0:
            raise ValueError("negative multiplicity")
        if self.omega:
            n = len(finite)
            for i in self.omega:
                if not 0 <= i < n:
                    raise ValueError("omega coordinate out of range")
                if finite[i]:
                    raise ValueError("finite multiplicity on an omega coordinate")
        object.__setattr__(self, "_hash", hash((finite, self.omega)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.finite)

    def is_finite(self) -> bool:
        return not self.omega

    def is_zero(self) -> bool:
        return not self.omega and not any(self.finite)

    def support(self) -> FrozenSet[int]:
        """The atoms with finite or omega mass."""
        return _supp(self.finite) | self.omega

    def add(self, other: "ExtVec") -> "ExtVec":
        a, b = self.finite, other.finite
        if len(a) != len(b):
            raise SpaceMismatchError("dimension mismatch")
        om = self.omega
        if om == other.omega:
            # each side is 0 on the shared omega set, and so is the sum
            return ExtVec(tuple(map(operator.add, a, b)), om)
        om = om | other.omega
        fin = list(map(operator.add, a, b))
        for i in om:
            fin[i] = 0
        return ExtVec(tuple(fin), om)

    def scale(self, k: int) -> "ExtVec":
        if k < 0:
            raise ValueError("nonnegative scalars only")
        if k == 0:
            return ExtVec(zero_vec(self.n))
        return ExtVec(vec_scale(k, self.finite), self.omega)

    @staticmethod
    def from_vec(v: Vec) -> "ExtVec":
        return ExtVec(tuple(v))


class Functional(NamedTuple):
    """A conserved functional y with its integer scaling: den is the lcm
    of y's denominators and z = den * y.  Built only by
    `Congruence._functional`, which checks y before returning it."""

    y: Tuple[Fraction, ...]
    z: Tuple[int, ...]
    den: int


@dataclass(frozen=True)
class Budget:
    """The one limit of the finite layer, set once per congruence: the
    completion of the relations adds at most max_rules rules beyond one per
    distinct relation, and the order closure of one left side at most
    max_rules monomials.  Both counts depend on the input alone, never on
    the order of the queries.  An omega query runs one finite decision, in
    the quotient, under it."""

    max_rules: int = 100

    def __post_init__(self):
        if self.max_rules < 0:
            raise ValueError(f"max_rules must be nonnegative, got {self.max_rules}")


@dataclass
class Decision:
    verdict: str
    witness: dict
    budget: Budget

    def is_definite(self) -> bool:
        return self.verdict != UNKNOWN

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": jsonable(self.witness),
            "budget": asdict(self.budget),
        }


def jsonable(value):
    """`value` as plain JSON data, for witnesses and reports alike: a
    Fraction as "n/d", a set sorted, a tuple as a list, dict keys as
    strings, a dataclass as its fields.  Any other object is written as
    its str."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, (tuple, list, set)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, frozenset):
        return sorted(value)
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    return str(value)


class Rule(NamedTuple):
    """A pair lhs -> rhs with relation steps (index, direction) from lhs to
    rhs; in a completed rule lhs is the larger in the degree-lex order."""

    lhs: Vec
    rhs: Vec
    steps: Tuple[Tuple[int, int], ...]


def _reverse(steps: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The steps walked back from the end they reach."""
    return [(idx, -direction) for idx, direction in reversed(steps)]


@dataclass
class ClassRecord:
    """A class searched breadth first: saturated when the search ran to
    completion, so that `members` is the whole class."""

    members: Dict[Vec, Optional[Tuple[Vec, int, int]]]  # vec -> (parent, rel, dir)
    saturated: bool


class Congruence:
    """The congruence on N^n generated by `relations`, with decision memoes.

    Every decision runs under `budget`, and every Decision records it."""

    def __init__(
        self, n: int, relations: Sequence[Tuple[Vec, Vec]], budget: Budget = Budget()
    ):
        self.n = n
        self.budget = budget
        self.relations: List[Tuple[Vec, Vec]] = [
            (tuple(l), tuple(r)) for l, r in relations
        ]
        for l, r in self.relations:
            if len(l) != n or len(r) != n:
                raise SpaceMismatchError("relation dimension mismatch")
        # the distinct nonzero relation differences, sorted: every
        # conserved functional is computed from these
        self._diffs: Tuple[Vec, ...] = tuple(sorted(
            {vec_sub(l, r) for l, r in self.relations if l != r}
        ))
        # the same differences as sparse (index, coefficient) rows, which
        # every functional is checked against
        self._diff_rows: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((i, c) for i, c in enumerate(d) if c) for d in self._diffs
        )
        # the Horn clauses of the support closure: each distinct
        # (supp lhs, supp rhs) with two different sides, with the first
        # relation index that has it
        supports: Dict[Tuple[FrozenSet[int], FrozenSet[int]], int] = {}
        for idx, (l, r) in enumerate(self.relations):
            supports.setdefault((_supp(l), _supp(r)), idx)
        self._support_pairs = tuple(
            (idx, left, right) for (left, right), idx in supports.items()
            if left != right
        )
        self._kernel: Optional[List[Functional]] = None
        self._rays: Optional[List[Vec]] = None
        self._rays_built = False
        # the checked functional rays[i] / val, keyed by (i, val)
        self._ray_functionals: Dict[Tuple[int, int], Functional] = {}
        self._ideals: Dict[Vec, Optional[List[Tuple[Vec, Vec, List]]]] = {}
        self._closures: Dict[Vec, ClassRecord] = {}
        self._support_memo: Dict[FrozenSet[int], Tuple[FrozenSet[int], dict]] = {}
        self._normal_memo: Dict[ExtVec, ExtVec] = {}
        self._quotients: Dict[FrozenSet[int], "Congruence"] = {}
        self._decision_memo: Dict[tuple, Decision] = {}
        # deterministic work counters; unknown verdicts counted per budget
        self.stats: Dict[str, int] = {
            "rules_added": 0,
            "critical_pairs": 0,
            "monomials_added": 0,
            "longest_path": 0,
            "cone_rays": 0,
            "ray_separations": 0,
            "lp_fallbacks": 0,
            "functionals_built": 0,
            "kernel_rows": 0,
            "kernel_rank": 0,
            "exhausted_max_rules": 0,
        }

    # ----- conserved functionals -------------------------------------------

    def differences(self) -> Tuple[Vec, ...]:
        """The distinct nonzero lhs - rhs, sorted."""
        return self._diffs

    def conserved_basis(self) -> List[Tuple[Fraction, ...]]:
        """Basis of rational y with y.(lhs - rhs) = 0 for every relation,
        eliminated in integers from the distinct differences.

        Each basis vector is checked by `_assert_functional` once, when
        the basis is built; an equality refutation hands it out as it is,
        and `TypeEngine.audit_decisions` checks every logged witness
        again."""
        return [f.y for f in self._basis_functionals()]

    def _basis_functionals(self) -> List[Functional]:
        if self._kernel is None:
            basis = rational_kernel_basis(self._diffs, self.n)
            self.stats["kernel_rows"] = len(self._diffs)
            self.stats["kernel_rank"] = self.n - len(basis)
            self._kernel = [self._functional(y) for y in basis]
        return self._kernel

    def _functional(self, y: Sequence, nonneg: bool = False) -> Functional:
        """y as a Functional, after `_assert_functional` has checked it."""
        z, den = self._assert_functional(y, nonneg=nonneg)
        self.stats["functionals_built"] += 1
        return Functional(tuple(y), tuple(z), den)

    def functional_value(self, f: Functional, v: ExtVec):
        """Saturating evaluation; returns a Fraction or INF.
        A finite value is summed in ints over the carried scaling z / den."""
        y = f.y
        if any(y[i] != 0 for i in v.omega):
            return INF
        return Fraction(sum(a * b for a, b in zip(f.z, v.finite)), f.den)

    def conserved_rays(self) -> Optional[List[Vec]]:
        """Extreme rays of the conserved cone, or None past RAY_LIMIT.

        Double description: start from the unit rays of the orthant and cut
        by the hyperplane d.y = 0 of each distinct relation difference d.
        A cut keeps the rays on the hyperplane and joins every pair on
        opposite sides into one on it.  The extreme rays of
        {y >= 0 : Ay = 0} are its elements of minimal support, so after
        each cut only those are kept.  Rays are gcd-reduced integer
        vectors in a fixed order.
        """
        if not self._rays_built:
            self._rays_built = True
            rays = [unit_vec(self.n, i) for i in range(self.n)]
            for d in sorted({_primitive(d) for d in self._diffs}):
                if len(rays) > RAY_LIMIT:
                    break
                on, above, below = [], [], []
                for r in rays:
                    s = sum(a * b for a, b in zip(d, r))
                    if s == 0:
                        on.append(r)
                    else:
                        (above if s > 0 else below).append((s, r))
                if not (above and below):
                    # no ray straddles the cut: the rays on it are extreme
                    # rays of the face it leaves, so there is nothing to drop
                    rays = on
                    continue
                for sp, rp in above:
                    for sn, rn in below:
                        on.append(_primitive(tuple(sp * b - sn * a for a, b in zip(rp, rn))))
                rays = _minimal_support(on)
            if len(rays) > RAY_LIMIT:
                return None
            rays.sort(reverse=True)
            for r in rays:
                self._assert_functional(r, nonneg=True)
            self._rays = rays
            self.stats["cone_rays"] = len(rays)
        return self._rays

    def _nonneg_conserved(
        self, positive: Sequence[int], zero_coords: Iterable[int] = ()
    ) -> Optional[Functional]:
        """Find y >= 0 conserved with y.positive >= 1 and y zero on zero_coords.

        On the cone, y = r / (r.positive) for the first ray r that fits,
        built and checked by `_assert_functional` once per (ray, value)
        and then returned from a memo; the rays themselves were checked
        when the cone was built.  Past RAY_LIMIT each call solves the
        simplex and checks its point.  `TypeEngine.audit_decisions` checks
        every logged witness again.  When `positive` is <= 0 off the zero
        set, every y >= 0 zero there has y.positive <= 0, so there is none,
        and neither the rays nor the simplex are consulted.
        """
        zero = tuple(zero_coords)
        if not any(c > 0 and i not in zero for i, c in enumerate(positive)):
            return None
        rays = self.conserved_rays()
        if rays is None:
            self.stats["lp_fallbacks"] += 1
            eqs = [(d, 0) for d in self._diffs]
            eqs += [(unit_vec(self.n, i), 0) for i in zero]
            res = exact_lp_feasible(
                self.n, equalities=eqs, ge_inequalities=[(tuple(positive), 1)]
            )
            return self._functional(res.point, nonneg=True) if res.feasible else None
        self.stats["ray_separations"] += 1
        for idx, r in enumerate(rays):
            if any(r[i] for i in zero):
                continue
            val = sum(c * x for c, x in zip(r, positive))
            if val > 0:
                f = self._ray_functionals.get((idx, val))
                if f is None:
                    f = self._functional(tuple(Fraction(c, val) for c in r), nonneg=True)
                    self._ray_functionals[idx, val] = f
                return f
        return None

    # ----- completion ----------------------------------------------------------

    @cached_property
    def _deltas(self) -> Dict[Tuple[int, int], Vec]:
        """What one step (relation index, direction) adds to a vector."""
        out = {}
        for idx, (l, r) in enumerate(self.relations):
            if l != r:
                out[idx, 1], out[idx, -1] = vec_sub(r, l), vec_sub(l, r)
        return out

    @cached_property
    def _rules(self) -> Optional[List[Rule]]:
        """The relations completed under the degree-lex order, or None past
        max_rules additions beyond one per distinct relation; built on the
        first finite query that no functional refutes.

        A pair is reduced to normal forms on both sides and, if they
        differ, oriented into a rule; the rules whose left sides it reduces
        go back to work, those whose right sides it reduces have them
        reduced in place, and its critical pair with each rule (both
        rewrite max(l1, l2)) is queued.  A pair carries relation steps from
        its first side to its second: a critical pair the reversed steps of
        one parent, then the other's; a reduced pair the normal-form steps
        of its sides around its own."""
        rules: List[Rule] = []
        # one pair per distinct relation, from the last index that states it;
        # each may add a rule free of the cap, so the cap grows with the input
        last = {frozenset(rel): idx for idx, rel in enumerate(self.relations) if rel[0] != rel[1]}
        work = [Rule(*self.relations[idx], ((idx, 1),)) for idx in sorted(last.values())]
        cap = self.budget.max_rules + len(work)
        while work:
            l, r, path = work.pop()
            l, to_l = self._reduce(l, rules)
            r, to_r = self._reduce(r, rules)
            if l == r:
                continue
            path = _reverse(to_l) + list(path) + to_r
            if (sum(l), l) < (sum(r), r):  # the degree-lex order
                l, r, path = r, l, _reverse(path)
            if self.stats["rules_added"] >= cap:
                return None
            self.stats["rules_added"] += 1
            new = Rule(l, r, tuple(self._loop_free(l, path)))
            kept, both = [], rules + [new]
            for a, b, steps in rules:
                if all(map(operator.ge, a, l)):
                    work.append(Rule(a, b, steps))
                    continue
                if all(map(operator.ge, b, l)):
                    b, to_b = self._reduce(b, both)
                    steps = tuple(self._loop_free(a, list(steps) + to_b))
                kept.append(Rule(a, b, steps))
            rules = kept
            back = tuple(_reverse(new.steps))
            for a, b, steps in rules:
                # coprime left sides need no pair: both ends rewrite to r + b
                if any(map(min, l, a)):
                    top = tuple(map(max, l, a))
                    left, right = vec_add(vec_sub(top, l), r), vec_add(vec_sub(top, a), b)
                    if left != right:
                        self.stats["critical_pairs"] += 1
                        work.append(Rule(left, right, back + steps))
            rules.append(new)
        return rules

    def _reduce(self, v: Vec, rules: Sequence[Rule]) -> Tuple[Vec, List[Tuple[int, int]]]:
        """The normal form of v under `rules`, and relation steps from v to
        it: a rule applied at x >= lhs replays its steps from x, shifted by
        x - lhs, so no step leaves N^n.  A rule that applies k times in a
        row is applied k times at once."""
        steps: List[Tuple[int, int]] = []
        while True:
            for lhs, rhs, path in rules:
                if all(map(operator.ge, v, lhs)):
                    k = min(x // a for x, a in zip(v, lhs) if a)
                    v = tuple(x + k * (b - a) for x, a, b in zip(v, lhs, rhs))
                    steps.extend(path * k)
                    break
            else:
                return v, steps

    def _loop_free(self, start: Vec, steps: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """steps from start with every loop cut out: from each vector the
        walk goes on from its last visit.  Every path a rule, a monomial or
        a witness carries is made here, and stats counts the longest."""
        if len(steps) < 2:
            return list(steps)
        seen = [start]
        for step in steps:
            seen.append(tuple(map(operator.add, seen[-1], self._deltas[step])))
        last = {x: i for i, x in enumerate(seen)}
        out, i = [], last[start]
        while i < len(steps):
            out.append(steps[i])
            i = last[seen[i + 1]]
        self.stats["longest_path"] = max(self.stats["longest_path"], len(out))
        return out

    def _order_ideal(self, u: Vec, rules: List[Rule]) -> Optional[List[Tuple[Vec, Vec, List]]]:
        """The minimal monomials of I + <x^u>, each as (m, c, p) with
        u + c -> m by the relation steps p, or None when the closure took
        more than max_rules additions.  Memoized per u.

        It starts from NF(u).  Each (monomial m, rule a -> b) pair gives
        NF(max(m, a) - a + b), which is added unless a monomial already
        lies below it, and drops the monomials it lies below.
        """
        if u in self._ideals:
            return self._ideals[u]
        first, path = self._reduce(u, rules)
        mons: Dict[Vec, Tuple[Vec, List]] = {first: (zero_vec(self.n), path)}
        queue = deque((first, rule) for rule in rules)
        added = 0
        while queue:
            m, (a, b, steps) = queue.popleft()
            # a coprime overlap m + b lies above m
            if m not in mons or not any(map(min, m, a)):
                continue
            top = tuple(map(max, m, a))
            nf, to_nf = self._reduce(vec_add(vec_sub(top, a), b), rules)
            if any(vec_geq(nf, x) for x in mons):
                continue
            if added >= self.budget.max_rules:
                self._ideals[u] = None
                return None
            added += 1
            self.stats["monomials_added"] += 1
            c, p = mons[m]
            c = vec_add(c, vec_sub(top, m))
            mons = {x: cp for x, cp in mons.items() if not vec_geq(x, nf)}
            mons[nf] = (c, self._loop_free(vec_add(u, c), p + list(steps) + to_nf))
            queue.extend((nf, rule) for rule in rules)
        self._ideals[u] = [(m, c, p) for m, (c, p) in sorted(mons.items())]
        return self._ideals[u]

    def _assert_complete(self) -> None:
        """Check the completed rules: each replays its steps from lhs to
        rhs and decreases in the degree-lex order, both sides of every
        relation reach one normal form, and every critical pair joins.
        The order is well founded, so by Newman's lemma normal forms are
        unique and decide the congruence.  Nothing here is memoized: the
        audit runs it in full."""
        rules = self._rules
        assert rules is not None, "relations were not completed"
        for lhs, rhs, steps in rules:
            assert self.replay_path(lhs, steps) == rhs, "rule does not replay"
            assert (sum(lhs), lhs) > (sum(rhs), rhs), "rule does not decrease"
        for l, r in self.relations:
            assert self._reduce(l, rules)[0] == self._reduce(r, rules)[0], "relation does not join"
        for i, (l1, r1, _) in enumerate(rules):
            for l2, r2, _ in rules[i + 1:]:
                top = tuple(map(max, l1, l2))
                left = self._reduce(vec_add(vec_sub(top, l1), r1), rules)[0]
                right = self._reduce(vec_add(vec_sub(top, l2), r2), rules)[0]
                assert left == right, "critical pair does not join"

    def _assert_normal_form(self, order: bool, w: dict) -> None:
        """Check a normal_form witness against the completed rules, which
        `_assert_complete` has checked; the caller replays its paths.  Both
        ends are irreducible, and for equality they differ.  For order,
        NF(u) lies above a monomial, NF(v) above none, and every (monomial,
        rule) overlap reduces to a normal form above a monomial: the
        vectors whose normal form lies above a monomial are then closed
        under the congruence and under addition (by induction along the
        order), so they hold every w >= u, and v is not among them."""
        rules = self._rules
        for side in ("left", "right"):
            assert not any(vec_geq(w[side], a) for a, _, _ in rules), f"{side} end is reducible"
        if not order:
            assert w["left"] != w["right"], "normal forms agree"
            return

        def covered(x: Vec) -> bool:
            return any(vec_geq(x, m) for m in w["monomials"])

        assert covered(w["left"]), "left normal form above no monomial"
        assert not covered(w["right"]), "right normal form above a monomial"
        for m in w["monomials"]:
            for a, b, _ in rules:
                top = tuple(map(max, m, a))
                nf = self._reduce(vec_add(vec_sub(top, a), b), rules)[0]
                assert covered(nf), "an overlap leaves the monomials"

    # ----- class closure ------------------------------------------------------

    def class_closure(self, start: Vec, max_members: int = 10000) -> ClassRecord:
        """The class of `start`, searched breadth first up to max_members
        members and memoized per start.  No decision uses it."""
        rec = self._closures.get(start)
        if rec is None:
            members: Dict[Vec, Optional[Tuple[Vec, int, int]]] = {start: None}
            queue = deque([start])
            while queue and len(members) < max_members:
                u = queue.popleft()
                for (idx, direction), delta in self._deltas.items():
                    if vec_geq(u, self.relations[idx][direction < 0]):
                        v = vec_add(u, delta)
                        if v not in members:
                            members[v] = (u, idx, direction)
                            queue.append(v)
            rec = self._closures[start] = ClassRecord(members, not queue)
        return rec

    def replay_path(self, start: Vec, steps: Sequence[Tuple[int, int]]) -> Vec:
        """Apply steps to start, raising if any step is inapplicable."""
        u = tuple(start)
        for idx, direction in steps:
            l, r = self.relations[idx]
            a, b = (l, r) if direction == 1 else (r, l)
            if not vec_geq(u, a):
                raise ValueError(f"path step {idx} inapplicable at {u}")
            u = vec_add(vec_sub(u, a), b)
        return u

    # ----- finite decisions --------------------------------------------------

    def eq_finite(self, u: Vec, v: Vec) -> Decision:
        u, v = tuple(u), tuple(v)
        if u == v:
            return Decision(EQUAL, {"kind": "path", "start": u, "end": v, "steps": []},
                            self.budget)
        diff = vec_sub(u, v)
        for f in self._basis_functionals():
            val = sum(a * b for a, b in zip(f.z, diff))
            if val != 0:
                return Decision(
                    NOT_EQUAL,
                    {"kind": "functional", "y": f.y, "separation": Fraction(val, f.den)},
                    self.budget,
                )
        rules = self._rules
        if rules is None:
            return self._unknown()
        # the common part rides along, so the walks meet sooner; the monoid
        # need not cancel, so only u and v themselves can refute
        common = tuple(map(min, u, v))
        left, to_left = self._reduce(vec_sub(u, common), rules)
        right, to_right = self._reduce(vec_sub(v, common), rules)
        if left != right:
            left, to_left = self._reduce(u, rules)
            right, to_right = self._reduce(v, rules)
        if left == right:
            steps = self._loop_free(u, to_left + _reverse(to_right))
            assert self.replay_path(u, steps) == v
            return Decision(EQUAL, {"kind": "path", "start": u, "end": v, "steps": steps},
                            self.budget)
        return Decision(NOT_EQUAL, {
            "kind": "normal_form", "left": left, "right": right,
            "path_left": self._loop_free(u, to_left), "path_right": self._loop_free(v, to_right),
        }, self.budget)

    def leq_finite(self, u: Vec, v: Vec) -> Decision:
        u, v = tuple(u), tuple(v)
        if vec_geq(v, u):
            return self._domination(u, v, [])
        f = self._nonneg_conserved(vec_sub(u, v))
        if f is not None:
            return Decision(
                NOT_LEQ, {"kind": "functional", "y": f.y, "nonnegative": True}, self.budget
            )
        rules = self._rules
        if rules is None:
            return self._unknown()
        top, to_top = self._reduce(v, rules)
        left, to_left = self._reduce(u, rules)
        # NF(u) lies in the ideal: the closure is needed only when top is not above it
        if vec_geq(top, left):
            return self._domination(u, v, to_top + _reverse(to_left))
        ideal = self._order_ideal(u, rules)
        if ideal is None:
            return self._unknown()
        for m, c, p in ideal:
            if vec_geq(top, m):
                # v -> top = m + (top - m), and back along p to u + c + (top - m)
                return self._domination(u, v, to_top + _reverse(p))
        return Decision(NOT_LEQ, {
            "kind": "normal_form", "monomials": [m for m, _, _ in ideal], "left": left,
            "right": top, "path_left": self._loop_free(u, to_left),
            "path_right": self._loop_free(v, to_top),
        }, self.budget)

    def _domination(self, u: Vec, v: Vec, steps: List[Tuple[int, int]]) -> Decision:
        """u <= v by a path from v to w = u + gamma, gamma >= 0, loops cut out."""
        path = self._loop_free(v, steps)
        w = self.replay_path(v, path)
        gamma = vec_sub(w, u)
        assert min(gamma, default=0) >= 0
        return Decision(LEQ, {"kind": "domination", "w": w, "gamma": gamma, "path": path},
                        self.budget)

    def _unknown(self, exhausted: bool = True, omega: bool = False) -> Decision:
        """Unknown, naming max_rules (counted once) when the budget ran out:
        always for a finite decision, for an omega query when its finite
        decision did."""
        w = {"kind": "budget", "omega": True} if omega else {
            "kind": "budget", "max_rules": self.budget.max_rules}
        w["exhausted"] = ["max_rules"] if exhausted else []
        self.stats["exhausted_max_rules"] += exhausted
        return Decision(UNKNOWN, w, self.budget)

    def _assert_functional(self, y, nonneg: bool = False) -> Tuple[List[int], int]:
        """Check y.(lhs - rhs) = 0 for every relation, and y >= 0 if asked;
        return the integer scaling (z, den) the check used.

        y (Fractions or ints) is scaled by the lcm of its denominators to
        an integer vector z, and z.d = 0 is checked in ints for each
        distinct difference d, read as its sparse row: the same exact test
        as on y, against every difference and not a basis of their span,
        so the check does not rest on the elimination.  Nothing here is
        memoized: the audit runs it in full on every witness.
        """
        z, den = integer_scaling(y)
        assert len(z) == self.n, "functional has the wrong length"
        for row in self._diff_rows:
            s = sum(z[i] * c for i, c in row)
            assert s == 0, "functional does not annihilate a relation"
        if nonneg:
            assert all(c >= 0 for c in y), "order functional not nonnegative"
        return z, den

    # ----- omega machinery ----------------------------------------------------

    def support_closure(self, support: FrozenSet[int]) -> Tuple[FrozenSet[int], dict]:
        """U(support): the least atom set containing `support` such that,
        for every relation (l, r), supp(l) is inside it exactly when
        supp(r) is.

        b is in U(W) exactly when [b] <= k*[W] for some finite k.  The
        certificate maps each added atom, in insertion order, to the
        (relation index, direction) that forced it in: direction 1 when
        supp(lhs) was already inside and supp(rhs) was added, -1 for the
        converse.  Memoized per support.
        """
        support = frozenset(support)
        hit = self._support_memo.get(support)
        if hit is not None:
            return hit
        closed = set(support)
        added: Dict[int, Tuple[int, int]] = {}
        changed = True
        while changed:
            changed = False
            for idx, left, right in self._support_pairs:
                for given, forced, direction in ((left, right, 1), (right, left, -1)):
                    if given <= closed and not forced <= closed:
                        for b in sorted(forced - closed):
                            added[b] = (idx, direction)
                        closed |= forced
                        changed = True
        result = (frozenset(closed), {"added": added})
        self._support_memo[support] = result
        return result

    def normalize(self, v: ExtVec) -> ExtVec:
        """Omega-support closure followed by absorption of trapped finite mass.

        Identity on purely finite vectors; idempotent by construction.
        """
        if v.is_finite():
            return v
        out = self._normal_memo.get(v)
        if out is None:
            closed, _ = self.support_closure(v.omega)
            out = ExtVec(zero_on(v.finite, closed), closed)
            self._normal_memo[v] = out
        return out

    def _quotient(self, U: FrozenSet[int]) -> "Congruence":
        """The congruence with the coordinates in U zeroed in every relation.

        It keeps n and the relation indices.  On vectors zero on U, x ~ y
        there exactly when x + a ~ y + b here for some a, b in N^U: both
        are the congruence generated by the relations and e_u ~ 0 for u in
        U.  It decides under this congruence's budget.  Memoized per U; the
        empty set gives self.
        """
        if not U:
            return self
        quotient = self._quotients.get(U)
        if quotient is None:
            quotient = Congruence(
                self.n,
                [(zero_on(l, U), zero_on(r, U)) for l, r in self.relations],
                self.budget,
            )
            self._quotients[U] = quotient
        return quotient

    def _lift(
        self, start: Vec, steps: Sequence[Tuple[int, int]], U: FrozenSet[int]
    ) -> Tuple[Vec, Vec]:
        """Lift a path of the quotient by U: the least start + a, a in N^U,
        from which every step applies here, and the end it reaches."""
        cur = list(start)
        extra = [0] * self.n
        for idx, direction in steps:
            l, r = self.relations[idx]
            need, give = (l, r) if direction == 1 else (r, l)
            for i in U:
                if cur[i] < need[i]:
                    extra[i] += need[i] - cur[i]
                    cur[i] = need[i]
            cur = [c - a + b for c, a, b in zip(cur, need, give)]
        lifted = vec_add(start, tuple(extra))
        end = tuple(cur)
        assert self.replay_path(lifted, steps) == end
        return lifted, end

    # ----- extended decisions --------------------------------------------------

    def decide_eq(self, p: ExtVec, q: ExtVec) -> Decision:
        if p.n != self.n or q.n != self.n:
            raise SpaceMismatchError("dimension mismatch")
        key = ("eq", p, q)
        hit = self._decision_memo.get(key)
        if hit is None:
            hit = self._decide_eq_impl(p, q)
            self._decision_memo[key] = hit
        return hit

    def _decide_eq_impl(self, p: ExtVec, q: ExtVec) -> Decision:
        pn, qn = self.normalize(p), self.normalize(q)
        if pn.is_finite() and qn.is_finite():
            return self.eq_finite(pn.finite, qn.finite)
        if pn == qn:
            return self._omega_equal(pn.omega, pn.finite, [])
        sep = self._saturating_separation(pn, qn, order=False)
        if sep is None:
            sep = self._support_refutation(p, q, order=False)
        if sep is not None:
            return sep
        # a finite side's omega set is empty, not closed: compare closures
        U = self.support_closure(pn.omega)[0]
        if U != self.support_closure(qn.omega)[0]:
            return self._unknown(False, omega=True)
        pf, qf = zero_on(pn.finite, U), zero_on(qn.finite, U)
        fin = self._quotient(U).eq_finite(pf, qf)
        if fin.verdict != EQUAL:
            return self._unknown(fin.verdict == UNKNOWN, omega=True)
        return self._omega_equal(U, pf, fin.witness["steps"])

    def _omega_equal(self, U: FrozenSet[int], start: Vec, steps: Sequence) -> Decision:
        """Equal under omega on the closed support U, by a path of the
        quotient by U from start, lifted here."""
        start, end = self._lift(start, steps, U)
        return Decision(EQUAL, {
            "kind": "omega_equal", "support": U,
            "finite": {"kind": "path", "start": start, "end": end, "steps": steps},
        }, self.budget)

    def decide_leq(self, p: ExtVec, q: ExtVec) -> Decision:
        if p.n != self.n or q.n != self.n:
            raise SpaceMismatchError("dimension mismatch")
        key = ("leq", p, q)
        hit = self._decision_memo.get(key)
        if hit is None:
            hit = self._decide_leq_impl(p, q)
            self._decision_memo[key] = hit
        return hit

    def _decide_leq_impl(self, p: ExtVec, q: ExtVec) -> Decision:
        pn, qn = self.normalize(p), self.normalize(q)
        if pn.is_finite() and qn.is_finite():
            return self.leq_finite(pn.finite, qn.finite)
        # the finite mass of p under omega on the right is absorbed outright
        V = qn.omega
        pf = zero_on(pn.finite, V)
        # Domination first.  With p's omega set inside V and pf at most
        # q's finite part, p <= q, so no functional or support separates
        # them, U(V) = V holds p's omega set, and the route below reaches
        # the quotient's `leq_finite`, whose first test is this same
        # domination: an empty path, lifted to itself.  So the witness is
        # the one that route gives, without its separation searches or the
        # quotient.  V is not empty here, as p and q are not both finite.
        if pn.omega <= V and vec_geq(qn.finite, pf):
            return self._omega_leq(pn, qn, pf, [])
        sep = self._saturating_separation(pn, qn, order=True)
        if sep is None:
            sep = self._support_refutation(p, q, order=True)
        if sep is not None:
            return sep
        # V is closed when q has omega mass; when q is finite, U(V) = U(empty)
        # holds the atoms worth nothing, and p's omega set must lie inside it
        if not pn.omega <= self.support_closure(V)[0]:
            return self._unknown(False, omega=True)
        fin = self._quotient(V).leq_finite(pf, qn.finite)
        if fin.verdict != LEQ:
            return self._unknown(fin.verdict == UNKNOWN, omega=True)
        return self._omega_leq(pn, qn, pf, fin.witness["path"])

    def _omega_leq(self, pn: ExtVec, qn: ExtVec, pf: Vec, path: List) -> Decision:
        """pn <= qn under omega on V = qn.omega, by a domination path of the
        quotient by V from qn's finite part above pf, lifted here."""
        V = qn.omega
        U = self.support_closure(V)[0]
        under = {i: pn.finite[i] for i in sorted(V) if pn.finite[i]}
        start, top = self._lift(qn.finite, path, V)
        return Decision(LEQ, {
            "kind": "omega_leq", "support": U, "under_omega": under,
            "finite": {"kind": "domination", "start": start, "w": top,
                       "gamma": vec_sub(zero_on(top, U), zero_on(pf, U)), "path": path},
        }, self.budget)

    def _support_refutation(self, p: ExtVec, q: ExtVec, order: bool) -> Optional[Decision]:
        """A closed support U = U(supp q) with an atom of p outside it.

        The measure 0 on the atoms of U and infinity elsewhere is
        stationary and gives q the value 0 and p the value infinity, so
        p <= q fails.  For equality the two sides are also tried swapped.
        """
        sides = [(p, q)] if order else [(p, q), (q, p)]
        for x, y in sides:
            closed, _ = self.support_closure(y.support())
            outside = sorted(x.support() - closed)
            if outside:
                return Decision(
                    NOT_LEQ if order else NOT_EQUAL,
                    {"kind": "support", "closed": closed, "outside": outside},
                    self.budget,
                )
        return None

    def _saturating_separation(
        self, pn: ExtVec, qn: ExtVec, order: bool
    ) -> Optional[Decision]:
        """Nonnegative conserved functional separating under saturation.

        Each candidate asks for a y >= 0, conserved, with y.positive >= 1
        and y zero on a set, and any such y separates.  Positive on p's
        omega set W and zero on q's, V, gives val(p) = inf > val(q);
        zero on W and V with y.(p - q) >= 1 gives finite values with
        val(p) > val(q).  For equality the swapped candidates are tried
        too; for order (p <= q refuted) only these two apply.
        """
        W, V = pn.omega, qn.omega
        candidates: List[Tuple[Vec, FrozenSet[int]]] = []
        if W:
            candidates.append((indicator(self.n, W), V))
        if not order and V:
            candidates.append((indicator(self.n, V), W))
        candidates.append((vec_sub(pn.finite, qn.finite), W | V))
        if not order:
            candidates.append((vec_sub(qn.finite, pn.finite), W | V))
        for positive, zero in candidates:
            f = self._nonneg_conserved(positive, zero_coords=zero)
            if f is not None:
                return Decision(
                    NOT_LEQ if order else NOT_EQUAL,
                    {
                        "kind": "functional",
                        "y": f.y,
                        "nonnegative": True,
                        "value_left": self.functional_value(f, pn),
                        "value_right": self.functional_value(f, qn),
                    },
                    self.budget,
                )
        return None
