import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typemonoid.errors import InvalidTableError
from typemonoid.monoid import (
    InverseMonoidTable,
    check_inverse_monoid,
    natural_partial_order,
    trivial_monoid,
    wagner_preston,
)
from typemonoid.partial_bijection import (
    PartialBijection,
    all_partial_bijections,
    closure,
    compose,
    invert,
    symmetric_inverse_monoid,
)


def table_of(data):
    return InverseMonoidTable(data.order, data.unit, data.mul)


def table_of_closure(gens, carrier):
    data, elems = closure(gens, carrier)
    return table_of(data), elems


def cyclic_group(n):
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return InverseMonoidTable(order=n, unit=0, mul=mul)


def two_element_semilattice():
    # {1, e} with e e = e
    return InverseMonoidTable(order=2, unit=0, mul=((0, 1), (1, 1)), labels=("1", "e"))


def flip_flop():
    # {1, c0, c1} with c_i c_j = c_i: a left zero band plus a unit
    mul = ((0, 1, 2), (1, 1, 1), (2, 2, 2))
    return InverseMonoidTable(order=3, unit=0, mul=mul, labels=("1", "c0", "c1"))


def random_closure_tables(seed=7, count=20, carrier=3):
    import random

    rng = random.Random(seed)
    pool = all_partial_bijections(carrier)
    tables = []
    while len(tables) < count:
        gens = rng.sample(pool, rng.randint(1, 2))
        try:
            data, elems = closure(gens, carrier, cap=40)
        except Exception:
            continue
        if data.order <= 16:
            tables.append((table_of(data), elems))
    return tables


class TestCheck:
    def test_groups_are_valid_with_group_inverse_star(self):
        for n in (1, 2, 3, 5):
            rep = check_inverse_monoid(cyclic_group(n))
            assert rep.valid
            for x in range(n):
                assert rep.star[x] == (-x) % n

    def test_semilattice_valid_self_star(self):
        rep = check_inverse_monoid(two_element_semilattice())
        assert rep.valid
        assert rep.star == (0, 1)

    def test_flip_flop_invalid(self):
        rep = check_inverse_monoid(flip_flop())
        assert not rep.valid
        assert not rep.idempotents_commute
        assert not rep.unique_weak_inverse
        assert rep.star is None

    def test_symmetric_inverse_monoid_valid(self):
        data, elems = symmetric_inverse_monoid(3)
        rep = check_inverse_monoid(table_of(data))
        assert rep.valid
        # star must be the map-level inversion
        for i, f in enumerate(elems):
            assert elems[rep.star[i]] == invert(f)

    def test_non_associative_detected(self):
        # (1*2)*2 = 0 but 1*(2*2) = 1
        mul = ((0, 1, 2), (1, 1, 2), (2, 1, 0))
        bad = InverseMonoidTable(order=3, unit=0, mul=mul)
        rep = check_inverse_monoid(bad)
        assert not rep.valid
        assert not rep.associative
        assert rep.assoc_witness is not None
        a, b, c = rep.assoc_witness
        assert mul[mul[a][b]][c] != mul[a][mul[b][c]]

    def test_idempotent_of_star(self):
        # e* = e for idempotents; (s*)* = s for all s
        for table, _ in random_closure_tables(count=5):
            rep = check_inverse_monoid(table)
            assert rep.valid
            for e in rep.idempotents:
                assert rep.star[e] == e
            for s in range(table.order):
                assert rep.star[rep.star[s]] == s

    def test_star_antihomomorphism(self):
        for table, _ in random_closure_tables(seed=11, count=5):
            rep = check_inverse_monoid(table)
            for a in range(table.order):
                for b in range(table.order):
                    ab = table.mul[a][b]
                    assert rep.star[ab] == table.mul[rep.star[b]][rep.star[a]]


class TestNaturalPartialOrder:
    def test_requires_valid_table(self):
        with pytest.raises(InvalidTableError):
            natural_partial_order(flip_flop())

    def test_i2_examples(self):
        data, elems = symmetric_inverse_monoid(2)
        table = table_of(data)
        leq = natural_partial_order(table)
        empty = elems.index(PartialBijection.empty(2))
        swap = elems.index(PartialBijection.from_dict(2, {0: 1, 1: 0}))
        below = elems.index(PartialBijection.from_dict(2, {0: 1}))
        for x in range(table.order):
            assert leq[empty][x]
        assert leq[below][swap]
        assert not leq[swap][below]

    def test_order_is_graph_inclusion_in_i3(self):
        data, elems = symmetric_inverse_monoid(3)
        table = table_of(data)
        leq = natural_partial_order(table)
        for i, f in enumerate(elems):
            for j, g in enumerate(elems):
                assert leq[i][j] == (set(f.pairs) <= set(g.pairs))

    def test_equivalent_characterizations(self):
        for table, _ in random_closure_tables(seed=3, count=8):
            rep = check_inverse_monoid(table)
            leq = natural_partial_order(table)
            mul, star = table.mul, rep.star
            for s in range(table.order):
                for t in range(table.order):
                    alt1 = s == mul[mul[s][star[s]]][t]  # s = (s s*) t
                    alt2 = s == mul[mul[t][star[s]]][s]  # s = t s* s
                    assert leq[s][t] == alt1 == alt2
                    if leq[s][t]:
                        assert leq[star[s]][star[t]]

    def test_partial_order_axioms(self):
        for table, _ in random_closure_tables(seed=5, count=5):
            leq = natural_partial_order(table)
            n = table.order
            for a in range(n):
                assert leq[a][a]
                for b in range(n):
                    if leq[a][b] and leq[b][a]:
                        assert a == b
                    for c in range(n):
                        if leq[a][b] and leq[b][c]:
                            assert leq[a][c]

    def test_idempotent_meet_is_glb(self):
        # the meet of two idempotents is their product
        for table, _ in random_closure_tables(seed=13, count=5):
            rep = check_inverse_monoid(table)
            leq = natural_partial_order(table)
            for e in rep.idempotents:
                for f in rep.idempotents:
                    m = table.mul[e][f]
                    assert m in rep.idempotents
                    assert leq[m][e] and leq[m][f]
                    for g in rep.idempotents:
                        if leq[g][e] and leq[g][f]:
                            assert leq[g][m]


class TestWagnerPreston:
    def test_two_element_semilattice(self):
        table = two_element_semilattice()
        phi = wagner_preston(table)
        assert phi[1] == PartialBijection.from_dict(2, {1: 1})
        assert phi[0] == PartialBijection.identity(2)

    def test_z2_is_regular_representation(self):
        phi = wagner_preston(cyclic_group(2))
        assert phi[0] == PartialBijection.identity(2)
        assert phi[1] == PartialBijection.from_dict(2, {0: 1, 1: 0})

    def check_representation(self, table):
        phi = wagner_preston(table)
        leq = natural_partial_order(table)
        n = table.order
        assert len({phi[s] for s in range(n)}) == n  # injective assignment
        for s in range(n):
            for t in range(n):
                assert phi[table.mul[s][t]] == compose(phi[s], phi[t])
                order = leq[s][t]
                assert order == (set(phi[s].pairs) <= set(phi[t].pairs))

    def test_fixture_tables(self):
        self.check_representation(two_element_semilattice())
        self.check_representation(cyclic_group(3))
        data, _ = symmetric_inverse_monoid(2)
        self.check_representation(table_of(data))

    def test_random_tables(self):
        for table, _ in random_closure_tables(seed=17, count=10):
            self.check_representation(table)

    def test_trivial(self):
        phi = wagner_preston(trivial_monoid())
        assert phi[0] == PartialBijection.identity(1)
