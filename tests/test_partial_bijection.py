from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import differential_spaces
from typemonoid import corpus, partial_bijection
from typemonoid.errors import CarrierMismatchError, ClosureCapError
from typemonoid.monoid import InverseMonoidTable
from typemonoid.partial_bijection import (
    PartialBijection,
    all_partial_bijections,
    closure,
    compose,
    invert,
    is_compatible,
    symmetric_inverse_monoid,
    union_graph_is_injective,
)


def pb(carrier, mapping):
    return PartialBijection.from_dict(carrier, mapping)


def union_compatible(maps):
    """Union of a pairwise compatible family: compatible partial
    bijections glue into one."""
    for i, f in enumerate(maps):
        for g in maps[i + 1 :]:
            if not is_compatible(f, g):
                raise ValueError(f"maps {f.pairs} and {g.pairs} clash")
    merged = {}
    for f in maps:
        merged.update(f.pairs)
    return PartialBijection.from_dict(maps[0].carrier, merged)


def _pairwise_closure(seed, product, cap):
    """Reference for monoid_closure: the same discovery order, recomputing
    a product every time a pair is met, then once more for the table."""
    elements, index = [], {}
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
    return InverseMonoidTable(order=order, unit=0, mul=mul), elements


def partial_bijections(carrier=3):
    return st.sampled_from(all_partial_bijections(carrier))


class TestBasics:
    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            pb(3, {0: 1, 2: 1})

    def test_rejects_out_of_carrier(self):
        with pytest.raises(ValueError):
            pb(2, {0: 2})

    def test_compose_example(self):
        # carrier 2, f = {0->1}, g = {1->0}: g after f is {0->0}
        f = pb(2, {0: 1})
        g = pb(2, {1: 0})
        assert compose(g, f) == pb(2, {0: 0})

    def test_compose_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            compose(pb(2, {}), pb(3, {}))

    def test_invert_swaps_pairs(self):
        f = pb(3, {0: 2, 1: 0})
        assert invert(f) == pb(3, {2: 0, 0: 1})

    @given(partial_bijections(), partial_bijections())
    def test_weak_inverse_laws(self, f, g):
        fstar = invert(f)
        assert compose(compose(f, fstar), f) == f
        assert compose(compose(fstar, f), fstar) == fstar
        assert invert(fstar) == f
        # contravariance of inversion over products
        assert invert(compose(f, g)) == compose(invert(g), invert(f))

    @given(partial_bijections())
    def test_idempotents_are_restricted_identities(self, f):
        e = compose(invert(f), f)
        assert e.is_idempotent()
        assert e.domain == f.domain


class TestCompatibility:
    @given(partial_bijections(), partial_bijections())
    def test_matches_union_graph_oracle(self, f, g):
        assert is_compatible(f, g) == union_graph_is_injective(f, g)

    def test_union_of_compatible_family(self):
        f = pb(3, {0: 1})
        g = pb(3, {2: 0})
        u = union_compatible([f, g])
        assert u == pb(3, {0: 1, 2: 0})

    def test_union_rejects_incompatible(self):
        with pytest.raises(ValueError, match="clash"):
            union_compatible([pb(2, {0: 0}), pb(2, {0: 1})])

    @given(partial_bijections(), partial_bijections())
    def test_union_inverse_is_inverse_of_union(self, f, g):
        if not is_compatible(f, g):
            return
        u = union_compatible([f, g])
        assert union_compatible([invert(f), invert(g)]) == invert(u)


class TestClosure:
    def test_empty_generators_give_identity_monoid(self):
        table, elems = closure([], carrier=3)
        assert table.order == 1
        assert elems == [PartialBijection.identity(3)]

    def test_single_transposition(self):
        t = pb(2, {0: 1, 1: 0})
        table, elems = closure([t], carrier=2)
        assert table.order == 2
        assert table.mul[1][1] == 0

    def test_cap_exceeded(self):
        t = pb(3, {0: 1})
        with pytest.raises(ClosureCapError):
            closure([t, pb(3, {1: 2}), pb(3, {2: 0})], carrier=3, cap=3)

    def test_closure_is_star_closed(self):
        _, elems = closure([pb(3, {0: 1}), pb(3, {1: 2, 2: 1})], carrier=3)
        index = {f: i for i, f in enumerate(elems)}
        for f in elems:
            assert invert(f) in index


    def test_table_matches_the_pairwise_reference(self, monkeypatch):
        # every closure behind the fixtures, the query spaces and the
        # random corpora numbers its elements and fills its table as the
        # reference does, and gives up at the same cap
        real = partial_bijection.monoid_closure
        closed = []

        def checked(seed, product, cap):
            try:
                got = real(seed, product, cap)
            except ClosureCapError as err:
                with pytest.raises(ClosureCapError) as ref:
                    _pairwise_closure(seed, product, cap)
                assert ref.value.args == err.args
                raise
            assert got == _pairwise_closure(seed, product, cap)
            closed.append(got[0].order)
            return got

        monkeypatch.setattr(partial_bijection, "monoid_closure", checked)
        monkeypatch.setattr(corpus, "monoid_closure", checked)
        spaces = differential_spaces()
        assert len(closed) >= len(spaces) and max(closed) > 8


class TestSymmetricInverseMonoid:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 7), (3, 34)])
    def test_orders(self, n, expected):
        table, elems = symmetric_inverse_monoid(n)
        assert table.order == expected
        assert len(set(elems)) == expected

    def test_unit_is_identity_map(self):
        table, elems = symmetric_inverse_monoid(2)
        assert elems[table.unit] == PartialBijection.identity(2)

    def test_table_agrees_with_composition(self):
        table, elems = symmetric_inverse_monoid(2)
        index = {f: i for i, f in enumerate(elems)}
        for i, f in enumerate(elems):
            for j, g in enumerate(elems):
                assert table.mul[i][j] == index[compose(f, g)]
