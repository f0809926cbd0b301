import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typemonoid.errors import CarrierMismatchError, ClosureCapError
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
        data, elems = closure([], carrier=3)
        assert data.order == 1
        assert elems == [PartialBijection.identity(3)]

    def test_single_transposition(self):
        t = pb(2, {0: 1, 1: 0})
        data, elems = closure([t], carrier=2)
        assert data.order == 2
        assert data.mul[1][1] == 0

    def test_cap_exceeded(self):
        t = pb(3, {0: 1})
        with pytest.raises(ClosureCapError):
            closure([t, pb(3, {1: 2}), pb(3, {2: 0})], carrier=3, cap=3)

    def test_closure_is_star_closed(self):
        data, elems = closure([pb(3, {0: 1}), pb(3, {1: 2, 2: 1})], carrier=3)
        index = {f: i for i, f in enumerate(elems)}
        for f in elems:
            assert invert(f) in index


class TestSymmetricInverseMonoid:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 7), (3, 34)])
    def test_orders(self, n, expected):
        data, elems = symmetric_inverse_monoid(n)
        assert data.order == expected
        assert len(set(elems)) == expected

    def test_unit_is_identity_map(self):
        data, elems = symmetric_inverse_monoid(2)
        assert elems[data.unit] == PartialBijection.identity(2)

    def test_table_agrees_with_composition(self):
        data, elems = symmetric_inverse_monoid(2)
        index = {f: i for i, f in enumerate(elems)}
        for i, f in enumerate(elems):
            for j, g in enumerate(elems):
                assert data.mul[i][j] == index[compose(f, g)]
