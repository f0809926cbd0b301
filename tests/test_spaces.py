import itertools

import pytest

from typemonoid.corpus import (
    collapse_space,
    cyclic4_space,
    fixture_spaces,
    one_point_space,
    parity_shadow_morphism,
    parity_space,
    parity_to_two_point_morphism,
    sink_space,
    statspace_from_maps,
    two_point_space,
)
from typemonoid.errors import SpaceMismatchError
from typemonoid.monoid import InverseMonoidTable
from typemonoid.spaces import (
    StatMorphism,
    StatSpace,
    build_space,
    compose_morphisms,
    identity_morphism,
    pullback,
    validate_action,
    validate_morphism,
    with_trivial_symmetry,
)


def swap_two_point_space() -> StatSpace:
    return statspace_from_maps(
        points=["even", "odd"], atoms=[[0], [1]], generators=[(1, 0)],
        gen_labels=["s"],
    )


class TestBuildSpace:
    def test_one_point(self):
        sp = build_space(["0"], [[0]])
        assert sp.n_atoms == 1

    def test_parity_carrier(self):
        sp = parity_space().space
        assert sp.n_atoms == 4
        assert sp.atom_labels == ("0", "1", "2", "3")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_space(["0", "1"], [[0, 1], [1]])

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            build_space(["0", "1"], [[0]])

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            build_space(["0"], [[0], []])

    def test_all_measurable_sets(self):
        sp = build_space(["0", "1"], [[0], [1]])
        assert len(sp.all_measurable_sets()) == 4


class TestValidateAction:
    def test_fixtures_valid(self):
        for name, ss in fixture_spaces().items():
            rep = validate_action(ss)
            assert rep.valid, (name, rep)

    def test_parity_monoid_is_klein_four(self):
        ss = parity_space()
        assert ss.monoid.order == 4
        # every element is an involution
        for s in range(4):
            assert ss.monoid.mul[s][s] == ss.monoid.unit

    def test_collapse_homomorphism_violation(self):
        # same maps as the collapse fixture, but the table claims e*e = 1
        space = build_space(["0", "1"], [[0], [1]])
        bad_table = InverseMonoidTable(
            order=2, unit=0, mul=((0, 1), (1, 0)), labels=("1", "e")
        )
        ss = StatSpace(space=space, monoid=bad_table, action=((0, 1), (0, 0)))
        rep = validate_action(ss)
        assert not rep.homomorphism
        assert rep.homomorphism_witness == (1, 1)
        assert not rep.valid

    def test_unit_violation(self):
        space = build_space(["0", "1"], [[0], [1]])
        table = InverseMonoidTable(order=1, unit=0, mul=((0,),))
        ss = StatSpace(space=space, monoid=table, action=((0, 0),))
        rep = validate_action(ss)
        assert not rep.unit_acts_as_identity

    def test_measurability_violation(self):
        space = build_space(["0", "1", "2"], [[0, 1], [2]])
        table = InverseMonoidTable(
            order=2, unit=0, mul=((0, 1), (1, 1)), labels=("1", "s")
        )
        # s fixes 0 but moves 1 into the other atom: preimage of atom 0 is {0}
        ss = StatSpace(space=space, monoid=table, action=((0, 1, 2), (0, 2, 2)))
        rep = validate_action(ss)
        assert not rep.measurable
        assert rep.measurability_witness == (1, 0)

    def test_totality_violation(self):
        space = build_space(["0"], [[0]])
        table = InverseMonoidTable(order=1, unit=0, mul=((0,),))
        ss = StatSpace(space=space, monoid=table, action=((5,),))
        assert not validate_action(ss).valid


class TestPullback:
    def test_unit_is_identity(self):
        ss = parity_space()
        for aset in ss.space.all_measurable_sets():
            assert pullback(ss, ss.monoid.unit, aset) == aset

    def test_collapse_examples(self):
        ss = collapse_space()
        e = 1
        assert pullback(ss, e, frozenset({0})) == frozenset({0, 1})
        assert pullback(ss, e, frozenset({1})) == frozenset()

    def test_parity_swap(self):
        ss = parity_space()
        g1 = next(
            s for s in range(4) if ss.action[s] == (2, 1, 0, 3)
        )
        assert pullback(ss, g1, frozenset({0})) == frozenset({2})
        assert pullback(ss, g1, frozenset({1})) == frozenset({1})

    def test_product_rule_on_fixtures(self):
        # preimage under st = preimage under t of preimage under s
        for ss in fixture_spaces().values():
            sets = ss.space.all_measurable_sets()
            for s in range(ss.monoid.order):
                for t in range(ss.monoid.order):
                    st = ss.monoid.mul[s][t]
                    for aset in sets:
                        assert pullback(ss, st, aset) == pullback(
                            ss, t, pullback(ss, s, aset)
                        )

    def test_preserves_disjoint_union_and_complement(self):
        ss = sink_space()
        full = frozenset(range(ss.n_atoms))
        for s in range(ss.monoid.order):
            for aset in ss.space.all_measurable_sets():
                comp = full - aset
                pa, pc = pullback(ss, s, aset), pullback(ss, s, comp)
                assert pa & pc == frozenset()
                assert pa | pc == full


class TestMorphisms:
    def test_identity_valid(self):
        for ss in fixture_spaces().values():
            assert validate_morphism(identity_morphism(ss)).valid

    def test_parity_to_two_point_valid(self):
        m = parity_to_two_point_morphism()
        assert validate_morphism(m).valid
        assert m.preimage_atoms(0) == frozenset({0, 2})
        assert m.preimage_atoms(1) == frozenset({1, 3})

    def test_parity_shadow_valid_nontrivial_fstar(self):
        m = parity_shadow_morphism()
        rep = validate_morphism(m)
        assert rep.valid
        assert len(set(m.fstar)) == 4

    def test_broken_equivariance_reported(self):
        # target carries the honest swap action but fstar maps it to a
        # parity-preserving source element, so preimages disagree
        src = parity_space()
        tgt = swap_two_point_space()
        m = StatMorphism(
            source=src,
            target=tgt,
            point_map=(0, 1, 0, 1),
            fstar=(src.monoid.unit, src.monoid.unit),
        )
        rep = validate_morphism(m)
        assert not rep.fstar_homomorphism or not rep.equivariant
        assert not rep.valid
        assert rep.equivariance_witness is not None or rep.fstar_witness is not None

    def test_fstar_unit_violation(self):
        src = parity_space()
        g1 = next(s for s in range(4) if src.action[s] == (2, 1, 0, 3))
        tgt = two_point_space()
        m = StatMorphism(
            source=src, target=tgt, point_map=(0, 1, 0, 1), fstar=(g1,)
        )
        rep = validate_morphism(m)
        assert not rep.fstar_unit

    def test_non_measurable_point_map(self):
        src = with_trivial_symmetry(build_space(["0", "1"], [[0, 1]]))
        tgt = two_point_space()
        m = StatMorphism(source=src, target=tgt, point_map=(0, 1), fstar=(0,))
        rep = validate_morphism(m)
        assert not rep.measurable
        assert rep.measurability_witness == 0

    def test_compose_to_constant(self):
        m1 = parity_to_two_point_morphism()
        m2 = StatMorphism(
            source=m1.target,
            target=one_point_space(),
            point_map=(0, 0),
            fstar=(0,),
        )
        c = compose_morphisms(m2, m1)
        assert c.point_map == (0, 0, 0, 0)
        assert validate_morphism(c).valid

    def test_compose_with_identity(self):
        m = parity_to_two_point_morphism()
        assert compose_morphisms(identity_morphism(m.target), m).point_map == m.point_map
        assert compose_morphisms(m, identity_morphism(m.source)).fstar == m.fstar

    def test_endpoint_mismatch(self):
        m = parity_to_two_point_morphism()
        with pytest.raises(SpaceMismatchError):
            compose_morphisms(m, m)


class TestTrivialSymmetry:
    def test_one_point(self):
        ss = one_point_space()
        assert ss.monoid.order == 1
        assert validate_action(ss).valid

    def test_hom_count_into_trivialized_target(self):
        # maps between 2-point discrete spaces = morphisms into the
        # trivialized target, coupled with the unique fstar
        src = two_point_space()
        tgt = two_point_space()
        valid = 0
        for pm in itertools.product(range(2), repeat=2):
            m = StatMorphism(source=src, target=tgt, point_map=pm, fstar=(0,))
            if validate_morphism(m).valid:
                valid += 1
        assert valid == 4

    def test_trivialized_source_constrains_point_maps(self):
        # with a trivial source monoid the forced fstar is constant-unit,
        # so only maps whose preimages are blind to the target action pass
        src = two_point_space()
        tgt = collapse_space()
        accepted = []
        for pm in itertools.product(range(2), repeat=2):
            m = StatMorphism(
                source=src, target=tgt, point_map=pm,
                fstar=(src.monoid.unit, src.monoid.unit),
            )
            if validate_morphism(m).valid:
                accepted.append(pm)
        assert accepted == [(0, 0)]


class TestAtomMap:
    def test_collapse(self):
        ss = collapse_space()
        assert ss.atom_map(0) == (0, 1)
        assert ss.atom_map(1) == (0, 0)

    def test_cyclic4(self):
        ss = cyclic4_space()
        r = next(s for s in range(4) if ss.action[s] == (1, 2, 3, 0))
        assert ss.atom_map(r) == (1, 2, 3, 0)
