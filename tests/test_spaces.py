import itertools
import random

import pytest

from conftest import structure_spaces
from structure_oracle import (
    reference_action,
    reference_morphism,
    tampered_action,
    tampered_fstar,
    tampered_table,
)
from typemonoid.corpus import (
    collapse_space,
    corpus_morphism_pairs,
    cyclic4_space,
    fixture_spaces,
    one_point_space,
    parity_shadow_morphism,
    parity_space,
    parity_to_two_point_morphism,
    random_corpus,
    sink_space,
    statspace_from_maps,
    statspace_from_partial_maps,
    two_point_space,
)
from typemonoid.errors import NotMeasurableError, SpaceMismatchError
from typemonoid.monoid import InverseMonoidTable
from typemonoid.partial_bijection import PartialBijection
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

    def test_atom_of_point(self):
        sp = build_space(["0", "1", "2"], [[2], [0, 1]])
        assert [sp.atom_of_point(p) for p in range(3)] == [1, 1, 0]
        # no wrap-around from the end of the points
        for p in (-1, 3):
            with pytest.raises(ValueError, match="not in any atom"):
                sp.atom_of_point(p)


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
        ss = StatSpace.from_table(space, bad_table, ((0, 1), (0, 0)))
        rep = validate_action(ss)
        assert not rep.homomorphism
        assert rep.homomorphism_witness == (1, 1)
        assert not rep.valid

    def test_unit_violation(self):
        space = build_space(["0", "1"], [[0], [1]])
        table = InverseMonoidTable(order=1, unit=0, mul=((0,),))
        ss = StatSpace.from_table(space, table, ((0, 0),))
        rep = validate_action(ss)
        assert not rep.unit_acts_as_identity

    def test_measurability_violation(self):
        space = build_space(["0", "1", "2"], [[0, 1], [2]])
        table = InverseMonoidTable(
            order=2, unit=0, mul=((0, 1), (1, 1)), labels=("1", "s")
        )
        # s fixes 0 but moves 1 into the other atom: preimage of atom 0 is {0}
        ss = StatSpace.from_table(space, table, ((0, 1, 2), (0, 2, 2)))
        rep = validate_action(ss)
        assert not rep.measurable
        assert rep.measurability_witness == (1, 0)
        with pytest.raises(NotMeasurableError, match=r"element s splits atom 0\+1") as err:
            ss.atom_map(1)
        assert err.value.atom == 0

    def test_totality_violation(self):
        space = build_space(["0"], [[0]])
        table = InverseMonoidTable(order=1, unit=0, mul=((0,),))
        ss = StatSpace.from_table(space, table, ((5,),))
        assert not validate_action(ss).valid


def assert_action_agrees(ss):
    """validate_action against the reference: validity always, each law
    wherever its reduction applies.  Returns the new report."""
    got, want = validate_action(ss), reference_action(ss)
    assert got.valid == want.valid and got.total == want.total
    assert got.monoid == want.monoid
    if want.total and want.monoid.associative and want.monoid.unit_ok:
        assert got.unit_acts_as_identity == want.unit_acts_as_identity
        if want.unit_acts_as_identity:
            assert got.homomorphism == want.homomorphism
            if want.homomorphism:
                assert got.measurable == want.measurable
    return got


def coarsened(ss):
    """A table-given copy of ss with atoms 0 and 1 merged."""
    atoms = [ss.space.atoms[0] | ss.space.atoms[1], *ss.space.atoms[2:]]
    space = build_space(ss.space.points, atoms)
    return StatSpace.from_table(space, ss.monoid, ss.action)


class TestActionReference:
    """validate_action checks the laws on generators; the reference
    checks every pair and every element."""

    def test_corpora_agree(self):
        for name, ss in structure_spaces():
            assert assert_action_agrees(ss).valid, name

    def test_tampered_copies_agree(self):
        rng = random.Random(28)
        failed = {"monoid": 0, "homomorphism": 0, "measurable": 0}
        for name, ss in structure_spaces():
            copies = []
            if len(ss.space.points) > 1:
                copies += [tampered_action(ss, rng) for _ in range(3)]
            if ss.monoid.order > 1:
                copies += [StatSpace.from_table(ss.space, tampered_table(ss.monoid, rng), ss.action)
                           for _ in range(3)]
            if ss.n_atoms > 1:
                copies.append(coarsened(ss))
            for copy in copies:
                rep = assert_action_agrees(copy)
                failed["monoid"] += not rep.monoid.valid
                failed["homomorphism"] += not rep.homomorphism
                failed["measurable"] += not rep.measurable
        assert min(failed.values()) > 50, failed

    def test_tampered_product_stops_after_the_monoid_report(self):
        # parity's table with g1 * g1 = g1 instead of the unit: the action
        # laws are stated over a monoid, so only the reference goes on to
        # report the product's action
        ss = parity_space()
        mul = [list(row) for row in ss.monoid.mul]
        mul[1][1] = 1
        bad = InverseMonoidTable(4, 0, tuple(map(tuple, mul)), ss.monoid.labels)
        copy = StatSpace.from_table(ss.space, bad, ss.action)
        got, want = validate_action(copy), reference_action(copy)
        assert not got.valid and not got.monoid.associative and got.homomorphism
        assert not want.valid and want.homomorphism_witness == (1, 1)

    def test_tampered_image_is_caught(self):
        # collapse with e acting as the swap: the table says e e = e,
        # but the swap twice is the identity
        ss = collapse_space()
        copy = StatSpace.from_table(ss.space, ss.monoid, ((0, 1), (1, 0)))
        for rep in (validate_action(copy), reference_action(copy)):
            assert not rep.valid and rep.monoid.valid and not rep.homomorphism

    def test_split_atom_is_caught(self):
        # parity with atoms 0 and 1 merged: the swap of 0 and 2 splits it
        copy = coarsened(parity_space())
        for rep in (validate_action(copy), reference_action(copy)):
            assert not rep.valid and rep.homomorphism and not rep.measurable


class TestPresentation:
    def test_generators_are_the_first_elements(self):
        # the closure numbers its seed first, so generator k is element k
        # before and after the table is closed
        ss = parity_space()
        assert ss.unit == 0 and ss.generators == (1, 2)
        maps = [ss.atom_map(s) for s in (0, 1, 2)]
        assert "_closed" not in vars(ss)
        assert ss.action[:3] == ((0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1))
        assert ss.monoid.labels[:3] == ("1", "g1", "g2")
        assert maps == [ss.atom_map(s) for s in (0, 1, 2)]

    def test_equality_reads_the_input(self):
        def shift(partial, sink=2):
            if partial:
                f = PartialBijection.from_dict(3, {0: 1})
                return statspace_from_partial_maps(["0", "1", "s"], [[0], [1], [2]], [f], sink)
            return statspace_from_maps(["0", "1", "s"], [[0], [1], [2]], [(1, 2, 2)])

        a, b, total = shift(True), shift(True), shift(False)
        assert a == b and hash(a) == hash(b) and total != a
        assert all("_closed" not in vars(ss) for ss in (a, b, total))
        # the same totalized map closes to a different table: the partial
        # one closes the map with its inverse
        assert (total.monoid.order, a.monoid.order) == (3, 6)


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
        for b in range(2):
            with pytest.raises(NotMeasurableError, match="morphism splits atom 0\\+1"):
                m.preimage_atoms(b)

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


def assert_morphism_agrees(m):
    """validate_morphism against the reference: validity always, each law
    wherever its reduction applies.  Returns the new report."""
    got, want = validate_morphism(m), reference_morphism(m)
    assert got.valid == want.valid
    assert (got.point_map_total, got.measurable, got.fstar_unit) == (
        want.point_map_total, want.measurable, want.fstar_unit)
    if want.fstar_unit:
        assert got.fstar_homomorphism == want.fstar_homomorphism
        if want.fstar_homomorphism:
            assert got.equivariant == want.equivariant
    return got


class TestMorphismReference:
    """validate_morphism checks fstar and equivariance on the target's
    generators; the reference checks every pair and every element."""

    @staticmethod
    def _morphisms():
        out = [parity_to_two_point_morphism(), parity_shadow_morphism()]
        for m2, m1 in corpus_morphism_pairs(random_corpus(seed=7)):
            out += [m1, m2, compose_morphisms(m2, m1)]
        return out + [identity_morphism(ss) for _, ss in structure_spaces()]

    def test_fixtures_and_identities_agree(self):
        for m in self._morphisms():
            assert assert_morphism_agrees(m).valid

    def test_tampered_fstar_agrees(self):
        rng = random.Random(28)
        failed = {"unit": 0, "homomorphism": 0, "equivariant": 0}
        for m in self._morphisms():
            if m.source.monoid.order == 1:
                continue
            for _ in range(4):
                rep = assert_morphism_agrees(tampered_fstar(m, rng))
                failed["unit"] += not rep.fstar_unit
                failed["homomorphism"] += not rep.fstar_homomorphism
                failed["equivariant"] += not rep.equivariant
        assert min(failed.values()) > 50, failed

    def test_tampered_fstar_product_is_caught(self):
        # the parity shadow with fstar(s3) = g1: g1 g2 = s3 in the
        # target, but fstar(g1) fstar(g2) = s3 in the source
        m = parity_shadow_morphism()
        fstar = list(m.fstar)
        fstar[3] = fstar[1]
        bad = StatMorphism(m.source, m.target, m.point_map, tuple(fstar))
        for rep in (validate_morphism(bad), reference_morphism(bad)):
            assert not rep.valid and rep.fstar_unit and not rep.fstar_homomorphism

    def test_equivariance_failure_is_caught(self):
        # onto the swap of two points with fstar constant at the unit: a
        # homomorphism, but preimages do not swap
        src = parity_space()
        m = StatMorphism(src, swap_two_point_space(), (0, 1, 0, 1), (0, 0))
        for rep in (validate_morphism(m), reference_morphism(m)):
            assert not rep.valid and rep.fstar_homomorphism and not rep.equivariant


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
