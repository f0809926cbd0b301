"""The completion oracle itself, then agreement with the engine."""

import itertools

import pytest

from conftest import differential_spaces
from oracle_kb import CongruenceOracle, OracleError, oracle_for_space, relations_from_space
from typemonoid.congruence import EQUAL, Congruence
from typemonoid.corpus import fixture_spaces, random_corpus
from typemonoid.types import TypeEngine


class TestCompletion:
    def test_no_relations_is_syntactic_equality(self):
        o = CongruenceOracle(2, [])
        assert o.eq((1, 2), (1, 2))
        assert not o.eq((1, 2), (2, 1))

    def test_single_swap(self):
        # a ~ b collapses to counting total multiplicity
        o = CongruenceOracle(2, [((1, 0), (0, 1))])
        assert o.eq((3, 1), (0, 4))
        assert not o.eq((3, 1), (3, 0))

    def test_absorbing_relation(self):
        # a ~ a + b: b is null next to a, but alone it is not
        o = CongruenceOracle(2, [((1, 0), (1, 1))])
        assert o.eq((1, 0), (1, 5))
        assert o.eq((2, 3), (2, 0))
        assert not o.eq((0, 1), (0, 0))

    def test_interreduction_shrinks_rules(self):
        # the redundant doubled relation must not survive completion
        o = CongruenceOracle(2, [((1, 0), (0, 1)), ((2, 0), (0, 2))])
        assert len(o.rules) == 1

    def test_nonconfluent_pair_completes(self):
        # x ~ y and x ~ z force y ~ z through a critical pair
        o = CongruenceOracle(
            3, [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1))]
        )
        assert o.eq((0, 1, 0), (0, 0, 1))

    def test_rule_cap_is_honest(self):
        with pytest.raises(OracleError):
            CongruenceOracle(
                2, [((1, 0), (0, 1)), ((2, 0), (1, 1))], max_rules=0
            )

    def test_confluence_spot_check(self):
        o = CongruenceOracle(2, [((1, 0), (0, 1))])
        samples = [(i, j) for i in range(4) for j in range(4)]
        assert o.confluent_on(samples)


class TestRelationExtraction:
    def test_generator_basis_generates_every_move(self):
        # the engine keeps only generator moves; the oracle derives every
        # (element, atom) move from the raw action, and the two must
        # present the same congruence
        for name, ss in differential_spaces():
            n, rels = relations_from_space(ss)
            assert n == ss.n_atoms
            eng = TypeEngine(ss)
            lib = {(r.lhs, r.rhs) for r in eng.relations}
            assert len(lib) == len(eng.relations), name
            assert all(l != r for l, r in lib), name
            assert lib <= set(rels), name
            for lhs, rhs in rels:
                if lhs == rhs:
                    continue
                d = eng.decide_equal(lhs, rhs)
                assert d.verdict == EQUAL and d.witness["kind"] == "path", (name, lhs, rhs)
                eng._audit_path(lhs, d.witness["steps"], rhs)
            full = Congruence(n, rels)
            if n <= 6:
                for k in range(n + 1):
                    for subset in itertools.combinations(range(n), k):
                        U = frozenset(subset)
                        assert (eng.congruence.support_closure(U)[0]
                                == full.support_closure(U)[0]), (name, U)
            assert eng.congruence.conserved_basis() == full.conserved_basis(), name
            assert eng.congruence.conserved_rays() == full.conserved_rays(), name


def _pairs(n: int, top: int):
    vecs = list(itertools.product(range(top + 1), repeat=n))
    for i, p in enumerate(vecs):
        for q in vecs[i:]:
            yield p, q


class TestAgreementWithEngine:
    @pytest.mark.parametrize("name", ["collapse", "two_point", "one_point", "sink"])
    def test_fixture_agreement(self, name):
        ss = fixture_spaces()[name]
        if ss.n_atoms > 3:
            pytest.skip("box too large")
        eng = TypeEngine(ss)
        oracle = oracle_for_space(ss)
        for p, q in _pairs(ss.n_atoms, 3):
            d = eng.decide_equal(eng.abar(p), eng.abar(q))
            assert d.is_definite(), (name, p, q)
            assert (d.verdict == EQUAL) == oracle.eq(p, q), (name, p, q)

    def test_random_space_agreement_sample(self):
        entries = [
            e for e in random_corpus(seed=77, count=30) if e.statspace.n_atoms <= 3
        ]
        assert len(entries) >= 5
        for entry in entries[:8]:
            ss = entry.statspace
            eng = TypeEngine(ss)
            oracle = oracle_for_space(ss)
            for p, q in _pairs(ss.n_atoms, 2):
                d = eng.decide_equal(eng.abar(p), eng.abar(q))
                assert d.is_definite()
                assert (d.verdict == EQUAL) == oracle.eq(p, q), (entry.name, p, q)
