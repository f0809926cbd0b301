import pytest

from typemonoid.certificates import (
    Certificate,
    HalfLine,
    builtin_f2_duplication,
    builtin_galileo,
    certificate_mutations,
    identity_certificate,
    verify_certificate,
)
from typemonoid.errors import MalformedCertificateError
from typemonoid.words import (
    dfa_all,
    dfa_difference,
    dfa_first_letter,
    dfa_intersect,
    dfa_star,
    dfa_union,
    dfa_word,
    reduce_word,
    reduced_words_upto,
)
from typemonoid.zsets import ep_all, ep_evens, ep_odds, ep_set


class TestFiniteCertificates:
    def test_identity_z(self):
        rep = verify_certificate(identity_certificate("zperiodic"))
        assert rep.ok and not rep.problems

    def test_identity_f2(self):
        rep = verify_certificate(identity_certificate("f2"))
        assert rep.ok

    def test_even_odd_translation(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(ep_all(),),
            pieces=((0, ep_evens()), (0, ep_odds())),
            moves=((1, 0, ep_odds()), (-1, 0, ep_evens())),
        )
        rep = verify_certificate(cert)
        assert rep.ok
        assert rep.details["replayed_points"] == 81

    def test_wrong_move_equation_localized(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(ep_all(),),
            pieces=((0, ep_evens()), (0, ep_odds())),
            moves=((1, 0, ep_evens()), (-1, 0, ep_evens())),
        )
        rep = verify_certificate(cert)
        assert not rep.ok
        assert any("move equation fails for piece 0" in p for p in rep.problems)

    def test_overlap_localized(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(ep_all(),),
            pieces=((0, ep_all()), (0, ep_odds())),
            moves=((0, 0), (0, 0)),
        )
        rep = verify_certificate(cert)
        assert not rep.ok
        assert any("pieces 0 and 1 overlap" in p for p in rep.problems)

    def test_malformed_shapes(self):
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                Certificate("zperiodic", (ep_all(),), (ep_all(),), ((0, ep_all()),), ())
            )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                Certificate(
                    "zperiodic", (ep_all(),), (ep_all(),), ((2, ep_all()),), ((0, 0),)
                )
            )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                Certificate(
                    "f2", (dfa_all(),), (dfa_all(),), ((0, dfa_all()),), (("aA", 0),)
                )
            )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                Certificate("sphere", (ep_all(),), (ep_all(),), (), ())
            )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(
                Certificate(
                    "zperiodic",
                    (HalfLine(0),),
                    (HalfLine(0),),
                    ((0, ep_all()),),
                    ((0, 0),),
                )
            )

    def test_piece_reordering_invariance(self):
        base = builtin_f2_duplication()
        order = [2, 0, 3, 1]
        cert = Certificate(
            "f2",
            base.left,
            base.right,
            tuple(base.pieces[i] for i in order),
            tuple(base.moves[i] for i in order),
        )
        assert verify_certificate(cert).ok

    def test_refinement_invariance(self):
        # splitting a piece in two, keeping the mover, stays accepted
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(ep_all(),),
            pieces=(
                (0, ep_set(4, [0])),
                (0, ep_set(4, [2])),
                (0, ep_odds()),
            ),
            moves=((1, 0), (1, 0), (-1, 0)),
        )
        assert verify_certificate(cert).ok
        base = builtin_f2_duplication()
        a3 = base.pieces[2][1]
        split = (
            dfa_intersect(a3, dfa_word("b")),
            dfa_difference(a3, dfa_word("b")),
        )
        cert2 = Certificate(
            "f2",
            base.left,
            base.right,
            base.pieces[:2] + ((0, split[0]), (0, split[1])) + base.pieces[3:],
            base.moves[:2] + (("", 1), ("", 1)) + base.moves[3:],
        )
        assert verify_certificate(cert2).ok


class TestGalileo:
    def test_builtin_verifies(self):
        rep = verify_certificate(builtin_galileo())
        assert rep.ok and not rep.problems
        assert rep.details["schema"] == "interleave"
        assert rep.details["window_covered"] == 2001
        assert rep.details["duplication"] is True

    def test_single_copy_covers_only_evens(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(ep_all(),),
            pieces={"name": "interleave", "multiplier": 2, "offsets": (0,)},
        )
        rep = verify_certificate(cert, window=50)
        assert not rep.ok
        assert any("not covered" in p for p in rep.problems)

    def test_collision_mutation(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(), ep_all()),
            right=(ep_all(),),
            pieces={"name": "interleave", "multiplier": 2, "offsets": (0, 2)},
        )
        rep = verify_certificate(cert, window=50)
        assert not rep.ok
        assert any("collide" in p for p in rep.problems)

    def test_window_parameter(self):
        rep = verify_certificate(builtin_galileo(), window=10)
        assert rep.ok and rep.details["window_covered"] == 21

    def test_negative_window_or_replay_size_is_refused(self):
        # a negative window covers nothing, so it would verify unchecked
        for kw in ({"window": -3}, {"replay_size": -1}):
            with pytest.raises(ValueError, match="must be nonnegative"):
                verify_certificate(builtin_galileo(), **kw)


class TestTailShift:
    def test_halfline_shift(self):
        cert = Certificate(
            "zperiodic",
            left=(HalfLine(0),),
            right=(HalfLine(1),),
            pieces={"name": "tail_shift", "start": 0, "shift": 1},
        )
        rep = verify_certificate(cert, window=100)
        assert rep.ok and not rep.problems

    def test_negative_shift(self):
        cert = Certificate(
            "zperiodic",
            left=(HalfLine(5),),
            right=(HalfLine(2),),
            pieces={"name": "tail_shift", "start": 5, "shift": -3},
        )
        assert verify_certificate(cert, window=60).ok

    def test_bad_declared_image(self):
        cert = Certificate(
            "zperiodic",
            left=(HalfLine(0),),
            right=(HalfLine(0),),
            pieces={"name": "tail_shift", "start": 0, "shift": 1},
        )
        rep = verify_certificate(cert, window=30)
        assert not rep.ok

    def test_needs_halflines(self):
        cert = Certificate(
            "zperiodic",
            left=(ep_all(),),
            right=(HalfLine(1),),
            pieces={"name": "tail_shift", "start": 0, "shift": 1},
        )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(cert)

    def test_unknown_schema(self):
        cert = Certificate(
            "zperiodic", (ep_all(),), (ep_all(),), {"name": "rotation"}, ()
        )
        with pytest.raises(MalformedCertificateError):
            verify_certificate(cert)


class TestF2Duplication:
    def test_builtin_verifies(self):
        rep = verify_certificate(builtin_f2_duplication())
        assert rep.ok and not rep.problems
        assert rep.details["duplication"] is True
        assert "paradox" in " ".join(rep.details.keys()) or rep.details["paradox_witness"]

    def test_pieces_partition_whole(self):
        base = builtin_f2_duplication()
        u = None
        for _, piece in base.pieces:
            u = piece if u is None else dfa_union(u, piece)
        assert u == dfa_all()

    def test_spine_identity(self):
        # a . (W(a-1) minus nonempty inverse powers) fills everything
        # outside W(a) and the spine
        a1 = dfa_union(dfa_first_letter("a"), dfa_star("A"))
        a2 = dfa_difference(
            dfa_first_letter("A"), dfa_difference(dfa_star("A"), dfa_word(""))
        )
        from typemonoid.words import left_translate

        assert left_translate(a2, "a") == dfa_difference(dfa_all(), a1)

    def test_word_level_replay(self):
        # every short reduced word lands in exactly one piece, and in
        # exactly one moved image per right copy
        base = builtin_f2_duplication()
        for w in reduced_words_upto(5):
            assert sum(piece.accepts(w) for _, piece in base.pieces) == 1
        from typemonoid.words import invert_word

        for w in reduced_words_upto(4):
            for copy in (0, 1):
                hits = sum(
                    1
                    for ((mv, cp, _), (_, piece)) in zip(base.moves, base.pieces)
                    if cp == copy and piece.accepts(reduce_word(invert_word(mv) + w))
                )
                assert hits == 1, (w, copy)


class TestMutations:
    def test_registry_size(self):
        assert len(certificate_mutations()) == 20
        names = [name for name, _ in certificate_mutations()]
        assert len(set(names)) == 20

    @pytest.mark.parametrize("name,cert", certificate_mutations(), ids=lambda v: v if isinstance(v, str) else "")
    def test_every_mutation_rejected(self, name, cert):
        rep = verify_certificate(cert, window=200)
        assert not rep.ok, name
        assert rep.problems, name
