"""Machine-checkable equidecomposition certificates over two infinite
symbolic backends: eventually periodic subsets of the integers moved by
translations, and regular languages of reduced words moved by free-group
left multiplication.

A certificate asserts that the tagged disjoint union of its left wholes
is equidecomposable with that of its right wholes: the pieces partition
the left side, and each piece moved by its group element lands in a
declared right copy, the images partitioning the right side.  When the
right side is two copies of the left whole the certificate witnesses a
duplication, the set-level shape of a paradoxical set.

Two verification routes run on every finite certificate and are never
collapsed into one: the symbolic route decides the partition and move
equations inside the backend algebra, and a concrete replay re-checks
everything pointwise on a sample (an integer window, or all short
reduced words).  Infinite families of pieces come from a fixed schema
catalog; each catalog entry carries an analytic bijection argument in
its checker plus a mandatory window validation.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .errors import MalformedCertificateError
from .words import (
    dfa_all,
    dfa_difference,
    dfa_equivalent,
    dfa_first_letter,
    dfa_intersect,
    dfa_star,
    dfa_union,
    dfa_word,
    invert_word,
    is_reduced,
    left_translate,
    reduce_word,
    reduced_words_upto,
)
from .zsets import (
    EventuallyPeriodicZSet,
    ep_all,
    ep_difference,
    ep_intersect,
    ep_translate,
    ep_union,
)

__all__ = [
    "HalfLine",
    "Certificate",
    "CertificateReport",
    "verify_certificate",
    "builtin_galileo",
    "builtin_f2_duplication",
    "identity_certificate",
    "certificate_mutations",
    "SCHEMA_CATALOG",
]


@dataclass(frozen=True)
class HalfLine:
    """The set {n : n >= start}; only schema certificates may use it as
    a whole, since it is not eventually periodic in both directions."""

    start: int

    def __contains__(self, n: int) -> bool:
        return n >= self.start


ZWhole = Union[EventuallyPeriodicZSet, HalfLine]


@dataclass(frozen=True)
class Certificate:
    backend: str
    left: Tuple
    right: Tuple
    pieces: Union[Tuple, Dict]
    moves: Tuple = ()

    @property
    def is_schema(self) -> bool:
        return isinstance(self.pieces, dict)


@dataclass
class CertificateReport:
    ok: bool = True
    problems: List[str] = field(default_factory=list)
    details: Dict = field(default_factory=dict)

    def flag(self, msg: str) -> None:
        self.ok = False
        self.problems.append(msg)


# ---------------------------------------------------------------------------
# Backend adapters: the symbolic route and the pointwise route share
# this table but use disjoint entries (algebra vs membership)


class _ZBackend:
    name = "zperiodic"
    whole = staticmethod(ep_all)

    @staticmethod
    def check_mover(m) -> bool:
        return isinstance(m, int) and not isinstance(m, bool)

    union = staticmethod(ep_union)
    intersect = staticmethod(ep_intersect)
    difference = staticmethod(ep_difference)

    @staticmethod
    def empty(x) -> bool:
        return x.is_empty()

    @staticmethod
    def equal(x, y) -> bool:
        return x == y

    @staticmethod
    def move(x, m):
        return ep_translate(x, m)

    @staticmethod
    def sample(size: int):
        return list(range(-size, size + 1))

    @staticmethod
    def member(x, point) -> bool:
        return point in x

    @staticmethod
    def moved_member(piece, m, point) -> bool:
        # pointwise: point lies in the translate iff its preimage lies
        # in the piece; no backend algebra involved
        return (point - m) in piece


class _F2Backend:
    name = "f2"
    whole = staticmethod(dfa_all)

    @staticmethod
    def check_mover(m) -> bool:
        return isinstance(m, str) and is_reduced(m)

    union = staticmethod(dfa_union)
    intersect = staticmethod(dfa_intersect)
    difference = staticmethod(dfa_difference)

    @staticmethod
    def empty(x) -> bool:
        return x.is_empty()

    equal = staticmethod(dfa_equivalent)

    @staticmethod
    def move(x, m):
        return left_translate(x, m)

    @staticmethod
    def sample(size: int):
        return list(reduced_words_upto(size))

    @staticmethod
    def member(x, word) -> bool:
        return x.accepts(word)

    @staticmethod
    def moved_member(piece, m, word) -> bool:
        return piece.accepts(reduce_word(invert_word(m) + word))


_BACKENDS = {"zperiodic": _ZBackend, "f2": _F2Backend}


def _get_backend(cert: Certificate):
    if cert.backend not in _BACKENDS:
        raise MalformedCertificateError(f"unknown backend {cert.backend!r}")
    return _BACKENDS[cert.backend]


def _check_finite_shape(cert: Certificate, bk) -> None:
    if len(cert.moves) != len(cert.pieces):
        raise MalformedCertificateError(
            f"{len(cert.pieces)} pieces but {len(cert.moves)} moves"
        )
    for i, entry in enumerate(cert.pieces):
        copy, _ = entry
        if not (0 <= copy < len(cert.left)):
            raise MalformedCertificateError(f"piece {i}: left copy {copy} out of range")
    for i, entry in enumerate(cert.moves):
        mover, to = entry[0], entry[1]
        if not bk.check_mover(mover):
            raise MalformedCertificateError(f"move {i}: bad mover {mover!r}")
        if not (0 <= to < len(cert.right)):
            raise MalformedCertificateError(f"move {i}: right copy {to} out of range")
    for side, wholes in (("left", cert.left), ("right", cert.right)):
        for c, w in enumerate(wholes):
            if isinstance(w, HalfLine):
                raise MalformedCertificateError(
                    f"{side} copy {c}: half-line wholes need a schema certificate"
                )


def _partition_check(bk, report, tagged, wholes, side: str) -> None:
    for copy, w in enumerate(wholes):
        mine = [(i, x) for (i, c, x) in tagged if c == copy]
        for j, (i, x) in enumerate(mine):
            for i2, x2 in mine[j + 1 :]:
                if not bk.empty(bk.intersect(x, x2)):
                    report.flag(f"{side} copy {copy}: pieces {i} and {i2} overlap")
        cover = None
        for _, x in mine:
            cover = x if cover is None else bk.union(cover, x)
        if cover is None:
            if not bk.empty(w):
                report.flag(f"{side} copy {copy}: no piece covers a nonempty whole")
            continue
        if not bk.empty(bk.difference(w, cover)):
            report.flag(f"{side} copy {copy}: pieces do not cover the whole")
        if not bk.empty(bk.difference(cover, w)):
            report.flag(f"{side} copy {copy}: pieces spill outside the whole")


def _verify_finite(cert: Certificate, report: CertificateReport, replay_size: int):
    bk = _get_backend(cert)
    _check_finite_shape(cert, bk)

    left_tagged = [(i, c, x) for i, (c, x) in enumerate(cert.pieces)]
    _partition_check(bk, report, left_tagged, cert.left, "left")

    images = []
    for i, ((_, piece), entry) in enumerate(zip(cert.pieces, cert.moves)):
        mover, to = entry[0], entry[1]
        img = bk.move(piece, mover)
        if len(entry) > 2 and entry[2] is not None:
            if not bk.equal(img, entry[2]):
                report.flag(f"move equation fails for piece {i}")
            img = entry[2]
        images.append((i, to, img))
    _partition_check(bk, report, images, cert.right, "right")

    # pointwise replay: the independent second route
    replayed = 0
    for pt in bk.sample(replay_size):
        for copy, w in enumerate(cert.left):
            hits = [
                i
                for (i, c, x) in left_tagged
                if c == copy and bk.member(x, pt)
            ]
            want = 1 if bk.member(w, pt) else 0
            if len(hits) != want:
                report.flag(
                    f"replay: point {pt!r} hit {len(hits)} left pieces in copy {copy}"
                )
        for copy, w in enumerate(cert.right):
            hits = [
                i
                for i, ((_, piece), entry) in enumerate(zip(cert.pieces, cert.moves))
                if entry[1] == copy and bk.moved_member(piece, entry[0], pt)
            ]
            want = 1 if bk.member(w, pt) else 0
            if len(hits) != want:
                report.flag(
                    f"replay: point {pt!r} hit {len(hits)} images in copy {copy}"
                )
        replayed += 1
        if not report.ok and len(report.problems) > 20:
            break
    report.details["replayed_points"] = replayed
    report.details["pieces"] = len(cert.pieces)


# ---------------------------------------------------------------------------
# Schema catalog


def _whole_as_halfline(w) -> Optional[int]:
    return w.start if isinstance(w, HalfLine) else None


def _check_interleave(cert: Certificate, report: CertificateReport, window: int):
    """Pieces are the singletons {n} of each left copy d, each moved by
    translation to k*n + offset_d.  This is a bijection from the tagged
    union onto the integers exactly when there is one offset per residue
    class mod k: injectivity because kn + c = kn' + c' forces c = c'
    (mod k) and then n = n', surjectivity because every m lies in some
    class.  The window check replays both facts on [-N, N]."""
    schema = cert.pieces
    k = schema.get("multiplier")
    offsets = tuple(schema.get("offsets", ()))
    if not isinstance(k, int) or k < 1:
        raise MalformedCertificateError("interleave: bad multiplier")
    if len(offsets) != len(cert.left):
        raise MalformedCertificateError(
            "interleave: one offset per left copy required"
        )
    if len(cert.right) != 1:
        raise MalformedCertificateError("interleave: right side must be one copy")
    if len(cert.left) != k:
        report.flag(f"interleave: {len(cert.left)} copies cannot fill {k} classes")
    if len({c % k for c in offsets}) != len(offsets):
        report.flag("interleave: offsets collide mod multiplier")
    for d, w in enumerate(cert.left):
        if not isinstance(w, EventuallyPeriodicZSet) or w != ep_all():
            report.flag(f"interleave: left copy {d} is not the whole line")
    rw = cert.right[0]
    if not isinstance(rw, EventuallyPeriodicZSet) or rw != ep_all():
        report.flag("interleave: right whole is not the whole line")

    seen = {}
    for d, c in enumerate(offsets):
        for n in range(-window, window + 1):
            m = k * n + c
            if m in seen:
                report.flag(f"interleave window: images collide at {m}")
                break
            seen[m] = (d, n)
        else:
            continue
        break
    misses = [m for m in range(-window, window + 1) if m not in seen]
    if misses:
        report.flag(f"interleave window: {misses[0]} not covered")
    report.details["window_covered"] = len(
        [m for m in range(-window, window + 1) if m in seen]
    )


def _check_tail_shift(cert: Certificate, report: CertificateReport, window: int):
    """One piece, the half-line {n >= start}, moved by a translation.
    A translation restricted to a half-line is a bijection onto the
    shifted half-line; the only thing to check is that the declared
    wholes are exactly the schema's domain and image, plus the window
    replay."""
    schema = cert.pieces
    start = schema.get("start")
    shift = schema.get("shift")
    if not isinstance(start, int) or not isinstance(shift, int):
        raise MalformedCertificateError("tail_shift: start and shift must be ints")
    if len(cert.left) != 1 or len(cert.right) != 1:
        raise MalformedCertificateError("tail_shift: one copy on each side")
    ls = _whole_as_halfline(cert.left[0])
    rs = _whole_as_halfline(cert.right[0])
    if ls is None or rs is None:
        raise MalformedCertificateError("tail_shift: wholes must be half-lines")
    if ls != start:
        report.flag(f"tail_shift: left whole starts at {ls}, schema at {start}")
    if rs != start + shift:
        report.flag(
            f"tail_shift: right whole starts at {rs}, image starts at {start + shift}"
        )
    hits = 0
    for n in range(-window, window + 1):
        in_left = n in cert.left[0]
        if in_left != (n >= start):
            report.flag(f"tail_shift window: domain disagrees at {n}")
            break
        if in_left:
            if (n + shift) not in cert.right[0]:
                report.flag(f"tail_shift window: image {n + shift} outside right whole")
                break
            hits += 1
    for m in range(-window, window + 1):
        if m in cert.right[0] and (m - shift) not in cert.left[0]:
            report.flag(f"tail_shift window: {m} in right whole but not an image")
            break
    report.details["window_covered"] = hits


SCHEMA_CATALOG = {
    "interleave": _check_interleave,
    "tail_shift": _check_tail_shift,
}


def _verify_schema(cert: Certificate, report: CertificateReport, window: int):
    if cert.backend != "zperiodic":
        raise MalformedCertificateError("schema certificates are integer-backed")
    if cert.moves:
        raise MalformedCertificateError("schema certificates carry implied moves")
    name = cert.pieces.get("name")
    if name not in SCHEMA_CATALOG:
        raise MalformedCertificateError(f"unknown schema {name!r}")
    report.details["schema"] = name
    report.details["window"] = window
    SCHEMA_CATALOG[name](cert, report, window)


def verify_certificate(
    cert: Certificate, window: int = 1000, replay_size: Optional[int] = None
) -> CertificateReport:
    """Replay a certificate and report every violated condition.

    Finite certificates get the symbolic partition and move-equation
    checks plus the pointwise replay (integer window of `replay_size`,
    default 40; reduced words up to length `replay_size`, default 5).
    Schema certificates get their catalog checker with the [-window,
    window] validation.  A negative window or replay_size raises
    ValueError: it would check nothing."""
    if window < 0 or (replay_size is not None and replay_size < 0):
        raise ValueError(f"window and replay_size must be nonnegative, "
                         f"got {window} and {replay_size}")
    report = CertificateReport()
    if cert.is_schema:
        _verify_schema(cert, report, window)
    else:
        if replay_size is None:
            replay_size = 40 if cert.backend == "zperiodic" else 5
        _verify_finite(cert, report, replay_size)
    if report.ok:
        _note_duplication(cert, report)
    return report


def _note_duplication(cert: Certificate, report: CertificateReport) -> None:
    # a verified certificate matching one whole against two copies of it
    # (either way round) exhibits the whole as equidecomposable with two
    # copies of itself: the set is paradoxical
    bk = _get_backend(cert)
    one, two = None, None
    if len(cert.left) == 1 and len(cert.right) == 2:
        one, two = cert.left[0], cert.right
    elif len(cert.left) == 2 and len(cert.right) == 1:
        one, two = cert.right[0], cert.left
    if one is None or isinstance(one, HalfLine) or any(
        isinstance(w, HalfLine) for w in two
    ):
        return
    if all(bk.equal(w, one) for w in two):
        report.details["duplication"] = True
        report.details["paradox_witness"] = (
            "whole = piecewise image of itself twice over; "
            "two copies of its class embed in the class itself"
        )


# ---------------------------------------------------------------------------
# Built-in certificates


def identity_certificate(backend: str = "zperiodic") -> Certificate:
    if backend == "zperiodic":
        return Certificate("zperiodic", (ep_all(),), (ep_all(),), ((0, ep_all()),), ((0, 0),))
    return Certificate("f2", (dfa_all(),), (dfa_all(),), ((0, dfa_all()),), (("", 0),))


def builtin_galileo() -> Certificate:
    """Two copies of the integers interleave onto one: copy c sends n
    to 2n + c, filling the even and odd classes separately."""
    return Certificate(
        backend="zperiodic",
        left=(ep_all(), ep_all()),
        right=(ep_all(),),
        pieces={"name": "interleave", "multiplier": 2, "offsets": (0, 1)},
    )


def _f2_pieces():
    w_a = dfa_first_letter("a")
    w_ai = dfa_first_letter("A")
    w_b = dfa_first_letter("b")
    w_bi = dfa_first_letter("B")
    tail = dfa_star("A")  # inverse-generator powers, the shifted spine
    a1 = dfa_union(w_a, tail)
    a2 = dfa_difference(w_ai, dfa_difference(tail, dfa_word("")))
    return a1, a2, w_b, w_bi


def builtin_f2_duplication() -> Certificate:
    """The four-piece free-group duplication.  Words starting with the
    first generator, padded with the inverse-power spine, give half the
    group after translating the complementary piece; the second
    generator does the same for the other copy."""
    a1, a2, a3, a4 = _f2_pieces()
    whole = dfa_all()
    return Certificate(
        backend="f2",
        left=(whole,),
        right=(whole, whole),
        pieces=((0, a1), (0, a2), (0, a3), (0, a4)),
        moves=(
            ("", 0, a1),
            ("a", 0, dfa_difference(whole, a1)),
            ("", 1, a3),
            ("b", 1, dfa_difference(whole, a3)),
        ),
    )


# ---------------------------------------------------------------------------
# Mutation registry: twenty systematic corruptions, each expected to
# verify false with a localized diagnostic


def _galileo_with(**kw) -> Certificate:
    base = builtin_galileo()
    schema = dict(base.pieces)
    schema.update(kw.pop("schema", {}))
    return Certificate(
        backend="zperiodic",
        left=kw.get("left", base.left),
        right=kw.get("right", base.right),
        pieces=schema,
    )


def _tail_shift_cert(start=0, shift=1, left_start=None, right_start=None) -> Certificate:
    return Certificate(
        backend="zperiodic",
        left=(HalfLine(left_start if left_start is not None else start),),
        right=(HalfLine(right_start if right_start is not None else start + shift),),
        pieces={"name": "tail_shift", "start": start, "shift": shift},
    )


def _f2_with(pieces=None, moves=None, left=None, right=None) -> Certificate:
    base = builtin_f2_duplication()
    return Certificate(
        backend="f2",
        left=left or base.left,
        right=right or base.right,
        pieces=tuple(pieces) if pieces is not None else base.pieces,
        moves=tuple(moves) if moves is not None else base.moves,
    )


def certificate_mutations():
    """Twenty named corruptions of valid certificates (schema parameter
    damage, dropped or duplicated pieces, wrong movers, misdeclared
    wholes); every one of them must be rejected."""
    from .zsets import ep_evens, ep_odds

    a1, a2, a3, a4 = _f2_pieces()
    whole = dfa_all()
    base = builtin_f2_duplication()
    out = []

    out.append(
        ("galileo-same-offset", _galileo_with(schema={"offsets": (0, 0)}))
    )
    out.append(
        ("galileo-offsets-collide-mod", _galileo_with(schema={"offsets": (0, 2)}))
    )
    out.append(
        (
            "galileo-missing-copy",
            _galileo_with(schema={"offsets": (0,)}, left=(ep_all(),)),
        )
    )
    out.append(
        ("galileo-wrong-multiplier", _galileo_with(schema={"multiplier": 3}))
    )
    out.append(("galileo-right-too-small", _galileo_with(right=(ep_evens(),))))
    out.append(
        ("galileo-left-not-whole", _galileo_with(left=(ep_all(), ep_odds())))
    )
    out.append(
        ("galileo-both-offsets-odd", _galileo_with(schema={"offsets": (1, 3)}))
    )
    out.append(
        (
            "galileo-extra-copy",
            _galileo_with(
                schema={"offsets": (0, 1, 2)}, left=(ep_all(), ep_all(), ep_all())
            ),
        )
    )
    out.append(("tailshift-right-start-low", _tail_shift_cert(right_start=0)))
    out.append(("tailshift-right-start-high", _tail_shift_cert(right_start=2)))
    out.append(("tailshift-left-start-off", _tail_shift_cert(left_start=1)))
    out.append(
        ("tailshift-zero-shift-mismatch", _tail_shift_cert(shift=0, right_start=1))
    )
    out.append(
        (
            "f2-drop-piece",
            _f2_with(pieces=base.pieces[:3], moves=base.moves[:3]),
        )
    )
    out.append(
        (
            "f2-wrong-mover",
            _f2_with(moves=(base.moves[0], ("b", 0, None)) + base.moves[2:]),
        )
    )
    out.append(
        (
            "f2-overlapping-pieces",
            _f2_with(pieces=((0, a1), (0, dfa_first_letter("A")), (0, a3), (0, a4))),
        )
    )
    naive = (
        (0, dfa_first_letter("a")),
        (0, dfa_first_letter("A")),
        (0, dfa_first_letter("b")),
        (0, dfa_first_letter("B")),
        (0, dfa_word("")),
    )
    out.append(
        (
            "f2-naive-five-piece",
            _f2_with(
                pieces=naive,
                moves=(("", 0), ("a", 0), ("", 1), ("b", 1), ("", 0)),
            ),
        )
    )
    out.append(
        (
            "f2-wrong-image",
            _f2_with(moves=base.moves[:2] + (("", 1, dfa_first_letter("a")),) + base.moves[3:]),
        )
    )
    out.append(
        (
            "f2-swapped-movers",
            _f2_with(moves=(("a", 0, None), ("", 0, None)) + base.moves[2:]),
        )
    )
    out.append(
        ("f2-left-whole-too-small", _f2_with(left=(dfa_union(dfa_first_letter("a"), dfa_first_letter("b")),)))
    )
    out.append(
        (
            "f2-duplicate-piece",
            _f2_with(
                pieces=base.pieces + ((0, a3),),
                moves=base.moves + (("b", 1, None),),
            ),
        )
    )
    assert len(out) == 20
    return tuple(out)
