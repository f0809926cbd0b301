"""File formats: spaces, set expressions, and certificates.

Space files are JSON: `points` (labels), `atoms` (lists of point
indices or labels), and either an explicit `monoid` table with an
`action` map, or `generators` given as point maps, total or partial
with a designated sink point that undefined points go to.  A space keeps
its generators, and closes them into a table only where every element
is needed (`spaces.StatSpace`).
Set expressions on the command line are comma-separated atom indices
or atom labels; the empty string is the empty set.

Certificate files mirror the symbolic backends: integer sets as
`{"mod": M, "residues": [...], "add": [...], "remove": [...]}` or
`{"halfline": n}`, word languages as regular expressions over
`a A b B` (with `%` for the empty word) or as `{"op": ..., "args":
[...]}` trees over them.
"""

import json
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Tuple

from .certificates import Certificate, HalfLine
from .congruence import jsonable
from .corpus import statspace_from_maps, statspace_from_partial_maps
from .errors import MalformedCertificateError, TypemonoidError
from .monoid import InverseMonoidTable
from .partial_bijection import PartialBijection
from .spaces import StatSpace, build_space
from .words import compile_word_regex, dfa_complement, dfa_difference, dfa_intersect, dfa_union
from .zsets import ep_set

__all__ = [
    "SpaceFormatError",
    "load_space",
    "space_from_dict",
    "parse_set_expr",
    "load_certificate",
    "certificate_from_dict",
    "fixture_space_dict",
    "report_to_json",
]


class SpaceFormatError(TypemonoidError):
    """Input file does not describe a space; the message locates the field."""


def _fail(where: str, why: str):
    raise SpaceFormatError(f"{where}: {why}")


@contextmanager
def _field(where: str, error: type = SpaceFormatError):
    """Report a ValueError or TypeError that a constructor or conversion
    raises on the document's values as `error` at `where`."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise error(f"{where}: {exc}") from exc


def _list(value, where: str, error: type = SpaceFormatError) -> list:
    """A list-valued field; anything else, a string included, raises
    `error` at `where`."""
    if not isinstance(value, list):
        raise error(f"{where}: expected a list")
    return value


def _labels(value, where: str) -> List[str]:
    """The labels of a list-valued field, as strings; a repeated label
    is refused, naming it."""
    labels = [str(x) for x in _list(value, where)]
    repeated = [x for x, k in Counter(labels).items() if k > 1]
    if repeated:
        _fail(where, f"repeated label {repeated[0]!r}")
    return labels


def space_from_dict(doc: Dict) -> StatSpace:
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    points = _labels(doc.get("points"), "points")
    if not points:
        _fail("points", "expected a nonempty list of labels")
    index = {p: i for i, p in enumerate(points)}

    def point_ref(v, where):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            _fail(where, f"expected point index or label, got {v!r}")
        if isinstance(v, str):
            if v in index:  # labels win over numeric indices
                return index[v]
            try:
                v = int(v)
            except ValueError:
                _fail(where, f"unknown point label {v!r}")
        if not (0 <= v < len(points)):
            _fail(where, f"point index {v} out of range")
        return v

    atoms_doc = _list(doc.get("atoms"), "atoms")
    if not atoms_doc:
        _fail("atoms", "expected a nonempty list of point lists")
    atoms = [
        [point_ref(p, f"atoms[{i}]") for p in _list(block, f"atoms[{i}]")]
        for i, block in enumerate(atoms_doc)
    ]
    with _field("atoms"):
        space = build_space(points, atoms)

    has_table = "monoid" in doc and "action" in doc
    has_generators = "generators" in doc
    if has_table == has_generators:
        _fail("monoid", "give either monoid+action or generators, not both")

    if has_generators:
        gens_doc = _list(doc["generators"], "generators")
        if not gens_doc:
            _fail("generators", "expected a nonempty list of point maps")
        maps = []
        for k, g in enumerate(gens_doc):
            if not isinstance(g, dict):
                _fail(f"generators[{k}]", "expected an object of point: point")
            maps.append(
                {
                    point_ref(a, f"generators[{k}]"): point_ref(
                        b, f"generators[{k}]"
                    )
                    for a, b in g.items()
                }
            )
        labels = _labels(doc.get("generator_labels", []), "generator_labels")
        if "sink" not in doc:
            for k, m in enumerate(maps):
                if len(m) != len(points):
                    _fail(
                        f"generators[{k}]",
                        "map is partial; give a sink point or make it total",
                    )
            with _field("generators"):
                return statspace_from_maps(
                    points,
                    atoms,
                    [tuple(m[i] for i in range(len(points))) for m in maps],
                    gen_labels=labels,
                )
        sink = point_ref(doc["sink"], "sink")
        gens = []
        for k, m in enumerate(maps):
            with _field(f"generators[{k}]"):
                gens.append(PartialBijection(len(points), tuple(sorted(m.items()))))
        with _field("generators"):
            return statspace_from_partial_maps(
                points, atoms, gens, sink=sink, gen_labels=labels
            )

    mon_doc = doc["monoid"]
    if not isinstance(mon_doc, dict):
        _fail("monoid", "expected an object")
    mul = _list(mon_doc.get("table"), "monoid.table")
    order = len(mul)
    rows = tuple(tuple(_list(row, f"monoid.table[{i}]")) for i, row in enumerate(mul))
    with _field("monoid"):
        unit = mon_doc.get("unit", 0)
        if any(type(x) is not int for x in (unit, *(x for row in rows for x in row))):
            raise TypeError("table entries and the unit must be integers")
        table = InverseMonoidTable(
            order=order,
            unit=unit,
            mul=rows,
            labels=tuple(_labels(mon_doc.get("labels", list(range(order))), "monoid.labels")),
        )
    labels = table.labels
    action_doc = doc["action"]
    if not isinstance(action_doc, dict):
        _fail("action", "expected an object keyed by monoid element")
    elem_index = {lab: i for i, lab in enumerate(labels)}
    action: List[Tuple[int, ...]] = [None] * order
    for key, pm in action_doc.items():
        if key in elem_index:
            s = elem_index[key]
        else:
            try:
                s = int(key)
            except ValueError:
                _fail("action", f"unknown element {key!r}")
            if not (0 <= s < order):
                _fail("action", f"element index {s} out of range")
        if not isinstance(pm, dict) or len(pm) != len(points):
            _fail(f"action[{key}]", "expected a total point map")
        row = [None] * len(points)
        for a, b in pm.items():
            row[point_ref(a, f"action[{key}]")] = point_ref(b, f"action[{key}]")
        if None in row:
            _fail(f"action[{key}]", "expected a total point map")
        action[s] = tuple(row)
    missing = [labels[s] for s in range(order) if action[s] is None]
    if missing:
        _fail("action", f"missing point maps for {missing}")
    return StatSpace.from_table(space, table, action)


def _read_json(path: str, error: type):
    """The JSON document in the file at path; text that is not UTF-8 or
    not JSON raises `error`, naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc


def load_space(path: str) -> StatSpace:
    return space_from_dict(_read_json(path, SpaceFormatError))


def parse_set_expr(ss: StatSpace, expr: str):
    """Comma-separated atom indices or atom labels; '' is empty."""
    expr = expr.strip()
    if not expr:
        return frozenset()
    label_index = {lab: i for i, lab in enumerate(ss.space.atom_labels)}
    out = set()
    for token in expr.split(","):
        token = token.strip()
        if token in label_index:
            out.add(label_index[token])
            continue
        try:
            i = int(token)
        except ValueError:
            raise SpaceFormatError(f"set expression: unknown atom {token!r}")
        if not (0 <= i < ss.n_atoms):
            raise SpaceFormatError(f"set expression: atom index {i} out of range")
        out.add(i)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Certificates


def _int(value, what: str) -> int:
    """A JSON integer; anything else, a float, a bool or a numeric string
    included, raises TypeError naming `what`, where int() would truncate
    or parse it."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _zset_from_doc(doc, where: str):
    if not isinstance(doc, dict) or not {"mod", "halfline"} & doc.keys():
        raise MalformedCertificateError(
            f"{where}: integer sets need mod/residues/add/remove or halfline"
        )
    with _field(where, MalformedCertificateError):
        if "halfline" in doc:
            return HalfLine(_int(doc["halfline"], "halfline"))
        residues, add, remove = (
            [_int(x, f"{key}[{j}]") for j, x in enumerate(
                _list(doc.get(key, []), f"{where}.{key}", MalformedCertificateError))]
            for key in ("residues", "add", "remove")
        )
        return ep_set(_int(doc["mod"], "mod"), residues, add=add, remove=remove)


_F2_OPS = {
    "union": dfa_union,
    "inter": dfa_intersect,
    "diff": dfa_difference,
}


def _f2_from_doc(doc, where: str):
    if isinstance(doc, str):
        try:
            return compile_word_regex(doc)
        except ValueError as exc:
            raise MalformedCertificateError(f"{where}: {exc}") from exc
    if isinstance(doc, dict) and "op" in doc:
        op = doc["op"]
        items = _list(doc.get("args", []), f"{where}.args", MalformedCertificateError)
        args = [_f2_from_doc(a, f"{where}.args[{i}]") for i, a in enumerate(items)]
        if op == "complement":
            if len(args) != 1:
                raise MalformedCertificateError(f"{where}: complement takes one set")
            return dfa_complement(args[0])
        if op in _F2_OPS and len(args) >= 2:
            out = args[0]
            for a in args[1:]:
                out = _F2_OPS[op](out, a)
            return out
        raise MalformedCertificateError(f"{where}: bad op {op!r}")
    raise MalformedCertificateError(f"{where}: expected regex or op tree")


def certificate_from_dict(doc: Dict) -> Certificate:
    if not isinstance(doc, dict):
        raise MalformedCertificateError("certificate: expected a JSON object")
    backend = doc.get("backend")
    if backend not in ("zperiodic", "f2"):
        raise MalformedCertificateError(f"certificate: unknown backend {backend!r}")
    parse = _zset_from_doc if backend == "zperiodic" else _f2_from_doc
    left, right = (
        tuple(parse(w, f"{side}[{i}]") for i, w in enumerate(
            _list(doc.get(side, []), side, MalformedCertificateError)))
        for side in ("left", "right")
    )
    if not left or not right:
        raise MalformedCertificateError("certificate: left and right required")
    pieces_doc = doc.get("pieces")
    if isinstance(pieces_doc, dict):
        return Certificate(backend, left, right, dict(pieces_doc), ())
    if not isinstance(pieces_doc, list):
        raise MalformedCertificateError("certificate: pieces must be list or schema")
    pieces = []
    for i, p in enumerate(pieces_doc):
        if not isinstance(p, dict):
            raise MalformedCertificateError(f"pieces[{i}]: expected an object")
        with _field(f"pieces[{i}]", MalformedCertificateError):
            copy = _int(p.get("copy", 0), "copy")
        pieces.append((copy, parse(p.get("set"), f"pieces[{i}].set")))
    moves = []
    for i, m in enumerate(_list(doc.get("moves", []), "moves", MalformedCertificateError)):
        if not isinstance(m, dict):
            raise MalformedCertificateError(f"moves[{i}]: expected an object")
        mover = m.get("mover")
        with _field(f"moves[{i}]", MalformedCertificateError):
            if backend == "zperiodic":
                mover = _int(mover, "mover")
            entry = (mover, _int(m.get("to", 0), "to"))
        image = m.get("image")
        if image is not None:
            entry = entry + (parse(image, f"moves[{i}].image"),)
        moves.append(entry)
    return Certificate(backend, left, right, tuple(pieces), tuple(moves))


def load_certificate(path: str) -> Certificate:
    return certificate_from_dict(_read_json(path, MalformedCertificateError))


# ---------------------------------------------------------------------------
# Reports and fixtures


def report_to_json(report: Dict) -> str:
    return json.dumps(jsonable(report), indent=2, sort_keys=True)


def fixture_space_dict(ss: StatSpace) -> Dict:
    """Serialize a space to the explicit table format."""
    return {
        "points": list(ss.space.points),
        "atoms": [sorted(a) for a in ss.space.atoms],
        "monoid": {
            "table": [list(row) for row in ss.monoid.mul],
            "unit": ss.monoid.unit,
            "labels": list(ss.monoid.labels),
        },
        "action": {
            ss.monoid.labels[s]: {
                str(p): ss.action[s][p] for p in range(len(ss.space.points))
            }
            for s in range(ss.monoid.order)
        },
    }
