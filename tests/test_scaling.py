"""Spaces given by generators answer past the monoid-table cap.

Decisions, measures and lattices read only the unit and the generators
of a space, so a cyclic group or a partial-shift chain whose monoid has
more than 64 elements still gets its verdicts.  Only a command that needs
every element, `space-check`, closes the table, and it names the cap.
"""

import json

import pytest

from typemonoid import corpus
from typemonoid.cli import main
from typemonoid.congruence import EQUAL, LEQ, NOT_EQUAL
from typemonoid.lattice import enumerate_idempotents
from typemonoid.measures import is_paradoxical, synthesize_classical_measure
from typemonoid.serial import space_from_dict
from typemonoid.types import TypeEngine


def cyclic_doc(n):
    """n singleton atoms rotated by one generator; its group has n elements."""
    return {
        "points": [str(i) for i in range(n)],
        "atoms": [[i] for i in range(n)],
        "generators": [{str(i): (i + 1) % n for i in range(n)}],
    }


def pshift_doc(n):
    """Points 0..n-1 and sink n, singleton atoms, partial shift i -> i+1;
    nothing maps onto point 0, so every sink-free set is null."""
    return {
        "points": [str(i) for i in range(n + 1)],
        "atoms": [[i] for i in range(n + 1)],
        "generators": [{str(i): i + 1 for i in range(n - 1)}],
        "sink": n,
    }


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    root = tmp_path_factory.mktemp("family")
    out = {}
    for name, doc in [
        ("cyclic-65", cyclic_doc(65)),
        ("cyclic-128", cyclic_doc(128)),
        ("pshift-6", pshift_doc(6)),
        ("pshift-12", pshift_doc(12)),
    ]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    return out


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out) if captured.out else None, captured.err


def verdict(report):
    return [v["verdict"] for v in report["verdicts"]]


@pytest.mark.parametrize("name", ["cyclic-65", "cyclic-128"])
def test_cyclic_past_the_cap(family, capsys, name):
    # every singleton has the same type: equal exactly at equal size
    path = family[name]
    for left, right, expected in (("0", "1", EQUAL), ("0,1", "2,5", EQUAL),
                                  ("0,1", "2", NOT_EQUAL)):
        code, report, _ = run_json(capsys, ["equi", path, left, right])
        assert code == 0 and verdict(report) == [expected], (left, right)
    code, report, _ = run_json(capsys, ["measure", path, "0"])
    assert code == 0 and "measure" in report
    code, report, _ = run_json(capsys, ["lattice", path])
    assert code == 0 and len(report["elements"]) == 2


@pytest.mark.parametrize("name", ["pshift-6", "pshift-12"])
def test_pshift_past_the_cap(family, capsys, name):
    path = family[name]
    for left, right in (("0", "1"), ("0", "1,2")):
        code, report, _ = run_json(capsys, ["equi", path, left, right])
        assert code == 0 and verdict(report) == [EQUAL], (left, right)
    code, report, _ = run_json(capsys, ["paradox", path, "0,2"])
    assert code == 0 and report["null_type"] == EQUAL
    code, report, _ = run_json(capsys, ["measure", path, "0"])
    assert code == 0 and "measure" not in report
    assert report["synthesis"]["method"] == "paradox"
    code, report, _ = run_json(capsys, ["lattice", path])
    assert code == 0 and len(report["elements"]) == 2


@pytest.mark.parametrize("name", ["cyclic-65", "pshift-6"])
def test_space_check_names_the_cap(family, capsys, name):
    code, report, err = run_json(capsys, ["space-check", family[name]])
    assert code == 1 and report is None
    assert "closure exceeded cap 64" in err


def test_decisions_never_close_the_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("monoid table closed")

    monkeypatch.setattr(corpus, "transformation_closure", refuse)
    monkeypatch.setattr(corpus, "closure", refuse)
    for doc in (cyclic_doc(65), pshift_doc(6)):
        ss = space_from_dict(doc)
        eng = TypeEngine(ss)
        assert eng.decide_equal(eng.type_of({0}), eng.type_of({1})).verdict == EQUAL
        assert eng.decide_leq(eng.type_of({0}), eng.type_of({0, 1})).verdict == LEQ
        is_paradoxical(eng, frozenset({0}))
        synthesize_classical_measure(eng, frozenset({0}))
        assert len(enumerate_idempotents(eng)) == 2
        assert sum(eng.audit_decisions().values()) > 0
        assert space_from_dict(doc) == ss
        assert "_closed" not in vars(ss)
