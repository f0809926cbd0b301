"""Command-line surface: exit codes, report schema, determinism."""

import json
import re
from fractions import Fraction

import pytest

from typemonoid import congruence, measures, serial
from typemonoid.cli import main
from typemonoid.corpus import fixture_spaces
from typemonoid.errors import MalformedCertificateError
from typemonoid.serial import (
    SpaceFormatError,
    certificate_from_dict,
    fixture_space_dict,
    load_certificate,
    load_space,
    parse_set_expr,
)

Z_ALL = {"mod": 1, "residues": [0]}
F2_ALL = "%|(a|A|b|B)(a|A|b|B)*"


def _table_doc(**monoid):
    """A two-point space with the collapse table, edited by `monoid`."""
    return {
        "points": ["a", "b"],
        "atoms": [[0], [1]],
        "monoid": {"table": [[0, 1], [1, 1]], "unit": 0, "labels": ["1", "e"], **monoid},
        "action": {"1": {"0": 0, "1": 1}, "e": {"0": 0, "1": 0}},
    }


# a rotation and a swap of three points: a six-element monoid
_ROTATE_AND_SWAP = {
    "points": ["a", "b", "c"],
    "atoms": [[0], [1], [2]],
    "generators": [{"a": "b", "b": "c", "c": "a"}, {"a": "b", "b": "a", "c": "c"}],
}

# documents whose values a constructor refuses, by the field the error
# names; each must be an input error naming its field, never a traceback
MALFORMED_SPACES = {
    "overlapping atoms": ("atoms", {**_table_doc(), "atoms": [[0, 1], [1]]}),
    "table entry out of range": ("monoid", _table_doc(table=[[0, 1], [1, 5]])),
    "unit out of range": ("monoid", _table_doc(unit=7)),
    "unit not an index": ("monoid", _table_doc(unit="x")),
    "sink in a generator's domain": ("generators", {
        "points": ["a", "b", "s"],
        "atoms": [[0], [1], [2]],
        "generators": [{"a": "s"}],
        "sink": "s",
    }),
    "non-injective partial generator": ("generators[0]", {
        "points": ["a", "b", "c", "s"],
        "atoms": [[0], [1], [2], [3]],
        "generators": [{"a": "c", "b": "c"}],
        "sink": "s",
    }),
    "generator labels not a list": ("generator_labels", {
        "points": ["a", "b"],
        "atoms": [[0], [1]],
        "generators": [{"a": "b", "b": "a"}],
        "generator_labels": 5,
    }),
    "fewer generator labels than generators": ("generators", {
        "points": ["a", "b"],
        "atoms": [[0], [1]],
        "generators": [{"a": "b", "b": "a"}, {"a": "a", "b": "a"}],
        "generator_labels": ["swap"],
    }),
    "table entry not an integer": ("monoid", {
        "points": ["a"], "atoms": [[0]], "monoid": {"table": [[0.0]]}, "action": {"0": {"0": 0}},
    }),
    "unit not an integer": ("monoid", _table_doc(unit=0.0)),
    "action names one point twice": ("action[1]", {
        **_table_doc(),
        "action": {"1": {"0": 0, "a": 1}, "e": {"0": 0, "1": 0}},
    }),
    # a JSON string where a list is expected is not read character by
    # character
    "atom given as a string": ("atoms[0]", {
        "points": ["0", "1", "2"],
        "atoms": ["01", [2]],
        "generators": [{"0": "0", "1": "1", "2": "2"}],
    }),
    "generator labels given as a string": ("generator_labels", {
        "points": ["a", "b"],
        "atoms": [[0], [1]],
        "generators": [{"a": "b", "b": "a"}, {"a": "a", "b": "b"}],
        "generator_labels": "ab",
    }),
    "monoid labels given as a string": ("monoid.labels", {
        **_table_doc(labels="xy"),
        "action": {"x": {"0": 0, "1": 1}, "y": {"0": 0, "1": 0}},
    }),
    "table row given as a string": ("monoid.table[0]", _table_doc(table=["01", [1, 1]])),
    # a repeated label would resolve to its last occurrence
    "repeated point label": ("points", {
        "points": ["x", "x", "y"],
        "atoms": [["x"], [1], ["y"]],
        "generators": [{"0": 0, "1": 1, "2": 2}],
    }),
    "repeated monoid label": ("monoid.labels", {
        **_table_doc(labels=["a", "a"]),
        "action": {"0": {"0": 0, "1": 1}, "1": {"0": 0, "1": 0}},
    }),
    # element labels key the action of a written table, so a generator
    # label may neither repeat nor take a label the closure gives
    "repeated generator label": ("generator_labels", {
        **_ROTATE_AND_SWAP, "generator_labels": ["s", "s"],
    }),
    "generator label of a closure-made element": ("generators", {
        **_ROTATE_AND_SWAP, "generator_labels": ["s3", "t"],
    }),
    "generator label of the unit": ("generators", {
        **_ROTATE_AND_SWAP, "generator_labels": ["r", "1"],
    }),
}

MALFORMED_MODULI = {"not a number": "x", "null": None, "zero": 0, "float": 2.5, "bool": True}

# certificate integer fields given a float, which int() would truncate,
# by the prefix the error gives
MALFORMED_INTEGERS = {
    "residue": ("left[0]", {"backend": "zperiodic", "left": [{"mod": 2, "residues": [0.9]}],
                            "right": [Z_ALL], "pieces": []}),
    "added point": ("left[0]", {"backend": "zperiodic",
                                "left": [{"mod": 2, "residues": [0], "add": [1.5]}],
                                "right": [Z_ALL], "pieces": []}),
    "halfline": ("left[0]", {"backend": "zperiodic", "left": [{"halfline": 1.5}],
                             "right": [Z_ALL], "pieces": []}),
    "copy": ("pieces[0]", {"backend": "zperiodic", "left": [Z_ALL], "right": [Z_ALL],
                           "pieces": [{"copy": 0.5, "set": Z_ALL}]}),
    "move target": ("moves[0]", {"backend": "zperiodic", "left": [Z_ALL], "right": [Z_ALL],
                                 "pieces": [{"copy": 0, "set": Z_ALL}],
                                 "moves": [{"mover": 1, "to": 0.5}]}),
    "mover": ("moves[0]", {"backend": "zperiodic", "left": [Z_ALL], "right": [Z_ALL],
                           "pieces": [{"copy": 0, "set": Z_ALL}],
                           "moves": [{"mover": 1.5, "to": 0}]}),
}

# certificate fields that must be lists, by the name the error gives
MALFORMED_LISTS = {
    "left": {"backend": "zperiodic", "left": 5, "right": [Z_ALL], "pieces": []},
    "right": {"backend": "zperiodic", "left": [Z_ALL], "right": 5, "pieces": []},
    "moves": {"backend": "zperiodic", "left": [Z_ALL], "right": [Z_ALL], "pieces": [],
              "moves": 5},
    "left[0].args": {"backend": "f2", "left": [{"op": "union", "args": 5}],
                     "right": [F2_ALL], "pieces": []},
    "left[0].residues": {"backend": "zperiodic", "left": [{"mod": 1, "residues": "0"}],
                         "right": [Z_ALL], "pieces": []},
    "left[0].add": {"backend": "zperiodic", "left": [{"mod": 1, "residues": [0], "add": "5"}],
                    "right": [Z_ALL], "pieces": []},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("spaces")
    fx = fixture_spaces()
    out = {}
    for name in ("parity", "collapse"):
        p = root / f"{name}.json"
        p.write_text(json.dumps(fixture_space_dict(fx[name])))
        out[name] = str(p)

    bad = {
        "points": ["p", "q"],
        "atoms": [[0], [1]],
        "monoid": {
            "table": [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
            "unit": 0,
            "labels": ["1", "a", "b"],
        },
        "action": {
            "1": {"0": 0, "1": 1},
            "a": {"0": 0, "1": 1},
            "b": {"0": 0, "1": 1},
        },
    }
    p = root / "badmonoid.json"
    p.write_text(json.dumps(bad))
    out["badmonoid"] = str(p)

    gens = {
        "points": ["0", "1", "2", "3"],
        "atoms": [[0], [1], [2], [3]],
        "generators": [
            {"0": 2, "2": 0, "1": 1, "3": 3},
            {"1": 3, "3": 1, "0": 0, "2": 2},
        ],
        "generator_labels": ["swap_even", "swap_odd"],
    }
    p = root / "parity_gens.json"
    p.write_text(json.dumps(gens))
    out["parity_gens"] = str(p)

    # every point retracts onto point 2: e2 ~ e0 + e1 + e2 and e0, e1 ~ 0.
    # Completion adds e0 + e1 + e2 -> e2 first; e1 -> 0 turns it into
    # e0 + e2 -> e2 before e0 -> 0 removes it: four additions, three relations
    retraction = {
        "points": ["0", "1", "2"],
        "atoms": [[0], [1], [2]],
        "generators": [{"0": 2, "1": 2, "2": 2}],
    }
    p = root / "retraction.json"
    p.write_text(json.dumps(retraction))
    out["retraction"] = str(p)

    partial = {
        "points": ["a", "b", "sink"],
        "atoms": [[0], [1], [2]],
        "generators": [{"0": 1}],
        "sink": 2,
    }
    p = root / "partial.json"
    p.write_text(json.dumps(partial))
    out["partial"] = str(p)

    p = root / "broken.json"
    p.write_text('{"points": [,]}')
    out["broken"] = str(p)

    galileo = {
        "backend": "zperiodic",
        "left": [Z_ALL, Z_ALL],
        "right": [Z_ALL],
        "pieces": {"name": "interleave", "multiplier": 2, "offsets": [0, 1]},
    }
    p = root / "galileo.json"
    p.write_text(json.dumps(galileo))
    out["galileo"] = str(p)
    p = root / "galileo_bad.json"
    p.write_text(
        json.dumps(
            dict(
                galileo,
                pieces={"name": "interleave", "multiplier": 2, "offsets": [0, 2]},
            )
        )
    )
    out["galileo_bad"] = str(p)

    f2 = {
        "backend": "f2",
        "left": [F2_ALL],
        "right": [F2_ALL],
        "pieces": [{"copy": 0, "set": F2_ALL}],
        "moves": [{"mover": "", "to": 0}],
    }
    p = root / "f2_id.json"
    p.write_text(json.dumps(f2))
    out["f2_id"] = str(p)

    evens = {
        "backend": "zperiodic",
        "left": [{"mod": 2, "residues": [0]}],
        "right": [{"mod": 2, "residues": [1]}],
        "pieces": [{"copy": 0, "set": {"mod": 2, "residues": [0]}}],
        "moves": [{"mover": 1, "to": 0}],
    }
    p = root / "evens.json"
    p.write_text(json.dumps(evens))
    out["evens"] = str(p)
    out["root"] = str(root)
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, ["--json"] + argv)
    return code, json.loads(out), err


class TestSpaceCheck:
    def test_parity_valid(self, files, capsys):
        code, out, _ = run(capsys, ["space-check", files["parity"]])
        assert code == 0
        assert "valid" in out
        assert "4 atoms" in out

    def test_collapse_valid(self, files, capsys):
        code, out, _ = run(capsys, ["space-check", files["collapse"]])
        assert code == 0

    def test_generator_file_closes(self, files, capsys):
        code, out, _ = run(capsys, ["space-check", files["parity_gens"]])
        assert code == 0
        assert "monoid order 4" in out

    def test_partial_generators_with_sink(self, files, capsys):
        code, out, _ = run(capsys, ["space-check", files["partial"]])
        assert code == 0

    @pytest.mark.parametrize("name", ["parity", "badmonoid"])
    def test_monoid_axioms_checked_once(self, files, capsys, monkeypatch, name):
        from typemonoid import cli, monoid, spaces

        calls = []
        check = monoid.check_inverse_monoid

        def counted(table):
            calls.append(table)
            return check(table)

        for mod in (monoid, spaces, cli):
            monkeypatch.setattr(mod, "check_inverse_monoid", counted, raising=False)
        run(capsys, ["space-check", files[name]])
        assert len(calls) == 1

    def test_noncommuting_idempotents_invalid(self, files, capsys):
        code, out, _ = run(capsys, ["space-check", files["badmonoid"]])
        assert code == 1
        assert "INVALID" in out
        assert "idempotent commutation" in out

    def test_parse_error_located(self, files, capsys):
        code, _, err = run(capsys, ["space-check", files["broken"]])
        assert code == 1
        assert "line 1" in err

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, ["space-check", files["root"] + "/nope.json"])
        assert code == 1

    def test_directory_is_an_input_error(self, files, capsys, tmp_path):
        code, _, err = run(capsys, ["equi", str(tmp_path), "0", "1"])
        assert code == 1
        assert err.startswith("input error:") and "Traceback" not in err

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"points": ["\xe9"]}')
        code, _, err = run(capsys, ["space-check", str(p)])
        assert code == 1
        assert err.startswith(f"input error: {p}: not UTF-8")

    def test_json_report_fields(self, files, capsys):
        code, doc, _ = run_json(capsys, ["space-check", files["parity"]])
        assert code == 0
        assert doc["schema_version"] == 7
        assert doc["command"] == "space-check"
        assert doc["monoid"]["valid"] is True
        assert doc["action"]["valid"] is True
        assert doc["budget"] == {"max_rules": 100}


class TestType:
    def test_parity_evens_pair(self, files, capsys):
        code, doc, _ = run_json(capsys, ["type", files["parity"], "0,1"])
        assert code == 0
        assert doc["representative"] == {"finite": [1, 1, 0, 0], "omega": []}
        assert doc["scale"] == "bot"

    def test_empty_set_is_zero(self, files, capsys):
        code, doc, _ = run_json(capsys, ["type", files["parity"], ""])
        assert code == 0
        assert doc["representative"]["finite"] == [0, 0, 0, 0]

    def test_collapse_null_atom_is_zero(self, files, capsys):
        # representatives are not canonical across a class; the zero
        # judgement comes from the decision procedure
        code, doc, _ = run_json(capsys, ["equi", files["collapse"], "1", ""])
        assert code == 0
        assert doc["decision"]["verdict"] == "equal"

    def test_atom_labels_accepted(self, files, capsys):
        code1, doc1, _ = run_json(capsys, ["type", files["parity"], "0,2"])
        assert code1 == 0
        assert {"atom": 0, "relation": ">="} in doc1["atom_relations"]

    def test_unknown_atom_rejected(self, files, capsys):
        code, _, err = run(capsys, ["type", files["parity"], "7"])
        assert code == 1
        assert "out of range" in err


class TestEqui:
    def test_parity_equal_with_path(self, files, capsys):
        code, doc, _ = run_json(capsys, ["equi", files["parity"], "0", "2"])
        assert code == 0
        assert doc["decision"]["verdict"] == "equal"
        assert doc["decision"]["witness"]["kind"] == "path"
        assert doc["audit"]["path"] == 1

    def test_parity_not_equal_with_functional(self, files, capsys):
        code, doc, _ = run_json(capsys, ["equi", files["parity"], "0", "1"])
        assert code == 0
        assert doc["decision"]["verdict"] == "not_equal"
        assert doc["decision"]["witness"]["kind"] == "functional"

    def test_starved_budget_exits_2(self, files, capsys):
        code, doc, _ = run_json(
            capsys, ["--max-rules", "0", "equi", files["retraction"], "0", "1"]
        )
        assert code == 2
        assert doc["decision"]["verdict"] == "unknown"
        assert doc["decision"]["witness"]["exhausted"] == ["max_rules"]
        code, doc, _ = run_json(capsys, ["equi", files["retraction"], "0", "1"])
        assert code == 0 and doc["decision"]["verdict"] == "equal"

    def test_negative_budget_is_a_usage_error(self, files, capsys):
        code, _, err = run(capsys, ["--max-rules", "-1", "equi", files["parity"], "0", "2"])
        assert code == 1
        assert "must be nonnegative" in err


class TestParadox:
    def test_parity_whole_not_paradoxical(self, files, capsys):
        code, out, _ = run(capsys, ["paradox", files["parity"], "0,1,2,3"])
        assert code == 0
        assert "not paradoxical" in out

    def test_collapse_null_atom_degenerate(self, files, capsys):
        code, out, _ = run(capsys, ["paradox", files["collapse"], "1"])
        assert code == 0
        assert "paradoxical" in out
        assert "degenerate" in out


class TestMeasure:
    def test_parity_whole_feasible(self, files, capsys):
        code, doc, _ = run_json(capsys, ["measure", files["parity"], "0,1,2,3"])
        assert code == 0
        assert doc["invariants"] == "checked"
        assert doc["measure"]["finite"]["0"] == "1/2"
        assert doc["synthesis"] == {
            "method": "cone", "k": None, "exhausted": None, "certificate": None}

    def test_collapse_null_atom_infeasible(self, files, capsys):
        code, doc, _ = run_json(capsys, ["measure", files["collapse"], "1"])
        assert code == 0
        assert "measure" not in doc
        syn = doc["synthesis"]
        assert (syn["method"], syn["k"], syn["exhausted"]) == ("paradox", 1, None)
        assert syn["certificate"]["verdict"] == "leq"
        assert syn["certificate"]["witness"]["kind"] == "domination"
        assert doc["audit"]["domination"] == 1
        code, out, _ = run(capsys, ["measure", files["collapse"], "1"])
        assert code == 0
        assert out.splitlines()[0] == "infeasible: paradox certificate 2[E] <= 1[E]"

    def test_feasible_measure_has_an_audit_block(self, files, capsys):
        code, doc, _ = run_json(capsys, ["measure", files["parity"], "0,1,2,3"])
        assert code == 0
        assert doc["audit"] == {
            "functional": 1, "path": 0, "domination": 0, "normal_form": 0, "support": 0}
        code, out, _ = run(capsys, ["measure", files["parity"], "0,1,2,3"])
        assert out.splitlines()[-1].startswith("audit replayed: ")

    def test_paradox_limit_exhausted_exits_2(self, files, capsys, monkeypatch):
        # with no copies allowed, no (k+1)[E] <= k[E] is asked past k = 1
        monkeypatch.setattr(measures, "PARADOX_LIMIT", 0)
        argv = ["measure", files["collapse"], "1"]
        code, doc, _ = run_json(capsys, argv)
        assert code == 2
        assert "measure" not in doc
        assert doc["synthesis"] == {
            "method": "paradox", "k": None, "exhausted": "PARADOX_LIMIT", "certificate": None}
        assert {"name": "measure_exists", "verdict": "definite"} in doc["verdicts"]
        assert {"name": "paradox_certificate", "verdict": "unknown"} in doc["verdicts"]
        code, out, _ = run(capsys, argv)
        assert code == 2 and "PARADOX_LIMIT exhausted" in out.splitlines()[0]

    def test_max_rules_exhausted_exits_2(self, files, capsys):
        # the retraction congruence needs one rule past its relations: its
        # first paradox decision is unknown, and the search stops there
        argv = ["--max-rules", "0", "measure", files["retraction"], "0"]
        code, doc, _ = run_json(capsys, argv)
        assert code == 2
        assert doc["budget"] == {"max_rules": 0}
        assert doc["synthesis"] == {
            "method": "paradox", "k": None, "exhausted": "max_rules", "certificate": None}
        assert {"name": "paradox_certificate", "verdict": "unknown"} in doc["verdicts"]
        code, out, _ = run(capsys, argv)
        assert code == 2 and "max_rules exhausted" in out.splitlines()[0]

    def test_empty_set_rejected(self, files, capsys):
        code, _, err = run(capsys, ["measure", files["parity"], ""])
        assert code == 1
        assert "empty" in err


class TestLattice:
    def test_parity_diamond(self, files, capsys):
        code, doc, _ = run_json(capsys, ["lattice", files["parity"]])
        assert code == 0
        assert len(doc["elements"]) == 4
        assert len(doc["covers"]) == 4

    def test_dot_output(self, files, capsys, tmp_path):
        dot = tmp_path / "parity.dot"
        code, out, _ = run(capsys, ["lattice", files["parity"], "--dot", str(dot)])
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert '"bot"' in text

    def test_dot_into_a_directory_is_an_input_error(self, files, capsys, tmp_path):
        code, _, err = run(capsys, ["lattice", files["parity"], "--dot", str(tmp_path)])
        assert code == 1
        assert err.startswith("input error:")

    @staticmethod
    def trivial20(tmp_path):
        # twenty atoms and no symmetry: 2^20 closed supports
        p = tmp_path / "trivial20.json"
        p.write_text(json.dumps({
            "points": [str(i) for i in range(20)],
            "atoms": [[i] for i in range(20)],
            "generators": [{str(i): i for i in range(20)}],
        }))
        return str(p)

    @pytest.mark.parametrize("command", [["lattice"]])
    def test_too_many_closed_supports(self, capsys, tmp_path, command):
        code, _, err = run(capsys, [command[0], self.trivial20(tmp_path), *command[1:]])
        assert code == 1
        assert "LATTICE_LIMIT = 256" in err

    def test_type_needs_no_lattice(self, capsys, tmp_path):
        # one scale is certified against its covers, whatever the lattice size
        code, doc, _ = run_json(capsys, ["type", self.trivial20(tmp_path), "0"])
        assert code == 0
        assert doc["scale"] == "bot"
        assert [r["relation"] for r in doc["atom_relations"]] == ["="] + ["incomparable"] * 19


class TestCertVerify:
    def test_builtin_galileo(self, files, capsys):
        code, out, _ = run(capsys, ["cert-verify", "builtin:galileo"])
        assert code == 0
        assert "verified" in out

    def test_builtin_f2(self, files, capsys):
        code, out, _ = run(
            capsys, ["cert-verify", "builtin:f2", "--window", "200"]
        )
        assert code == 0
        assert "verified" in out

    def test_galileo_file(self, files, capsys):
        code, doc, _ = run_json(capsys, ["cert-verify", files["galileo"]])
        assert code == 0
        assert doc["ok"] is True
        assert doc["details"]["duplication"] is True

    def test_mutated_file_rejected(self, files, capsys):
        code, doc, _ = run_json(
            capsys, ["cert-verify", files["galileo_bad"], "--window", "100"]
        )
        assert code == 1
        assert doc["ok"] is False
        assert any("collide" in p for p in doc["problems"])

    def test_finite_move_certificate(self, files, capsys):
        code, out, _ = run(capsys, ["cert-verify", files["evens"]])
        assert code == 0

    def test_f2_regex_certificate(self, files, capsys):
        code, out, _ = run(
            capsys, ["cert-verify", files["f2_id"], "--window", "50"]
        )
        assert code == 0

    def test_malformed_certificate(self, files, capsys, tmp_path):
        p = tmp_path / "nocert.json"
        p.write_text(json.dumps({"backend": "zperiodic", "left": []}))
        code, _, err = run(capsys, ["cert-verify", str(p)])
        assert code == 1
        assert "input error" in err

    def test_non_utf8_certificate_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"backend": "\xff"}')
        code, _, err = run(capsys, ["cert-verify", str(p)])
        assert code == 1
        assert err.startswith(f"input error: {p}: not UTF-8")

    def test_negative_window_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["cert-verify", "builtin:galileo", "--window", "-3"])
        assert code == 1
        assert out == "" and "must be nonnegative" in err


class TestCorpus:
    def test_theorem3_small(self, files, capsys):
        code, doc, _ = run_json(
            capsys, ["corpus", "--suite", "theorem3", "--count", "2"]
        )
        assert code == 0
        assert doc["summary"]["ok"] is True
        assert doc["summary"]["unknown"] == 0

    def test_tarski_small(self, files, capsys):
        code, doc, _ = run_json(
            capsys, ["corpus", "--suite", "tarski", "--count", "2"]
        )
        assert code == 0
        assert doc["summary"]["agreements"] > 0

    def test_max_rules_reaches_the_suites(self, capsys):
        # no rule may be added past the relations: the completion of
        # retraction_9, the 3-point retraction space, runs out
        code, doc, _ = run_json(capsys, [
            "--max-rules", "0", "corpus", "--suite", "soundness", "--seed", "1", "--count", "10",
        ])
        assert doc["budget"] == {"max_rules": 0}
        assert doc["summary"]["unknown"] > 0
        assert doc["verdicts"] == [{"name": "soundness", "verdict": "unknown"}]


class TestDeterminism:
    def test_type_output_stable(self, files, capsys):
        _, out1, _ = run(capsys, ["type", files["parity"], "0,1"])
        _, out2, _ = run(capsys, ["type", files["parity"], "0,1"])
        assert out1 == out2

    def test_corpus_output_stable(self, files, capsys):
        args = ["--json", "corpus", "--suite", "theorem3", "--count", "2"]
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, args)
        assert out1 == out2


class TestUsage:
    """A usage error is an input error (exit 1), never the Unknown exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus", "lattice", "f.json"],
            ["--coordinate-cap", "3", "lattice", "f.json"],
            ["no-such-command"],
            ["equi", "f.json", "0"],
            ["corpus", "--suite", "theorem1", "--count", "-3"],
        ],
        ids=["unknown-flag", "removed-flag", "unknown-subcommand", "missing-argument",
             "negative-count"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "--max-rules" in out
        assert "--max-states" not in out and "--coordinate-cap" not in out


class TestSerialEdges:
    def test_labels_win_over_indices(self, tmp_path):
        doc = {
            "points": ["1", "0"],
            "atoms": [[0], [1]],
            "generators": [{"1": "1", "0": "0"}],
        }
        ss = load_space_from(tmp_path, doc)
        # label "1" is point 0; the identity generator fixes both points
        assert ss.action[ss.monoid.unit] == (0, 1)

    def test_set_expr_labels(self, tmp_path):
        doc = {
            "points": ["x", "y"],
            "atoms": [[0], [1]],
            "generators": [{"x": "y", "y": "x"}],
        }
        ss = load_space_from(tmp_path, doc)
        assert parse_set_expr(ss, "") == frozenset()
        assert parse_set_expr(ss, "0,1") == frozenset({0, 1})

    def test_partial_without_sink_rejected(self, tmp_path):
        doc = {
            "points": ["x", "y"],
            "atoms": [[0], [1]],
            "generators": [{"x": "y"}],
        }
        with pytest.raises(SpaceFormatError, match="sink"):
            load_space_from(tmp_path, doc)

    def test_both_table_and_generators_rejected(self, tmp_path):
        doc = {
            "points": ["x"],
            "atoms": [[0]],
            "monoid": {"table": [[0]], "unit": 0},
            "action": {"0": {"0": 0}},
            "generators": [{"x": "x"}],
        }
        with pytest.raises(SpaceFormatError, match="not both"):
            load_space_from(tmp_path, doc)

    def test_certificate_requires_backend(self):
        with pytest.raises(Exception, match="backend"):
            certificate_from_dict({"left": [], "right": []})

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
    def test_malformed_space_is_an_input_error(self, tmp_path, capsys, case):
        where, doc = MALFORMED_SPACES[case]
        with pytest.raises(SpaceFormatError, match="^" + re.escape(f"{where}: ")):
            load_space_from(tmp_path, doc)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["space-check", str(p)])
        assert code == 1
        assert err.startswith(f"input error: {where}: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODULI))
    def test_malformed_modulus_is_an_input_error(self, tmp_path, capsys, case):
        doc = {"backend": "zperiodic", "left": [{"mod": MALFORMED_MODULI[case]}],
               "right": [Z_ALL], "pieces": [], "moves": []}
        with pytest.raises(MalformedCertificateError, match=r"left\[0\]: "):
            certificate_from_dict(doc)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["cert-verify", str(p)])
        assert code == 1
        assert err.startswith("input error: left[0]: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_INTEGERS))
    def test_non_integer_field_is_an_input_error(self, tmp_path, capsys, case):
        where, doc = MALFORMED_INTEGERS[case]
        with pytest.raises(MalformedCertificateError, match="^" + re.escape(f"{where}: ")):
            certificate_from_dict(doc)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["cert-verify", str(p)])
        assert code == 1
        assert err.startswith(f"input error: {where}: ") and "must be an integer" in err

    def test_labelled_generator_space_round_trips(self, tmp_path):
        ss = load_space_from(tmp_path, {**_ROTATE_AND_SWAP, "generator_labels": ["r", "f"]})
        back = load_space_from(tmp_path, fixture_space_dict(ss))
        assert back.monoid.labels == ss.monoid.labels == ("1", "r", "f", "s3", "s4", "s5")
        assert back.action == ss.action

    @pytest.mark.parametrize("where", sorted(MALFORMED_LISTS))
    def test_non_list_field_is_an_input_error(self, tmp_path, capsys, where):
        doc = MALFORMED_LISTS[where]
        with pytest.raises(MalformedCertificateError, match=re.escape(f"{where}: ")):
            certificate_from_dict(doc)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["cert-verify", str(p)])
        assert code == 1
        assert err.startswith(f"input error: {where}: ") and "Traceback" not in err

    def test_non_utf8_files_name_their_path(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"points": ["caf\xe9"]}')
        with pytest.raises(SpaceFormatError, match="not UTF-8 at byte 16"):
            load_space(str(p))
        with pytest.raises(MalformedCertificateError, match=re.escape(f"{p}: not UTF-8")):
            load_certificate(str(p))


def load_space_from(tmp_path, doc):
    import os

    p = tmp_path / f"space_{len(os.listdir(tmp_path))}.json"
    p.write_text(json.dumps(doc))
    return load_space(str(p))


class TestJsonLeaves:
    """Every leaf of a --json report is written on purpose: the converter
    never falls back to the str of an object it does not know."""

    def test_no_report_falls_back_to_str(self, files, capsys, monkeypatch, tmp_path):
        convert = congruence.jsonable
        fallbacks = []

        def checked(value):
            out = convert(value)
            # a Fraction is written as "n/d" on purpose; any other object
            # that comes out a string took the fallback
            if isinstance(out, str) and not isinstance(value, (str, Fraction)):
                fallbacks.append(type(value).__name__)
            return out

        monkeypatch.setattr(congruence, "jsonable", checked)
        monkeypatch.setattr(serial, "jsonable", checked)
        spaces = {name: files[name] for name in ("parity_gens", "retraction", "partial")}
        for name, ss in fixture_spaces().items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(fixture_space_dict(ss)))
            spaces[name] = str(p)
        runs = [["--max-rules", "0", "measure", files["retraction"], "0"]]
        for f in spaces.values():
            whole = ",".join(map(str, range(load_space(f).n_atoms)))
            runs += [["space-check", f], ["lattice", f], ["type", f, "0"],
                     ["equi", f, "0", whole], ["paradox", f, whole],
                     ["measure", f, "0"], ["measure", f, whole]]
        runs += [["cert-verify", c] for c in ("builtin:galileo", "builtin:f2")]
        runs += [["cert-verify", files[c]] for c in ("galileo", "f2_id", "evens")]
        runs += [["corpus", "--suite", suite, "--count", "1"]
                 for suite in ("theorem1", "theorem2", "theorem3", "tarski", "soundness")]
        commands = set()
        for argv in runs:
            code, doc, _ = run_json(capsys, argv)
            assert code in (0, 2), argv
            commands.add(doc["command"])
        assert len(commands) == 8
        assert fallbacks == []

