"""Command-line surface: exit codes, report schema, determinism."""

import json

import pytest

from typemonoid.cli import main
from typemonoid.corpus import fixture_spaces
from typemonoid.serial import (
    SpaceFormatError,
    certificate_from_dict,
    fixture_space_dict,
    load_space,
    parse_set_expr,
)

Z_ALL = {"mod": 1, "residues": [0]}
F2_ALL = "%|(a|A|b|B)(a|A|b|B)*"


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

    def test_json_report_fields(self, files, capsys):
        code, doc, _ = run_json(capsys, ["space-check", files["parity"]])
        assert code == 0
        assert doc["schema_version"] == 2
        assert doc["command"] == "space-check"
        assert doc["monoid"]["valid"] is True
        assert doc["action"]["valid"] is True
        assert doc["budget"] == {"coordinate_cap": None, "max_states": 40000}


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
            capsys, ["--max-states", "1", "equi", files["parity"], "0", "2"]
        )
        assert code == 2
        assert doc["decision"]["verdict"] == "unknown"


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
        assert doc["stages"] == [{"infinite": [], "feasible": True, "method": "cone"}]

    def test_collapse_null_atom_infeasible(self, files, capsys):
        code, doc, _ = run_json(capsys, ["measure", files["collapse"], "1"])
        assert code == 0
        assert "measure" not in doc
        assert len(doc["stages"]) == 1
        (st,) = doc["stages"]
        assert st["infinite"] == [] and not st["feasible"] and st["method"] == "lp"
        assert st["farkas"]
        code, out, _ = run(capsys, ["measure", files["collapse"], "1"])
        assert code == 0
        assert out.splitlines()[0].startswith("infeasible: Farkas certificate")

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


def load_space_from(tmp_path, doc):
    import os

    p = tmp_path / f"space_{len(os.listdir(tmp_path))}.json"
    p.write_text(json.dumps(doc))
    return load_space(str(p))
