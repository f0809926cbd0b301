"""Command-line surface.

Every subcommand builds a report dict with stable field names
(`schema_version`, `command`, `budget`, `verdicts`, plus per-command
payload) and prints it as text, or as JSON under `--json`.  Exit codes:
0 all verdicts definite, 2 an Unknown verdict or exhausted budget,
1 input error (parse failure, invalid space, rejected certificate).
Output is deterministic for fixed inputs and flags; wall-clock timings
appear only under `--timings`.
"""

import argparse
import functools
import sys
import time
from typing import List, Optional

from .congruence import Budget, EQUAL, LEQ, NOT_LEQ, UNKNOWN
from .certificates import (
    builtin_f2_duplication,
    builtin_galileo,
    verify_certificate,
)
from .errors import (
    BudgetExhaustedError,
    MalformedCertificateError,
    NormalizationImpossibleError,
    TypemonoidError,
)
from .lattice import enumerate_idempotents, idempotent_of
from .measures import is_paradoxical, synthesize_classical_measure
from .monoid import check_inverse_monoid
from .serial import (
    SpaceFormatError,
    load_certificate,
    load_space,
    parse_set_expr,
    report_to_json,
)
from .spaces import validate_action
from .suites import SUITES, corpus_with_fixtures
from .types import TypeEngine

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2


def _budget_from_args(args) -> Budget:
    return Budget(
        coordinate_cap=args.coordinate_cap,
        max_states=args.max_states,
    )


def _base_report(args, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "budget": {
            "coordinate_cap": args.coordinate_cap,
            "max_states": args.max_states,
        },
        "verdicts": [],
    }


def _emit(args, report: dict, lines: List[str], started: float) -> int:
    code = report.get("exit_code", EXIT_OK)
    if args.timings:
        report["timings"] = {"seconds": round(time.perf_counter() - started, 3)}
    if args.json:
        print(report_to_json(report))
    else:
        for line in lines:
            print(line)
        if args.timings:
            print(f"elapsed {report['timings']['seconds']}s")
    return code


def _set_verdict(report: dict, name: str, verdict: str):
    report["verdicts"].append({"name": name, "verdict": verdict})
    if verdict == UNKNOWN and report.get("exit_code", EXIT_OK) == EXIT_OK:
        report["exit_code"] = EXIT_UNKNOWN


def _vec_str(v) -> str:
    fin = "(" + ",".join(str(x) for x in v.finite) + ")"
    if v.omega:
        return fin + " + omega{" + ",".join(str(i) for i in sorted(v.omega)) + "}"
    return fin


# ---------------------------------------------------------------------------
# subcommands


def cmd_space_check(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "space-check")
    ss = load_space(args.space)
    mon = check_inverse_monoid(ss.monoid)
    act = validate_action(ss)
    report["monoid"] = {
        "order": ss.monoid.order,
        "valid": mon.valid,
        "associative": mon.associative,
        "regular": mon.regular,
        "unique_weak_inverse": mon.unique_weak_inverse,
        "idempotents_commute": mon.idempotents_commute,
        "idempotents": list(mon.idempotents),
    }
    report["action"] = {
        "valid": act.valid,
        "unit_acts_as_identity": act.unit_acts_as_identity,
        "homomorphism": act.homomorphism,
        "measurable": act.measurable,
    }
    lines = [
        f"space: {len(ss.space.points)} points, {ss.n_atoms} atoms, "
        f"monoid order {ss.monoid.order}"
    ]
    problems = []
    if not mon.valid:
        for field, witness in (
            ("associativity", mon.assoc_witness),
            ("unit", mon.unit_witness),
            ("regularity", mon.regular_witness),
            ("weak-inverse uniqueness", mon.uniqueness_witness),
            ("idempotent commutation", mon.commute_witness),
        ):
            if witness is not None:
                problems.append(f"monoid fails {field} at {witness}")
    if not act.valid:
        if act.homomorphism_witness:
            problems.append(f"action not a homomorphism at {act.homomorphism_witness}")
        if act.measurability_witness is not None:
            problems.append(f"action not measurable at {act.measurability_witness}")
        if not act.unit_acts_as_identity:
            problems.append("unit does not act as the identity")
    report["problems"] = problems
    if problems:
        report["exit_code"] = EXIT_INPUT
        lines.append("INVALID")
        lines.extend("  " + p for p in problems)
    else:
        lines.append("valid")
    _set_verdict(report, "space_valid", "definite")
    return _emit(args, report, lines, started)


def cmd_type(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "type")
    ss = load_space(args.space)
    budget = _budget_from_args(args)
    eng = TypeEngine(ss, budget)
    aset = parse_set_expr(ss, args.set)
    t = eng.type_of(aset)
    scale = idempotent_of(eng, t)
    report["set"] = sorted(aset)
    report["representative"] = {
        "finite": list(t.rep.finite),
        "omega": sorted(t.rep.omega),
    }
    report["scale"] = str(scale)
    lines = [
        f"set {sorted(aset)}",
        f"representative {_vec_str(t.rep)}",
        f"scale {scale}",
    ]
    relations = []
    for a in range(ss.n_atoms):
        ta = eng.type_of(frozenset({a}))
        fwd = eng.decide_leq(t, ta)
        bwd = eng.decide_leq(ta, t)
        if fwd.verdict == LEQ and bwd.verdict == LEQ:
            rel = "="
        elif fwd.verdict == LEQ:
            rel = "<="
        elif bwd.verdict == LEQ:
            rel = ">="
        elif fwd.verdict == NOT_LEQ and bwd.verdict == NOT_LEQ:
            rel = "incomparable"
        else:
            rel = "unknown"
        relations.append({"atom": a, "relation": rel})
        _set_verdict(
            report,
            f"order_vs_atom_{a}",
            "unknown" if rel == "unknown" else "definite",
        )
        label = ss.space.atom_labels[a] if ss.space.atom_labels else str(a)
        lines.append(f"  vs atom {label}: {rel}")
    report["atom_relations"] = relations
    return _emit(args, report, lines, started)


def cmd_equi(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "equi")
    ss = load_space(args.space)
    eng = TypeEngine(ss, _budget_from_args(args))
    p = eng.type_of(parse_set_expr(ss, args.left))
    q = eng.type_of(parse_set_expr(ss, args.right))
    d = eng.decide_equal(p, q)
    audit = eng.audit_decisions()
    report["decision"] = d.to_json()
    report["audit"] = audit
    _set_verdict(report, "equidecomposable", d.verdict)
    lines = [f"verdict {d.verdict}", f"witness {d.to_json()['witness']}"]
    lines.append(f"audit replayed: {audit}")
    return _emit(args, report, lines, started)


def cmd_paradox(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "paradox")
    ss = load_space(args.space)
    eng = TypeEngine(ss, _budget_from_args(args))
    aset = parse_set_expr(ss, args.set)
    d = is_paradoxical(eng, aset)
    null = eng.decide_equal(eng.type_of(aset), eng.type_zero())
    audit = eng.audit_decisions()
    report["decision"] = d.to_json()
    report["null_type"] = null.verdict
    report["audit"] = audit
    _set_verdict(report, "paradoxical", d.verdict)
    if d.verdict == LEQ:
        head = "paradoxical (two copies fit inside one)"
        if null.verdict == EQUAL:
            head += "; degenerate: the set has null type"
    elif d.verdict == NOT_LEQ:
        head = "not paradoxical"
    else:
        head = "unknown at this budget"
    lines = [head, f"witness {d.to_json()['witness']}", f"audit replayed: {audit}"]
    return _emit(args, report, lines, started)


def cmd_measure(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "measure")
    ss = load_space(args.space)
    aset = parse_set_expr(ss, args.set)
    syn = synthesize_classical_measure(ss, aset, want_report=True)
    report["stages"] = syn.stages
    if syn.measure is not None:
        m = syn.measure
        report["measure"] = m.to_json()
        report["invariants"] = "checked"
        _set_verdict(report, "measure_exists", "definite")
        lines = ["feasible, invariant-checked"]
        for a in range(ss.n_atoms):
            label = ss.space.atom_labels[a] if ss.space.atom_labels else str(a)
            val = "inf" if a in m.infinite_atoms else str(m.finite_values[a])
            lines.append(f"  mu({label}) = {val}")
    else:
        _set_verdict(report, "measure_exists", "definite")
        lines = [f"infeasible: Farkas certificate {syn.stages[0]['farkas']}"]
    return _emit(args, report, lines, started)


def cmd_lattice(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "lattice")
    ss = load_space(args.space)
    eng = TypeEngine(ss, _budget_from_args(args))
    lat = enumerate_idempotents(eng)
    elements = [str(e) for e in lat]
    covers = [(str(a), str(b)) for a, b in lat.covers()]
    report["elements"] = elements
    report["covers"] = covers
    _set_verdict(report, "lattice", "definite")
    lines = [f"{len(elements)} idempotents"]
    lines.extend(f"  {a} < {b}" for a, b in covers)
    dot = lat.to_dot()
    if args.dot:
        if args.dot == "-":
            lines.append(dot)
        else:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
            lines.append(f"wrote {args.dot}")
        report["dot"] = dot
    return _emit(args, report, lines, started)


def cmd_cert_verify(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "cert-verify")
    if args.certificate == "builtin:galileo":
        cert = builtin_galileo()
    elif args.certificate == "builtin:f2":
        cert = builtin_f2_duplication()
    else:
        cert = load_certificate(args.certificate)
    res = verify_certificate(cert, window=args.window)
    report["certificate"] = args.certificate
    report["ok"] = res.ok
    report["problems"] = list(res.problems)
    report["details"] = dict(res.details)
    _set_verdict(report, "certificate", "definite")
    if res.ok:
        lines = ["verified"]
        if res.details.get("duplication"):
            lines.append(f"  {res.details['paradox_witness']}")
    else:
        report["exit_code"] = EXIT_INPUT
        lines = ["REJECTED"]
        lines.extend("  " + p for p in res.problems)
    return _emit(args, report, lines, started)


def cmd_corpus(args) -> int:
    started = time.perf_counter()
    report = _base_report(args, "corpus")
    entries = corpus_with_fixtures(seed=args.seed, count=args.count)
    summary = SUITES[args.suite](entries)
    report["summary"] = summary
    _set_verdict(
        report, args.suite, "definite" if not summary["unknown"] else UNKNOWN
    )
    if summary["failures"]:
        report["exit_code"] = EXIT_INPUT
    lines = [
        f"suite {args.suite}: {'ok' if summary['ok'] else 'FAILED'}",
        f"  spaces {len(entries)}  checks {summary['checks']}  "
        f"unknown {summary['unknown']}  failures {len(summary['failures'])}",
    ]
    for f in summary["failures"][:10]:
        lines.append(f"  FAIL {f}")
    return _emit(args, report, lines, started)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="typemonoid",
        description="Equidecomposability types, scales, and stationary "
        "measures on finite symmetric measurable spaces.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument(
        "--timings", action="store_true", help="include wall-clock timings"
    )
    ap.add_argument("--max-states", type=int, default=40000, metavar="N")
    ap.add_argument(
        "--coordinate-cap",
        type=int,
        default=None,
        metavar="C",
        help="override the per-query coordinate cap",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("space-check", help="validate a space file")
    p.add_argument("space")
    p.set_defaults(func=cmd_space_check)

    p = sub.add_parser("type", help="type of a measurable set")
    p.add_argument("space")
    p.add_argument("set", help="comma-separated atom indices or labels")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("equi", help="decide equidecomposability of two sets")
    p.add_argument("space")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equi)

    p = sub.add_parser("paradox", help="decide whether a set duplicates itself")
    p.add_argument("space")
    p.add_argument("set")
    p.set_defaults(func=cmd_paradox)

    p = sub.add_parser(
        "measure", help="synthesize a stationary measure normalized on a set"
    )
    p.add_argument("space")
    p.add_argument("set")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("lattice", help="idempotent scale lattice")
    p.add_argument("space")
    p.add_argument("--dot", metavar="OUT", help="write Hasse diagram ('-' = stdout)")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser(
        "cert-verify",
        help="verify a certificate file, builtin:galileo, or builtin:f2",
    )
    p.add_argument("certificate")
    p.add_argument("--window", type=int, default=1000, metavar="N")
    p.set_defaults(func=cmd_cert_verify)

    p = sub.add_parser("corpus", help="run a property suite over the corpus")
    p.add_argument(
        "--suite",
        required=True,
        choices=["theorem1", "theorem2", "theorem3", "tarski", "soundness"],
    )
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--count", type=int, default=60, help="random spaces to generate")
    p.set_defaults(func=cmd_corpus)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpaceFormatError, MalformedCertificateError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NormalizationImpossibleError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TypemonoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
