"""Shared test helpers and the acceptance summary block.

The terminal summary prints one line per acceptance criterion, read off
the actual pytest outcomes of tests/test_acceptance.py, so the block
can never disagree with the run itself.
"""

import importlib.util
import re
from pathlib import Path

CRITERIA = {
    1: "type addition/order/measure laws over the generated corpus",
    2: "equality decisions match the independent completion oracle",
    3: "measure synthesis succeeds exactly off the paradoxical sets",
    4: "parity space: idempotent diamond and N^2 type monoid",
    5: "collapse space: null atom, ideal, measure, exact factorization",
    6: "scale decomposition: embedding, quantity groups, distributivity",
    7: "continuity laws: monotone, subadditive, limits below and above",
    8: "infinite certificates verify; all twenty mutations rejected",
    9: "partial-bijection representation faithful; I(2)=7, I(3)=34",
    10: "soundness audit: every definite verdict re-verifies",
}


def differential_spaces():
    """(name, StatSpace) for the fixtures, the spaces of the benchmark's
    `queries` workload and the default random corpus at seeds 1, 2, 5, 7
    and 2024."""
    from typemonoid.corpus import fixture_spaces, random_corpus
    from typemonoid.serial import space_from_dict

    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = [(f"fixture {name}", ss) for name, ss in fixture_spaces().items()]
    out += [(f"query {stem}", space_from_dict(doc)) for stem, doc in inputs.space_docs().items()]
    for seed in (1, 2, 5, 7, 2024):
        out += [(f"seed {seed} {e.name}", e.statspace) for e in random_corpus(seed=seed)]
    return out


def structure_spaces():
    """(name, StatSpace) for `corpus_with_fixtures` at seeds 2024 and 7 and
    the hard-finite sample: up to 8 atoms and monoids of up to 60
    elements."""
    from typemonoid.corpus import random_corpus
    from typemonoid.suites import corpus_with_fixtures

    out = []
    for seed in (2024, 7):
        out += [(f"seed {seed} {e.name}", e.statspace) for e in corpus_with_fixtures(seed)]
    hard = random_corpus(seed=12, count=60, max_atoms=8, max_order=60, small_count=0)
    return out + [(f"hard {e.name}", e.statspace) for e in hard]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("failed", "error", "passed"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                results.setdefault(
                    int(m.group(1)), "PASS" if outcome == "passed" else "FAIL"
                )
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(results):
        terminalreporter.write_line(
            f"criterion {k:>2}  {CRITERIA.get(k, ''):<60} {results[k]}"
        )
