"""The search budget is set once, when a congruence or engine is built.

Every decision, the omega layer's quotient decisions included, runs
under that budget and records it.  Besides the constructors, only the
corpus suite runners take one, and they hand it to every engine they
build; no decision takes one.
"""

import importlib
import inspect
import pkgutil

import typemonoid
from typemonoid.congruence import EQUAL, Budget
from typemonoid.corpus import parity_space
from typemonoid.types import TypeEngine


def _public_callables():
    """(qualified name, callable) for every public function, constructor
    and public method of a class defined in a typemonoid module."""
    for info in pkgutil.iter_modules(typemonoid.__path__):
        mod = importlib.import_module(f"typemonoid.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    public = attr == "__init__" or not attr.startswith("_")
                    if public and inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj


def test_only_constructors_take_a_budget():
    seen = dict(_public_callables())
    assert "typemonoid.congruence.Congruence.decide_eq" in seen
    assert "typemonoid.measures.synthesize_classical_measure" in seen
    takers = [q for q, f in seen.items() if "budget" in inspect.signature(f).parameters]
    # a Decision records the budget it ran under; a suite runner passes
    # its budget to the engines it builds
    assert takers == [
        "typemonoid.congruence.Decision.__init__",
        "typemonoid.congruence.Congruence.__init__",
        "typemonoid.suites.run_theorem1_suite",
        "typemonoid.suites.run_theorem2_suite",
        "typemonoid.suites.run_theorem3_suite",
        "typemonoid.suites.run_tarski_suite",
        "typemonoid.suites.run_soundness_audit",
        "typemonoid.types.TypeEngine.__init__",
    ]


def test_omega_quotient_decision_names_the_engine_budget():
    # e0 + omega on the odds equals e2 + omega on the odds by one swap in
    # the quotient by {1, 3}, whose completion needs the one rule of its
    # one relation, which no budget withholds
    ss = parity_space()
    tight = TypeEngine(ss, Budget(max_rules=0))
    p, q = tight.abar((1, 0, 0, 0), omega={1}), tight.abar((0, 0, 1, 0), omega={3})
    d = tight.decide_equal(p, q)
    assert (d.verdict, d.witness["kind"]) == (EQUAL, "omega_equal")
    assert d.budget is tight.budget
    assert d.to_json()["budget"] == {"max_rules": 0}
    quotient = tight.congruence._quotient(frozenset({1, 3}))
    assert quotient.budget is tight.budget
    assert quotient.stats["rules_added"] == 1
    # a quotient that runs out names max_rules: tests/test_congruence.py,
    # TestOmega::test_omega_unknown_adds_inner_causes
    assert tight.audit_decisions()["path"] == 1
