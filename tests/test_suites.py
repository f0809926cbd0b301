import pytest

from typemonoid import suites
from typemonoid.congruence import Budget
from typemonoid.corpus import CorpusEntry, parity_space
from typemonoid.suites import _Tally


class _NoFormat:
    """An argument that must not be formatted."""

    def __format__(self, spec):
        raise AssertionError("message built for a passing check")


def test_check_formats_only_on_failure():
    tally = _Tally("t")
    tally.check(True, "{}: antisymmetry broken at {}, {}", "s", _NoFormat(), _NoFormat())
    p, q = frozenset({0, 2}), (1, 0)
    tally.check(False, "{}: additivity {} {}", "s", p, q)
    tally.check(False, "{}: distributivity {}", "s", {"law": "absorption-meet"})
    tally.check(False, "s: plain {braces} kept")
    assert tally.report["checks"] == 4
    assert tally.report["failures"] == [
        f"s: additivity {p} {q}",
        f"s: distributivity {({'law': 'absorption-meet'})}",
        "s: plain {braces} kept",
    ]


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_every_engine_runs_under_the_given_budget(monkeypatch, name):
    budget = Budget(max_rules=123)
    seen = []

    class Recording(suites.TypeEngine):
        def __init__(self, statspace, budget=Budget()):
            super().__init__(statspace, budget)
            seen.append(budget)

    monkeypatch.setattr(suites, "TypeEngine", Recording)
    entry = CorpusEntry(name="parity", statspace=parity_space(), kind="random")
    suites.SUITES[name]([entry], budget=budget)
    # theorem1 also builds an engine per end of each morphism pair
    assert seen and all(b is budget for b in seen)
