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
