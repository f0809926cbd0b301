"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import sys
import types

import pytest

import inputs
import layers
from run import percentile


# ----- percentile rule --------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100, shuffled order must not matter
    assert percentile(samples[::-1], 90) == 90
    assert percentile(samples, 50) == 50


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89  # exactly ten beyond
    with pytest.raises(ValueError):
        percentile(range(99), 90)  # nine beyond
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 50)


# ----- self time with nested wrappers ------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def inner(k):
        clock.now += 3.0
        if k:
            inner_traced(k - 1)  # recursion within one layer
        return k

    inner_traced = tracer.wrap("inner", inner)

    def outer():
        clock.now += 2.0
        inner_traced(1)
        clock.now += 1.0

    tracer.wrap("outer", outer)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(3.0)
    assert tracer.self_s["inner"] == pytest.approx(6.0)


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    boom_traced = tracer.wrap("boom", boom)

    def outer():
        clock.now += 2.0
        with pytest.raises(KeyError):
            boom_traced()

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"boom": pytest.approx(1.0), "outer": pytest.approx(2.0)}


def test_observer_sees_the_result():
    tracer = layers.Tracer()
    seen = []
    traced = tracer.wrap("f", lambda x: x + 1,
                         observe=lambda t, args, result, prep: seen.append((args, result, prep)),
                         prepare=lambda args: "before")
    assert traced(1) == 2
    assert seen == [((1,), 2, "before")]


# ----- identity patcher ---------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")

    def f():
        return "f"

    class C:
        def m(self):
            return "m"

    C.__module__ = "fakepkg.a"
    a.f, a.C = f, C
    b = types.ModuleType("fakepkg.b")
    b.g = f  # imported under another name
    b.REGISTRY = {"f": f, "other": len}
    pkg.f = f
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, a, b, f, C


def test_patcher_finds_every_binding(fake_package):
    pkg, a, b, f, C = fake_package
    modules = layers.package_modules("fakepkg")
    assert len(layers.find_bindings(f, modules)) == 4
    patch = layers.Patch()
    wrapper = lambda: "wrapped"  # noqa: E731
    assert patch.replace(f, wrapper, modules) == 4
    assert a.f is b.g is b.REGISTRY["f"] is pkg.f is wrapper
    assert b.REGISTRY["other"] is len
    method = C.__dict__["m"]
    assert patch.replace(method, lambda self: "wrapped m", modules) == 1
    assert C().m() == "wrapped m"
    patch.undo()
    assert a.f is b.g is b.REGISTRY["f"] is pkg.f is f
    assert C().m() == "m"


def test_install_wraps_every_typemonoid_binding():
    import typemonoid
    import typemonoid.cli  # noqa: F401
    from typemonoid import cli, congruence, lattice, lp, measures, suites

    lp_fn, enum_fn = lp.exact_lp_feasible, lattice.enumerate_idempotents
    tracer = layers.Tracer()
    patch = layers.install(tracer)
    try:
        assert patch.absent == []
        assert lp.exact_lp_feasible is not lp_fn
        assert congruence.exact_lp_feasible is lp.exact_lp_feasible
        assert measures.exact_lp_feasible is lp.exact_lp_feasible
        for mod in (suites, cli, typemonoid):
            assert mod.enumerate_idempotents is lattice.enumerate_idempotents
        assert lattice.enumerate_idempotents is not enum_fn
        assert suites.SUITES["theorem1"] is suites.run_theorem1_suite
        report = suites.run_theorem2_suite(inputs.bench_corpus(1, inputs.CORPUS_MIX["scales"])[:1])
        assert report["ok"]
        assert tracer.calls["lattice.enumerate"] == 1
        assert tracer.calls["lp.feasible"] > 0
        assert tracer.calls["suites.run"] == 1
    finally:
        patch.undo()
    assert lp.exact_lp_feasible is lp_fn
    assert congruence.exact_lp_feasible is lp_fn
    assert cli.enumerate_idempotents is enum_fn


def test_missing_target_is_reported_absent():
    import typemonoid.cli  # noqa: F401

    tracer = layers.Tracer()
    patch = layers.install(tracer, [("gone.layer", "typemonoid.corpus", "no_such_name", None, None)])
    assert patch.absent == ["gone.layer (typemonoid.corpus.no_such_name)"]
    assert layers.layer_metrics(tracer) == {}


# ----- inputs -------------------------------------------------------------------


def test_query_list_is_seeded(tmp_path):
    atoms = inputs.write_spaces(str(tmp_path))
    reference = inputs.load_reference()
    first = inputs.query_list(7, atoms, reference)
    assert first == inputs.query_list(7, atoms, reference)
    assert first != inputs.query_list(8, atoms, reference)
    assert len(first) >= 100


@pytest.mark.parametrize("workload", ["laws", "scales"])
def test_bench_corpus_keeps_its_mix(workload):
    corpus = inputs.bench_corpus(3, inputs.CORPUS_MIX[workload])
    mix = {}
    for e in corpus:
        if e.kind != "fixture":
            key = (e.kind, e.statspace.n_atoms, e.statspace.monoid.order)
            mix[key] = mix.get(key, 0) + 1
    assert mix == {m[:3]: m[3] for m in inputs.CORPUS_MIX[workload]}
    assert sum(e.kind == "fixture" for e in corpus) == 7
