"""Per-layer tracing from outside the package.

`Tracer.wrap` times a callable and keeps, per layer, the number of calls
and the self time: the wrapped duration minus the time of wrapped calls
nested inside it.  Hot layers make hundreds of thousands of calls, so the
tracer aggregates as it goes and stores no span per call.

`install` wraps every entry of `LAYERS` and patches by identity: each
attribute of a `typemonoid.*` module, of a class defined there, or of a
module-level dict that *is* the wrapped object gets the wrapper, so a
name imported into several modules (`exact_lp_feasible` in `congruence`
and `measures`, `enumerate_idempotents` in `suites`, `cli` and the
package `__init__`) is caught everywhere.  A layer whose target
no longer exists is reported as absent instead of failing the run.
"""

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "typemonoid"

VERDICTS = ("equal", "not_equal", "leq", "not_leq", "unknown")
WITNESS_KINDS = (
    "syntactic",
    "syntactic-normalized",
    "path",
    "functional",
    "domination",
    "saturation",
    "zero-bottom",
    "omega_equal",
    "omega_leq",
    "budget",
)


class Tracer:
    """Call counts, self times and extra counters, keyed by layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # time spent in wrapped children, one slot per open wrapped call
        self._child_s: List[float] = [0.0]

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, layer: str, fn: Callable, observe: Optional[Callable] = None,
             prepare: Optional[Callable] = None) -> Callable:
        """Return fn wrapped for `layer`.

        `prepare(args)` runs before the call; `observe(tracer, args,
        result, prepared)` runs after a call that returned.
        """
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        clock = self.clock
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prepared = prepare(args) if prepare else None
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_s.pop()
                child_s[-1] += elapsed
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - inner
            if observe:
                observe(self, args, result, prepared)
            return result

        return traced


# ---------------------------------------------------------------------------
# identity patching


def package_modules(package: str = PACKAGE) -> List:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def find_bindings(target, modules) -> List[Tuple[object, str]]:
    """Every (container, key) in the modules whose value is `target`.

    Containers are the modules themselves, classes defined in them, and
    module-level dicts (such as a registry of suite runners).
    """
    found = []
    seen = set()
    for mod in modules:
        containers = [mod]
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                containers.append(value)
            elif isinstance(value, dict):
                containers.append(value)
        for box in containers:
            if id(box) in seen:
                continue
            seen.add(id(box))
            items = box.items() if isinstance(box, dict) else vars(box).items()
            found.extend((box, key) for key, value in items if value is target)
    return found


def _assign(box, key, value) -> None:
    if isinstance(box, dict):
        box[key] = value
    else:
        setattr(box, key, value)


class Patch:
    """Replaced bindings, restorable with `undo`."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def replace(self, target, wrapper, modules) -> int:
        bindings = find_bindings(target, modules)
        for box, key in bindings:
            self._undo.append((box, key, target))
            _assign(box, key, wrapper)
        return len(bindings)

    def undo(self) -> None:
        for box, key, original in reversed(self._undo):
            _assign(box, key, original)
        self._undo.clear()


def _resolve(modname: str, qualname: str):
    obj = sys.modules.get(modname)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
    return obj


# ---------------------------------------------------------------------------
# observers: extra counters read off arguments and results


def _closure_memo_size(args):
    return len(args[0]._closures)


def _observe_closure(tracer, args, record, memo_before):
    if len(args[0]._closures) == memo_before:
        return  # served from the memo
    tracer.count("congruence.closure.fresh")
    tracer.count("congruence.closure.states", len(record.members))
    if not record.saturated:
        tracer.count("congruence.closure.unsaturated")
    max_states = args[3] if len(args) > 3 else None
    if max_states is not None and len(record.members) >= max_states:
        tracer.count("congruence.closure.max_states_hits")


def _observe_lp(tracer, args, result, _):
    if not result.feasible:
        tracer.count("lp.feasible.infeasible")


def _observe_engine(tracer, args, result, _):
    tracer.count("types.engine.relations", len(args[0].relations))


def _observe_decision(tracer, args, decision, _):
    tracer.count("types.verdict." + decision.verdict)
    tracer.count("types.witness." + str(decision.witness.get("kind")))


def _observe_lattice(tracer, args, lattice, _):
    tracer.count("lattice.enumerate.elements", len(lattice))


def _observe_synthesis(tracer, args, result, _):
    measure = getattr(result, "measure", result)
    if measure is None:
        tracer.count("measures.synthesize.no_measure")


# (layer, module, qualified name, observe, prepare); one layer may wrap
# several callables.
LAYERS = [
    ("congruence.closure", "typemonoid.congruence", "Congruence.class_closure",
     _observe_closure, _closure_memo_size),
    ("congruence.normalize", "typemonoid.congruence", "Congruence.normalize", None, None),
    ("congruence.decide", "typemonoid.congruence", "Congruence.decide_eq", None, None),
    ("congruence.decide", "typemonoid.congruence", "Congruence.decide_leq", None, None),
    ("congruence.decide", "typemonoid.congruence", "Congruence.eq_finite", None, None),
    ("congruence.decide", "typemonoid.congruence", "Congruence.leq_finite", None, None),
    ("lp.feasible", "typemonoid.lp", "exact_lp_feasible", _observe_lp, None),
    ("lp.kernel", "typemonoid.lp", "rational_kernel_basis", None, None),
    ("types.engine", "typemonoid.types", "TypeEngine.__init__", _observe_engine, None),
    ("types.decide", "typemonoid.types", "TypeEngine.decide_equal", _observe_decision, None),
    ("types.decide", "typemonoid.types", "TypeEngine.decide_leq", _observe_decision, None),
    ("types.audit", "typemonoid.types", "TypeEngine.audit_decisions", None, None),
    ("lattice.enumerate", "typemonoid.lattice", "enumerate_idempotents", _observe_lattice, None),
    ("lattice.quantity", "typemonoid.lattice", "embed", None, None),
    ("lattice.quantity", "typemonoid.lattice", "grothendieck_diff", None, None),
    ("lattice.quantity", "typemonoid.lattice", "quantity_add", None, None),
    ("lattice.quantity", "typemonoid.lattice", "quantity_eq", None, None),
    ("measures.synthesize", "typemonoid.measures", "synthesize_classical_measure",
     _observe_synthesis, None),
    ("measures.paradox", "typemonoid.measures", "is_paradoxical", None, None),
    ("measures.continuity", "typemonoid.measures", "continuity_suite", None, None),
    ("certificates.verify", "typemonoid.certificates", "verify_certificate", None, None),
    ("serial.load_space", "typemonoid.serial", "load_space", None, None),
    ("partial_bijection.closure", "typemonoid.partial_bijection", "closure", None, None),
    ("corpus.transformation_closure", "typemonoid.corpus", "transformation_closure", None, None),
    ("monoid.check", "typemonoid.monoid", "check_inverse_monoid", None, None),
    ("corpus.random_corpus", "typemonoid.corpus", "random_corpus", None, None),
    ("cli.main", "typemonoid.cli", "main", None, None),
    ("suites.run", "typemonoid.suites", "run_theorem1_suite", None, None),
    ("suites.run", "typemonoid.suites", "run_theorem2_suite", None, None),
    ("suites.run", "typemonoid.suites", "run_theorem3_suite", None, None),
    ("suites.run", "typemonoid.suites", "run_tarski_suite", None, None),
    ("suites.run", "typemonoid.suites", "run_soundness_audit", None, None),
]

# counters reported even when they stay at zero
EXTRA_COUNTS = {
    "congruence.closure": ("fresh", "states", "unsaturated", "max_states_hits"),
    "lp.feasible": ("infeasible",),
    "types.engine": ("relations",),
    "lattice.enumerate": ("elements",),
    "measures.synthesize": ("no_measure",),
}


def install(tracer: Tracer, layers=LAYERS) -> Patch:
    """Wrap every layer target in the loaded package; returns the patch."""
    modules = package_modules()
    patch = Patch()
    for layer, modname, qualname, observe, prepare in layers:
        target = _resolve(modname, qualname)
        if target is None:
            patch.absent.append(f"{layer} ({modname}.{qualname})")
            continue
        patch.replace(target, tracer.wrap(layer, target, observe, prepare), modules)
    return patch


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Flatten the tracer into `{metric: (value, unit)}`.

    A layer none of whose targets exists was never wrapped, so its
    metrics are absent."""
    out: Dict[str, Tuple[float, str]] = {}
    for layer in sorted(tracer.calls):
        out[layer + ".calls"] = (tracer.calls[layer], "count")
        out[layer + ".self_s"] = (tracer.self_s[layer], "s")
        for extra in EXTRA_COUNTS.get(layer, ()):
            name = f"{layer}.{extra}"
            out[name] = (tracer.counts.get(name, 0), "count")
    if "types.decide" in tracer.calls:
        for v in VERDICTS:
            out["types.verdict." + v] = (tracer.counts.get("types.verdict." + v, 0), "count")
        for k in WITNESS_KINDS:
            out["types.witness." + k] = (tracer.counts.get("types.witness." + k, 0), "count")
    return out
