"""Seeded inputs for the three workloads and the reference verdicts.

`laws` and `scales` each run over the seven named fixtures plus random
spaces drawn from `random_corpus(seed)` with a fixed mix of (kind,
atoms, monoid order).  Per-space cost is set by that triple (a
partial space of order 6 costs ~50x a two-atom group), so fixing the mix
keeps the cost of a run steady across seeds while the seed still picks
the spaces.  Spaces with four or five atoms are left out: one of them can
take from 2 s to 80 s, depending on the seed, on its own.

`queries` is a seeded list of CLI commands with a fixed mix of command,
space and set size; the seed picks the sets and the order.  The spaces
are JSON files written at set-up: the fixtures, two scaling families
and the built-in certificates.

Every query has a reference verdict signature (`signature`).  For the
scaling families it follows from their structure; for the fixtures it is
pinned in `reference.json` (regenerate with `pin_reference.py`).
"""

import itertools
import json
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# (kind, atoms, monoid order, spaces per run) for each suite workload.
# Per call, a partial space of order 6 costs ~0.75 s (theorem1), ~0.3 s
# (soundness), ~0.37 s (theorem3) and ~0.25 s (theorem2); the light
# classes cost 5-85 ms.  The counts put p90 of the per-call latencies
# inside the group of second-heaviest calls (soundness on `laws`,
# theorem2 on `scales`), away from the steps above and below it.  On
# `scales` the two-atom spaces, two of whose three calls are cheaper
# than any fixture's theorem2 call, put p50 in the middle of the group
# of 25-35 ms fixture calls.
CORPUS_MIX = {
    "laws": (("partial", 3, 6, 3), ("partial", 3, 3, 13), ("group", 3, 2, 7)),
    "scales": (("partial", 3, 6, 4), ("group", 2, 1, 14)),
}
POOL_SIZE = 480


def bench_corpus(seed: int, mix):
    """Fixtures plus a draw of `mix` from the seeded small-space pool."""
    from typemonoid.corpus import random_corpus
    from typemonoid.suites import corpus_with_fixtures

    rng = random.Random(seed)
    count = POOL_SIZE
    while True:
        pool = random_corpus(seed=seed, count=count, max_atoms=3, small_count=count)
        classes: Dict[Tuple[str, int, int], List[int]] = {}
        for i, e in enumerate(pool):
            key = (e.kind, e.statspace.n_atoms, e.statspace.monoid.order)
            classes.setdefault(key, []).append(i)
        if all(len(classes.get(m[:3], ())) >= m[3] for m in mix):
            break
        if count >= 8 * POOL_SIZE:
            raise RuntimeError(f"seed {seed}: corpus pool lacks a class of {mix}")
        count *= 2
    chosen = sorted(
        i for kind, atoms, order, k in mix
        for i in rng.sample(classes[(kind, atoms, order)], k)
    )
    return corpus_with_fixtures(seed=seed, count=0) + [pool[i] for i in chosen]


# ---------------------------------------------------------------------------
# query spaces


def cyclic_doc(n: int) -> Dict:
    """n singleton atoms rotated by one generator."""
    return {
        "points": [str(i) for i in range(n)],
        "atoms": [[i] for i in range(n)],
        "generators": [{str(i): (i + 1) % n for i in range(n)}],
    }


def pshift_doc(n: int) -> Dict:
    """Points 0..n-1 and sink n, singleton atoms, partial shift i -> i+1."""
    return {
        "points": [str(i) for i in range(n + 1)],
        "atoms": [[i] for i in range(n + 1)],
        "generators": [{str(i): i + 1 for i in range(n - 1)}],
        "sink": n,
    }


CYCLIC = (5, 6, 7, 8)
PSHIFT = (2, 3, 4)


def space_docs() -> Dict[str, Dict]:
    """Every query space by file stem."""
    from typemonoid.corpus import fixture_spaces
    from typemonoid.serial import fixture_space_dict

    docs = {f"cyclic-{n}": cyclic_doc(n) for n in CYCLIC}
    docs.update({f"pshift-{n}": pshift_doc(n) for n in PSHIFT})
    for name, ss in fixture_spaces().items():
        docs[f"fixture-{name}"] = fixture_space_dict(ss)
    return docs


def write_spaces(directory: str) -> Dict[str, int]:
    """Write the query spaces as JSON; returns atoms per file stem."""
    os.makedirs(directory, exist_ok=True)
    atoms = {}
    for stem, doc in space_docs().items():
        with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        atoms[stem] = len(doc["atoms"])
    return atoms


# ---------------------------------------------------------------------------
# verdict signatures


def signature(command: str, code: int, report: Optional[Dict]) -> List:
    """Exit code, verdict list and the command's verdict-like field.

    Witness shape (paths, relation indices) is deliberately left out.
    """
    if report is None:
        return [code, None, None]
    verdicts = [v["verdict"] for v in report.get("verdicts", [])]
    extra = {
        "space-check": lambda: not report.get("problems"),
        "equi": lambda: None,
        "paradox": lambda: report.get("null_type"),
        "measure": lambda: "measure" in report,
        "lattice": lambda: len(report.get("elements", ())),
        "type": lambda: [r["relation"] for r in report.get("atom_relations", ())],
        "cert-verify": lambda: report.get("ok"),
    }[command]()
    return [code, verdicts, extra]


def _fmt(atoms) -> str:
    return ",".join(str(a) for a in sorted(atoms))


def _family(stem: str) -> Tuple[str, int]:
    kind, n = stem.rsplit("-", 1)
    return kind, int(n)


def structural_signature(command: str, stem: str, sets: Sequence[frozenset]) -> List:
    """Reference signature for a scaling-family space, from its structure.

    cyclic-n: every singleton has the same type, so sets are equal iff
    they have the same size; no nonempty set is paradoxical or null, and
    each carries a normalized measure.  pshift-n: nothing maps onto point
    0, so every sink-free set has null type and a set's type is that of
    the sink if it holds the sink, zero otherwise.
    """
    kind, n = _family(stem)
    if kind == "cyclic":
        size = [len(s) for s in sets]
        null = [False for _ in sets]
        n_atoms = n
    else:
        sink = n
        size = [1 if sink in s else 0 for s in sets]
        null = [sink not in s for s in sets]
        n_atoms = n + 1
    if command == "lattice":
        return [0, ["definite"], 2]
    if command == "equi":
        return [0, ["equal" if size[0] == size[1] else "not_equal"], None]
    if command == "paradox":
        if null[0]:
            return [0, ["leq"], "equal"]
        return [0, ["not_leq"], "not_equal"]
    if command == "measure":
        return [0, ["definite"], not null[0]]
    if command == "type":
        atom_size = [1 if kind == "cyclic" or a == n else 0 for a in range(n_atoms)]
        rel = []
        for a in range(n_atoms):
            if size[0] == atom_size[a]:
                rel.append("=")
            elif size[0] < atom_size[a]:
                rel.append("<=")
            else:
                rel.append(">=")
        return [0, ["definite"] * n_atoms, rel]
    raise ValueError(f"no structural reference for {command}")


# ---------------------------------------------------------------------------
# fixture commands, pinned from a reference run


def fixture_commands(atoms_by_stem: Dict[str, int]) -> Dict[str, List[List[str]]]:
    """Every fixture command the query mix can draw, by cost group.

    cheap: under 5 ms; g3: ~25 ms; g4: ~50 ms; g5: ~110 ms.
    """
    groups: Dict[str, List[List[str]]] = {"cheap": [], "g3": [], "g4": [], "g5": []}
    for stem in sorted(atoms_by_stem):
        if not stem.startswith("fixture-"):
            continue
        n = atoms_by_stem[stem]
        subsets = [
            frozenset(c) for r in range(1, n + 1)
            for c in itertools.combinations(range(n), r)
        ]
        small = [s for s in subsets if len(s) <= 2]
        if stem != "fixture-sink":
            for s in subsets:
                groups["cheap"].append(["paradox", stem, _fmt(s)])
                groups["cheap"].append(["measure", stem, _fmt(s)])
            for a, b in itertools.combinations(small, 2):
                groups["cheap"].append(["equi", stem, _fmt(a), _fmt(b)])
        typed = {"fixture-cyclic4": "g3", "fixture-parity": "g4", "fixture-sink": "g5"}
        if stem in typed:
            groups[typed[stem]].extend(["type", stem, _fmt(s)] for s in small)
        if stem in ("fixture-parity", "fixture-sink"):
            groups["g4"].append(["lattice", stem])
    return groups


def command_key(args: Sequence[str]) -> str:
    return " ".join(args)


def load_reference() -> Dict[str, List]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the query mix


def _random_set(rng: random.Random, atoms: Sequence[int], max_size: int) -> frozenset:
    k = rng.randint(1, min(max_size, len(atoms)))
    return frozenset(rng.sample(list(atoms), k))


def _family_query(rng, command, stem, sinks, max_size):
    """A command on random nonempty sets of a family space.

    For pshift spaces `sinks` says, per set, whether it holds the sink:
    the cost of a command depends on that far more than on the rest.
    """
    kind, n = _family(stem)
    sets = []
    for with_sink in sinks:
        chosen = _random_set(rng, range(n), max_size)
        sets.append(chosen | {n} if kind == "pshift" and with_sink else chosen)
    return [command, stem] + [_fmt(s) for s in sets], structural_signature(command, stem, sets)


def query_mix(atoms_by_stem: Dict[str, int], reference: Dict[str, List]):
    """[(count, maker)]: a maker draws (args, reference signature).

    The commands fall into groups of near-equal cost, well apart from
    each other, and the counts place the median (rank 60 of 120) in the
    middle of the ~30 ms group and p90 (13th from the top) in the ~90 ms
    group, so both percentiles stay steady across seeds.  Those two
    groups are commands on singletons of a cyclic space, which all cost
    the same by symmetry.  On pshift spaces cost depends on whether a set
    holds the sink, so that is fixed per entry.
    """
    pinned = fixture_commands(atoms_by_stem)
    stems = sorted(atoms_by_stem)

    def fixture(group):
        def make(rng):
            args = rng.choice(pinned[group])
            return args, reference[command_key(args)]
        return make

    def family(command, stem, sinks=(None,), max_size=3):
        return lambda rng: _family_query(rng, command, stem, sinks, max_size)

    def any_space_check(rng):
        return ["space-check", rng.choice(stems)], [0, ["definite"], True]

    def certificate(rng):
        return ["cert-verify", rng.choice(["builtin:galileo", "builtin:f2"])], [0, ["definite"], True]

    def cyclic_equi(rng):
        return _family_query(rng, "equi", f"cyclic-{rng.choice(CYCLIC)}", (None, None), 3)

    return [
        # under 8 ms: 42 commands
        (8, any_space_check),
        (10, cyclic_equi),
        (6, certificate),
        (18, fixture("cheap")),
        # 11-25 ms: 12
        (3, family("measure", "pshift-3", sinks=(True,))),
        (3, family("equi", "pshift-2", sinks=(False, False))),
        (2, family("paradox", "pshift-3", sinks=(True,))),
        (4, fixture("g3")),
        # ~30 ms, all alike by symmetry, holds the median: 12
        (12, family("paradox", "cyclic-8", max_size=1)),
        # 40-75 ms: 35
        (4, family("paradox", "pshift-2", sinks=(False,))),
        (11, family("measure", "cyclic-8")),
        (4, family("lattice", "pshift-2", sinks=())),
        (6, family("lattice", "cyclic-5", sinks=())),
        (10, fixture("g4")),
        # 100-125 ms: 3
        (2, family("type", "pshift-2", sinks=(False,))),
        (1, fixture("g5")),
        # ~90 ms, all alike by symmetry, holds p90: 10
        (10, family("type", "cyclic-5", max_size=1)),
        # 0.3-1.7 s: 6
        (2, family("lattice", "cyclic-6", sinks=())),
        (2, family("type", "cyclic-6", max_size=1)),
        (1, lambda rng: (["equi", "pshift-3", "0", "2"], structural_signature(
            "equi", "pshift-3", [frozenset({0}), frozenset({2})]))),
        (1, family("lattice", "cyclic-7", sinks=())),
    ]


def query_list(seed: int, atoms_by_stem: Dict[str, int], reference: Dict[str, List]):
    """The seeded command list: [(args, reference signature)]."""
    rng = random.Random(seed)
    out = []
    for count, make in query_mix(atoms_by_stem, reference):
        out.extend(make(rng) for _ in range(count))
    rng.shuffle(out)
    return out
