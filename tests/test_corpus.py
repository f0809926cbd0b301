"""The random corpus against a reference that recounts its small spaces."""

import random

import pytest

from typemonoid import corpus
from typemonoid.corpus import CorpusEntry, random_corpus


def _recounting_corpus(seed=2024, count=60, max_atoms=5, max_order=8, small_count=24):
    """Reference for random_corpus: the same draws, with the spaces of at
    most three atoms counted over the whole output before every draw."""
    rng = random.Random(seed)
    out = []
    makers = [
        ("group", corpus._random_group_space),
        ("retraction", corpus._random_retraction_space),
        ("partial", corpus._random_partial_space),
    ]
    k = 0
    while len(out) < count:
        want_small = sum(1 for e in out if e.statspace.n_atoms <= 3) < small_count
        cap_atoms = 3 if want_small else max_atoms
        kind, maker = makers[k % len(makers)]
        k += 1
        ss = maker(rng, cap_atoms, max_order)
        if ss is None:
            continue
        out.append(CorpusEntry(name=f"{kind}_{len(out)}", statspace=ss, kind=kind))
    return out


@pytest.mark.parametrize(
    "params",
    [
        {"seed": 1},
        {"seed": 7},
        {"seed": 2024},
        # the benchmark's small-space pool
        {"seed": 2024, "count": 480, "max_atoms": 3, "small_count": 480},
        # the hard-finite sample
        {"seed": 12, "count": 60, "max_atoms": 8, "max_order": 60, "small_count": 0},
    ],
    ids=["seed1", "seed7", "seed2024", "bench-pool", "hard-sample"],
)
def test_matches_the_recounting_reference(params):
    # entries compare by name, kind, points, atoms, labels, table and action
    assert random_corpus(**params) == _recounting_corpus(**params)
