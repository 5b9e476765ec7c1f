import random

import pytest
from hypothesis import settings

from pglab.catalog import catalog, groups_of_order
from pglab.corpus import standard_corpus
from pglab.groups import Automorphism
from pglab.polyadic import all_derived, derive, derive_b

settings.register_profile("pglab", deadline=None, max_examples=60)
settings.load_profile("pglab")


def _named_structures():
    cat = catalog()
    inv = lambda m: Automorphism(tuple((-x) % m for x in range(m)))  # noqa: E731
    return {
        "T2": derive(cat["Z2"], Automorphism.identity(2), 0, 3),
        "T2b": derive_b(cat["Z2"], 1, 3),
        "T3": derive(cat["Z3"], Automorphism.identity(3), 0, 3),
        "T4": derive(cat["Z4"], Automorphism.identity(4), 0, 3),
        "T4inv": derive(cat["Z4"], inv(4), 0, 3),
        "T5": derive(cat["Z5"], Automorphism(tuple(2 * x % 5 for x in range(5))), 0, 5),
        "T9": derive(cat["Z9"], inv(9), 0, 3),
        "V4swap": derive(cat["Z2xZ2"], Automorphism((0, 2, 1, 3)), 0, 3),
        "T1": derive(cat["Z1"], Automorphism.identity(1), 0, 3),
    }


@pytest.fixture(scope="session")
def structs():
    return _named_structures()


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return standard_corpus(max_order=5)


@pytest.fixture(scope="session")
def twists_9_10():
    """Two twists of each of orders 9 and 10, arities 3-5, drawn with a
    fixed seed: the largest carriers both oracle scans take by default."""
    rng = random.Random(9)
    out = []
    for order in (9, 10):
        pool = [p for g in groups_of_order(order) for n in (3, 4, 5) for p in all_derived(g, n)]
        out.extend(rng.sample(pool, 2))
    return out
