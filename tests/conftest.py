import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import discrete_space, sierpinski_space
from topogame.games import _committed_search, _winner_solver
from topogame.lab import SUITES
from topogame.topology import FiniteSpace, enumerate_topologies, validate_topology


@pytest.fixture
def sierpinski() -> FiniteSpace:
    return sierpinski_space()


@pytest.fixture
def two_block3() -> FiniteSpace:
    # three points, clopen split {0} | {1,2}
    return validate_topology([0b000, 0b001, 0b110, 0b111], 3)


@pytest.fixture
def pseudocircle() -> FiniteSpace:
    # four points a,b,c,d; opens generated by {a}, {b}, {a,b,c}, {a,b,d}
    return validate_topology([0b0000, 0b0001, 0b0010, 0b0011, 0b0111, 0b1011, 0b1111], 4)


@pytest.fixture
def fresh_caches():
    """Cold knowledge-set searches, shared solvers and check-row memos,
    before and after the test."""

    def clear():
        _committed_search.cache_clear()
        _winner_solver.cache_clear()
        for check in SUITES.values():
            if hasattr(check, "cache_clear"):
                check.cache_clear()

    clear()
    yield
    clear()


@pytest.fixture
def discrete():
    return discrete_space


@pytest.fixture(scope="session")
def corpus3() -> list[tuple[str, FiniteSpace]]:
    out = []
    for n in (1, 2, 3):
        for i, sp in enumerate(enumerate_topologies(n)):
            out.append((f"n{n}#{i}", sp))
    return out


@pytest.fixture(scope="session")
def corpus4() -> list[tuple[str, FiniteSpace]]:
    return [(f"n4#{i}", sp) for i, sp in enumerate(enumerate_topologies(4))]
