import pytest

from nulldiam import Graph
from nulldiam.enumeration import _census_levels


@pytest.fixture(scope="session")
def census8() -> dict[int, list]:
    """One representative per isomorphism class of connected graphs, n <= 8,
    from one walk of the census levels, built once per test session."""
    levels = _census_levels(8, map)
    return {n: [Graph(rows) for rows in level] for n, level in enumerate(levels, start=1)}


@pytest.fixture(scope="session")
def census7(census8) -> dict[int, list]:
    """The n <= 7 levels of ``census8``."""
    return {n: census8[n] for n in range(1, 8)}
