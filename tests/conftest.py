import pytest

from nulldiam import connected_graphs


@pytest.fixture(scope="session")
def census8() -> dict[int, list]:
    """One representative per isomorphism class of connected graphs, n <= 8,
    built once per test session."""
    return {n: list(connected_graphs(n)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def census7(census8) -> dict[int, list]:
    """The n <= 7 levels of ``census8``."""
    return {n: census8[n] for n in range(1, 8)}
