import multiprocessing

import pytest

from nulldiam import Graph, stream
from nulldiam.enumeration import _augment_parent, _canonical_rows, _census_levels
from nulldiam.stream import ordered_map


@pytest.fixture(scope="session")
def census_rows8() -> dict[int, list[tuple[int, ...]]]:
    """The census levels n <= 8 as adjacency rows, from one walk of
    ``_census_levels``, built once per test session.  Levels below 8 are
    canonically labelled; the last one is partly as built."""
    with ordered_map(1) as pmap:
        levels = _census_levels(8, pmap, canonical=False)
        return {n: list(level) for n, level in enumerate(levels, start=1)}


@pytest.fixture(scope="session")
def carried_parents7() -> dict[int, list[tuple[tuple[int, ...], tuple[bytes, ...]]]]:
    """The census levels n <= 7 as the census holds them to extend them:
    canonical rows with the automorphism generators they carry."""
    levels = {1: [((0,), ())]}
    for n in range(2, 8):
        levels[n] = [child for parent in levels[n - 1] for child in _augment_parent(parent)[0]]
    return levels


@pytest.fixture(scope="session")
def census8(census_rows8) -> dict[int, list]:
    """One representative per isomorphism class of connected graphs, n <= 8,
    in canonical labelling and census order, as ``connected_graphs`` yields
    them."""
    return {n: [Graph(_canonical_rows(rows)) for rows in level] for n, level in census_rows8.items()}


@pytest.fixture(scope="session")
def census7(census8) -> dict[int, list]:
    """The n <= 7 levels of ``census8``."""
    return {n: census8[n] for n in range(1, 8)}


@pytest.fixture
def two_cpus(monkeypatch) -> list:
    """Report two CPUs, so ``--jobs 2`` opens a real two-process pool on
    any host, and record each pool context opened (one entry a pool)."""
    monkeypatch.setattr(stream.os, "cpu_count", lambda: 2)
    opened = []
    get_context = multiprocessing.get_context

    def recording_context(*args):
        opened.append(args)
        return get_context(*args)

    monkeypatch.setattr(multiprocessing, "get_context", recording_context)
    return opened
