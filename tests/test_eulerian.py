"""Eulerian-number correctness against independent counting oracles."""

import itertools
import math
import threading

import pytest

from logistic_horizon import (
    DomainError,
    count_ascents,
    eulerian_explicit,
    eulerian_row,
)

# rows 0..7 of the classical triangle, including the trailing zero slot
KNOWN_ROWS = [
    [1],
    [1, 0],
    [1, 1, 0],
    [1, 4, 1, 0],
    [1, 11, 11, 1, 0],
    [1, 26, 66, 26, 1, 0],
    [1, 57, 302, 302, 57, 1, 0],
    [1, 120, 1191, 2416, 1191, 120, 1, 0],
]


@pytest.mark.parametrize("n", range(8))
def test_known_rows(n):
    assert eulerian_row(n) == KNOWN_ROWS[n]


def test_single_values():
    assert eulerian_row(0)[0] == 1
    assert eulerian_row(3)[1] == 4
    assert eulerian_row(7)[3] == 2416
    assert eulerian_row(1)[1] == 0
    assert eulerian_row(5)[5] == 0


@pytest.mark.parametrize("n", range(21))
def test_row_sums_are_factorials(n):
    row = eulerian_row(n)
    assert sum(row) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_row_symmetry(n):
    row = eulerian_row(n)
    for k in range(n):
        assert row[k] == row[n - 1 - k]


@pytest.mark.parametrize("n", range(13))
def test_explicit_formula_matches_recurrence(n):
    for k in range(n + 1):
        assert eulerian_explicit(n, k) == eulerian_row(n)[k]


def test_explicit_single_value():
    assert eulerian_explicit(4, 2) == 11


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_permutation_counts(n):
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        counts[count_ascents(perm)] += 1
    assert counts == eulerian_row(n)


def test_count_ascents_examples():
    assert count_ascents([1, 2, 3]) == 2
    assert count_ascents([3, 2, 1]) == 0
    assert count_ascents([2, 1, 3]) == 1
    assert count_ascents([1]) == 0


def test_count_ascents_rejects_non_permutations():
    with pytest.raises(DomainError):
        count_ascents([1, 2, 2])
    with pytest.raises(DomainError):
        count_ascents([0, 1, 2])


def test_invalid_indices_rejected():
    with pytest.raises(DomainError):
        eulerian_row(-1)
    with pytest.raises(DomainError):
        eulerian_explicit(3, 4)
    with pytest.raises(DomainError):
        eulerian_row(2.0)


def test_concurrent_row_requests_are_consistent():
    # hammer the shared cache from several threads at once
    results = {}

    def worker(tag):
        results[tag] = [eulerian_row(n) for n in range(40)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    for tag in range(1, 8):
        assert results[tag] == baseline
    assert sum(baseline[30]) == math.factorial(30)
