"""Eulerian numbers.

The Eulerian number ``A(n, k)`` counts permutations of ``{1, ..., n}``
with exactly ``k`` ascents (positions ``i`` with ``p[i] < p[i+1]``).
Rows are built from the standard two-term recurrence

    A(n, k) = (k + 1) * A(n-1, k) + (n - k) * A(n-1, k-1)

with ``A(0, 0) = 1``.  All arithmetic is exact integer arithmetic, so
rows of any order are representable; there is no overflow to guard
against, only time.

Each row here carries a trailing zero entry: ``A(n, n) = 0`` for
``n >= 1``, matching the convention in which the factored derivative
polynomials below index ``k`` from 0 through ``n``.  Row 0 is ``[1]``.

Rows are memoized module-wide.  The cache only ever grows and rows are
immutable once computed, so a single lock around extension is enough to
make concurrent readers safe.
"""

from __future__ import annotations

import threading
from math import comb
from typing import Sequence

from .errors import DomainError, require_int, show

# rows[n] is the full row (A(n,0), ..., A(n,n)); grown on demand
_rows: list[tuple[int, ...]] = [(1,)]
_rows_lock = threading.Lock()


def _extend_rows(n: int) -> None:
    with _rows_lock:
        while len(_rows) <= n:
            m = len(_rows)
            prev = _rows[m - 1]
            row = [0] * (m + 1)
            for k in range(m):
                row[k] = (k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0)
            _rows.append(tuple(row))


def eulerian_row(n: int) -> list[int]:
    """Return ``[A(n, 0), ..., A(n, n)]`` as exact integers.

    The final entry is 0 for every ``n >= 1``.
    """
    require_int(n, "row index", 0)
    if n >= len(_rows):
        _extend_rows(n)
    return list(_rows[n])


def eulerian_explicit(n: int, k: int) -> int:
    """``A(n, k)`` from the alternating binomial sum, independent of the
    recurrence:

        A(n, k) = sum_{j=0}^{k} (-1)^j * C(n+1, j) * (k + 1 - j)^n

    Exact integers throughout.  Requires ``0 <= k <= n``.
    """
    require_int(n, "n", 0)
    require_int(k, "k", 0)
    if k > n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={show(k)} for n={n}")
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n
    return total


def count_ascents(perm: Sequence[int]) -> int:
    """Number of ascents of ``perm``, which must be a permutation of
    ``1..len(perm)``."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError("input is not a permutation of 1..n")
    return sum(1 for i in range(n - 1) if perm[i] < perm[i + 1])
