"""Young-diagram enumeration and the three counts the qudit formulas consume.

A diagram is a tuple of weakly decreasing positive row lengths; the empty
tuple is the empty diagram.  For a diagram ``mu`` with at most ``d`` rows,

* ``syt_count(mu)`` is the number of standard fillings (Frobenius'
  determinant form), the dimension of the corresponding symmetric-group irrep;
* ``ssyt_count(mu, d)`` is the number of semistandard fillings with entries in
  {1..d} (Weyl dimension formula), the Schur-Weyl multiplicity;
* ``add_boxes(alpha, k, d)`` enumerates the diagrams reachable from ``alpha``
  by adding k boxes one at a time through valid diagrams, with the number of
  such growth paths for each target.

The growth-path recursion is the only growth count in the package; the tests
check it on two rows against the closed spin-coupling form.
"""

from __future__ import annotations

import math
from typing import Iterator

Diagram = tuple[int, ...]


def as_diagram(rows) -> Diagram:
    """Canonical diagram from any iterable of row lengths: validates weak
    decrease and trims trailing zero rows."""
    trimmed = []
    for r in rows:
        r = int(r)
        if r < 0:
            raise ValueError(f"row lengths must be nonnegative, got {r}")
        trimmed.append(r)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    for a, b in zip(trimmed, trimmed[1:]):
        if a < b:
            raise ValueError(f"row lengths must be weakly decreasing, got {tuple(rows)}")
    if any(r == 0 for r in trimmed):
        raise ValueError(f"zero row inside diagram {tuple(rows)}")
    return tuple(trimmed)


def enumerate_diagrams(boxes: int, max_rows: int) -> list[Diagram]:
    """All partitions of ``boxes`` with at most ``max_rows`` rows, in
    lexicographically decreasing order."""
    if boxes < 0:
        raise ValueError(f"boxes must be nonnegative, got {boxes}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be positive, got {max_rows}")

    def rec(remaining: int, cap: int, rows_left: int) -> Iterator[Diagram]:
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            # ensure the remaining boxes can still fit under this first row
            if remaining - first <= first * (rows_left - 1):
                for rest in rec(remaining - first, first, rows_left - 1):
                    yield (first, *rest)

    return list(rec(boxes, boxes if boxes else 1, max_rows))


def syt_count(mu: Diagram) -> int:
    """Number of standard Young tableaux of shape ``mu``, in Frobenius'
    determinant form over the r rows of ``mu``:

        n! * prod_{i<j} (l_i - l_j) / prod_i l_i!,   l_i = mu_i + r - i

    which costs O(r**2) products where the hook-length formula costs O(n).
    """
    mu = as_diagram(mu)
    r = len(mu)
    ell = [row + r - i for i, row in enumerate(mu, 1)]
    num = math.factorial(sum(mu))
    den = 1
    for i, li in enumerate(ell):
        den *= math.factorial(li)
        for lj in ell[i + 1 :]:
            num *= li - lj
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def ssyt_count(mu: Diagram, d: int) -> int:
    """Number of semistandard Young tableaux of shape ``mu`` with entries in
    {1..d}; equivalently the Weyl dimension of the GL(d) irrep.  Zero when the
    shape has more than d rows."""
    mu = as_diagram(mu)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if len(mu) > d:
        return 0
    padded = mu + (0,) * (d - len(mu))
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def add_boxes(alpha: Diagram, k: int, max_rows: int) -> list[tuple[Diagram, int]]:
    """Every diagram reachable from ``alpha`` by adding ``k`` boxes one at a
    time within ``max_rows`` rows, paired with its growth-path count.

    Returned in lexicographically decreasing order of the target diagram.
    """
    alpha = as_diagram(alpha)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    counts: dict[Diagram, int] = {alpha: 1}
    for _ in range(k):
        nxt: dict[Diagram, int] = {}
        for shape, paths in counts.items():
            # a box at the end of a row shorter than the row above, or in a
            # new row, keeps a valid diagram valid: no revalidation needed
            above = None
            for i, row in enumerate(shape):
                if above is None or row < above:
                    grown = shape[:i] + (row + 1,) + shape[i + 1 :]
                    nxt[grown] = nxt.get(grown, 0) + paths
                above = row
            if len(shape) < max_rows:
                grown = shape + (1,)
                nxt[grown] = nxt.get(grown, 0) + paths
        counts = nxt
    return sorted(counts.items(), reverse=True)
