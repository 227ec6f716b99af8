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

The growth-path recursion is the authoritative count; the closed two-row
determinant form (``skew_count_two_row``) is kept as an independent
cross-check of it.
"""

from __future__ import annotations

import math
from typing import Iterator

from .exactmath import binomial

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


def add_one_box(mu: Diagram, max_rows: int) -> list[Diagram]:
    """Diagrams obtained from ``mu`` by adding a single box, keeping at most
    ``max_rows`` rows, in lexicographically decreasing order."""
    return [grown for grown, _ in add_boxes(mu, 1, max_rows)]


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


def skew_count_two_row(alpha: Diagram, mu: Diagram) -> int:
    """Growth-path count for nested two-row shapes via the closed determinant
    form, which reduces to a difference of two binomials:

        k! * det[ 1 / (mu_i - alpha_j - i + j)! ]  =  C(k, mu1-alpha1) - C(k, mu1-alpha2+1)

    with 1/x! = 0 for negative x and k = |mu| - |alpha|.  Must agree with the
    ``add_boxes`` recursion on its whole domain.
    """
    alpha = as_diagram(alpha)
    mu = as_diagram(mu)
    if len(alpha) > 2 or len(mu) > 2:
        raise ValueError("skew_count_two_row handles diagrams with at most 2 rows")
    a1, a2 = (alpha + (0, 0))[:2]
    m1, m2 = (mu + (0, 0))[:2]
    if m1 < a1 or m2 < a2:
        raise ValueError(f"shapes not nested: alpha={alpha}, mu={mu}")
    k = (m1 + m2) - (a1 + a2)
    if k < 1:
        raise ValueError("mu must contain at least one box more than alpha")
    return binomial(k, m1 - a1) - binomial(k, m1 - a2 + 1)
