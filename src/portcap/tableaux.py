"""Young-diagram enumeration and the counts the qudit formulas consume.

A diagram is a tuple of weakly decreasing positive row lengths; the empty
tuple is the empty diagram.  For a diagram ``mu`` with at most ``d`` rows,

* ``syt_count(mu)`` is the number of standard fillings (Frobenius'
  determinant form), the dimension of the corresponding symmetric-group irrep;
* ``ssyt_count(mu, d)`` is the number of semistandard fillings with entries in
  {1..d} (Weyl dimension formula), the Schur-Weyl multiplicity;
* ``isotypic_dimensions(n, d)`` walks the diagrams of n boxes in at most d
  rows with m_mu d_mu, the product of the two counts above;
* ``add_boxes(alpha, k, d)`` enumerates the diagrams reachable from ``alpha``
  by adding k boxes one at a time through valid diagrams, with the number of
  such growth paths for each target.

The growth-path recursion is the only growth count in the package; the tests
check it on two rows against the closed spin-coupling form.

Growth from ``alpha`` depends on ``alpha`` only through its row gaps over
``max_rows`` padded rows, each capped at k: before the t-th of k added boxes
a row has gained at most t - 1 < k of them, so a gap of k or more never
blocks a box.  ``add_boxes`` of any ``alpha`` is therefore the table of the
smallest diagram with the same capped gaps, shifted row by row onto
``alpha``, in the same order and with the same counts; the fidelity sum
grows each such class once.
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
    # a pair of two empty rows contributes (j - i) / (j - i) = 1
    for i in range(len(mu)):
        for j in range(i + 1, d):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def isotypic_dimensions(n: int, d: int) -> Iterator[tuple[Diagram, int]]:
    """Each mu of ``enumerate_diagrams(n, d)`` with its m_mu d_mu, equal to
    ``ssyt_count(mu, d) * syt_count(mu)``; the values sum to d**n.  With
    l_i = mu_i + d - i over d padded rows and V = prod_{i<j} (l_i - l_j),
    m_mu d_mu = n! V**2 / (prod_{i<d} i! prod_i l_i!), so only (n) is counted
    outright: each later value is the last times (V'/V)**2 prod l_i!/l'_i! over
    the rows that changed, mostly one box moved from row d-1 to row d."""
    value = ssyt_count((n,), d) * syt_count((n,))  # raises on n < 0 or d < 1
    rows = [n] + [0] * (d - 1)
    ell = [row + d - i for i, row in enumerate(rows, 1)]
    while True:
        yield tuple(row for row in rows if row), value
        # rows d-1 and d trade boxes: only V's factors with those rows change
        if d > 1 and ell[-2] - ell[-1] > 2:
            (p, q), head, others = ell[-2:], tuple(rows[:-2]), ell[:-2]
            v_old = (p - q) * math.prod((e - p) * (e - q) for e in others)
            while p - q > 2:
                v_new = p - q - 2
                for e in others:
                    v_new *= (e - p + 1) * (e - q - 1)
                value = value * (v_new * v_new * p) // (v_old * v_old * (q + 1))
                v_old, p, q = v_new, p - 1, q + 1
                yield head + (p - 1, q), value
            rows[-2:], ell = [p - 1, q], others + [p, q]
        # next in lex order: the last row that can pass a box down, then refill
        tail = rows[-1]
        for i in range(d - 3, -1, -1):
            tail += rows[i + 1]
            if tail < (rows[i] - 1) * (d - 1 - i):
                break
        else:
            return
        # rows i+1.. hold tail boxes before the step and tail + 1 after, so
        # only rows i..live-1 change and the rest are empty on both sides:
        # V's factors between two unchanged rows cancel
        live = min(d, i + tail + 2)
        rows[i] -= 1
        for j in range(i + 1, d):
            rows[j] = min(rows[i], tail + 1)
            tail -= rows[j]
        new = [row + d - j for j, row in enumerate(rows, 1)]
        num = den = 1
        for j in range(i, live):
            now, old = new[j], ell[j]
            for h in range(j):
                num *= new[h] - now
                den *= ell[h] - old
        # the empty rows' l run over 0..empty-1, so a changed row's factors
        # against them telescope: prod_v (l' - v) / (l - v) is
        # l'! (l - empty)! / (l! (l' - empty)!), two runs of |l' - l| integers
        empty = d - live
        if empty:
            for j in range(i, live):
                now, old = new[j], ell[j]
                if now > old:
                    num *= math.prod(range(old + 1, now + 1))
                    den *= math.prod(range(old - empty + 1, now - empty + 1))
                elif now < old:
                    num *= math.prod(range(now - empty + 1, old - empty + 1))
                    den *= math.prod(range(now + 1, old + 1))
        num *= num
        den *= den
        for j in range(i, live):  # one of the two ranges is empty
            num *= math.prod(range(new[j] + 1, ell[j] + 1))
            den *= math.prod(range(ell[j] + 1, new[j] + 1))
        value, ell = value * num // den, new


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
