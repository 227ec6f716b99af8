"""Shared brute-force oracles, deliberately independent of the library's
formula implementations."""

from __future__ import annotations

import itertools
import math

import numpy as np


def count_syt_brute(shape: tuple[int, ...]) -> int:
    """Count standard fillings by backtracking over cells in row-major order."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    n = len(cells)
    if n == 0:
        return 1
    filling: dict[tuple[int, int], int] = {}

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for r, c in cells:
            if (r, c) in filling:
                continue
            if c > 0 and (r, c - 1) not in filling:
                continue
            if r > 0 and (r - 1, c) not in filling:
                continue
            filling[(r, c)] = value
            total += place(value + 1)
            del filling[(r, c)]
        return total

    return place(1)


def syt_count_hook(shape: tuple[int, ...]) -> int:
    """Standard fillings by the hook-length formula, n! / prod of hook lengths."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(sum(shape)) // hooks


def count_ssyt_brute(shape: tuple[int, ...], d: int) -> int:
    """Count semistandard fillings with entries in {1..d} by enumeration:
    rows weakly increase, columns strictly increase."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    total = 0
    for values in itertools.product(range(1, d + 1), repeat=len(cells)):
        filling = dict(zip(cells, values))
        ok = True
        for (r, c), v in filling.items():
            if c > 0 and filling[(r, c - 1)] > v:
                ok = False
                break
            if r > 0 and filling[(r - 1, c)] >= v:
                ok = False
                break
        total += ok
    return total


def growth_paths_brute(
    alpha: tuple[int, ...], mu: tuple[int, ...], max_rows: int
) -> int:
    """Count one-box-at-a-time growth sequences from alpha to mu by direct
    recursion over single additions (no memoization, no library calls)."""
    if alpha == mu:
        return 1
    if sum(mu) <= sum(alpha):
        return 0
    total = 0
    rows = list(alpha)
    for i in range(len(rows) + 1):
        if i == len(rows):
            if len(rows) >= max_rows:
                continue
            grown = tuple(rows) + (1,)
        else:
            if i > 0 and rows[i] + 1 > rows[i - 1]:
                continue
            grown = tuple(rows[:i]) + (rows[i] + 1,) + tuple(rows[i + 1 :])
        if all(g <= m for g, m in zip(grown, mu + (0,) * len(grown))) and len(
            grown
        ) <= len(mu):
            total += growth_paths_brute(grown, mu, max_rows)
    return total


def reference_coords(ports, p):
    """Row/column indices of one signal's d**(N+k) nonzeros, built one port
    tuple at a time: the reference for the batched coordinate tables."""
    N, k, d = p.N, p.k, p.d
    if len(ports) != k or len(set(ports)) != k or any(not 1 <= q <= N for q in ports):
        raise ValueError(f"ports must be {k} distinct indices in [1, {N}], got {ports}")
    da, db = d**N, d**k
    port_weights = [d ** (N - q) for q in ports]
    slot_weights = [d ** (k - 1 - t) for t in range(k)]

    x = np.arange(da, dtype=np.int64)
    digits = [(x // w) % d for w in port_weights]
    u = sum(dig * sw for dig, sw in zip(digits, slot_weights))
    base = x - sum(dig * w for dig, w in zip(digits, port_weights))
    rows = np.repeat(x * db + u, db)

    w_all = np.arange(db, dtype=np.int64)
    wdigits = [(w_all // sw) % d for sw in slot_weights]
    y_offsets = sum(wd * pw for wd, pw in zip(wdigits, port_weights))
    cols = (base[:, None] * db + (y_offsets * db + w_all)[None, :]).reshape(-1)
    return rows, cols


def reference_signal_sum(p):
    """The signal sum as a dense dim x dim matrix, one signal at a time from
    ``reference_coords``, in lexicographic port-tuple order."""
    rho = np.zeros((p.d**p.n, p.d**p.n))
    for ports in itertools.permutations(range(1, p.N + 1), p.k):
        rows, cols = reference_coords(ports, p)
        rho[rows, cols] += 1.0 / p.d**p.N
    return rho


def dense_rho(rho):
    """A weight-block matrix (``simulate.WeightBlocks``) embedded in its
    full dim x dim index space."""
    out = np.zeros(rho.shape)
    for b, block in zip(rho.indices, rho.blocks):
        out[np.ix_(b, b)] = block
    return out
