"""Brute-force ground truth at small scale: explicit signal operators, their
sum, square-root measurements, and the figures of merit computed directly
from dense matrices.

Every closed formula in the package is certified against this module on the
instances where a dense eigensolve is feasible (d**(N+k) <= 4096).  Signals
are built directly as tensor products of maximally entangled projectors with
identities, an independent route from the permutation-operator algebra used
by ``bounds.pairwise_signal_trace``.

The signal sum rho is dense and diagonalized block by block, one block per
U(1)^d weight of the basis indices, with the block structure checked exactly
against rho's nonzeros.  Each signal has rank d**(N-k): it is 1/d^N times a
sum of all-ones blocks over d**(N-k) groups of d**k rows, checked exactly
against its coordinates.  The per-outcome traces and the square-root
measurement are computed from that factor, so no per-outcome
d**(N+k) x d**(N+k) matrix is formed.

System order inside a matrix: the N port systems first, then the k teleported
slots.  A port tuple is in slot order (t-th entry = port paired with slot t).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import ProtocolParams

DIM_GUARD = 4096
SUPPORT_RTOL = 1e-12


def all_port_tuples(N: int, k: int) -> list[tuple[int, ...]]:
    """All k! C(N,k) ordered tuples of k distinct ports, in lexicographic order."""
    return list(itertools.permutations(range(1, N + 1), k))


def _check_guard(p: ProtocolParams) -> int:
    dim = p.d**p.n
    if dim > DIM_GUARD:
        raise ValueError(
            f"dense simulation limited to d**(N+k) <= {DIM_GUARD}, got {dim}"
        )
    return dim


def _signal_coords(
    ports: tuple[int, ...], p: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the d**(N+k) nonzero entries of a signal.

    A basis vector factors as |x> on the ports and |u> on the slots.  The
    signal (1/d^N) 1_(other ports) x phi+ (paired port/slot systems) connects
    (x, u=x[ports]) to (y, v=y[ports]) whenever x and y agree off the tuple,
    leaving x free and the paired digits of y free: exactly dim nonzeros, all
    equal to 1/d^N.
    """
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


def signal_sum(p: ProtocolParams) -> np.ndarray:
    """Sum of all normalized signals (trace k! C(N,k))."""
    dim = _check_guard(p)
    rho = np.zeros((dim, dim))
    val = 1.0 / p.d**p.N
    for ports in all_port_tuples(p.N, p.k):
        rows, cols = _signal_coords(ports, p)
        np.add.at(rho, (rows, cols), val)
    return rho


def _signal_groups(ports: tuple[int, ...], p: ProtocolParams) -> np.ndarray:
    """Row groups of a signal, shape (d**(N-k), d**k): sigma = v * sum_g 1_g 1_g^T
    with v = 1/d^N, so sigma = v G G^T for the 0/1 indicator G of the groups.

    A row's group is the set of its columns.  The factorization is checked
    exactly, in integers, against ``_signal_coords``: each of the d**N rows
    carries d**k entries, and its column set equals its group's row set.
    """
    rows, cols = _signal_coords(ports, p)
    db = p.d**p.k
    if rows.size != p.d**p.N * db:
        raise ValueError(f"signal {ports} has {rows.size} entries, expected {p.d**p.N * db}")
    order = np.lexsort((cols, rows))
    rows, cols = rows[order].reshape(-1, db), cols[order].reshape(-1, db)
    row_ids = rows[:, 0]
    by_group = np.lexsort((row_ids, cols[:, 0]))
    groups = row_ids[by_group].reshape(-1, db)
    exact = (
        (rows == row_ids[:, None]).all()
        and np.unique(row_ids).size == row_ids.size
        and (cols[by_group].reshape(groups.shape + (db,)) == groups[:, None, :]).all()
    )
    if not exact:
        raise ValueError(f"signal {ports} is not a sum of all-ones blocks over row groups")
    return groups


def _weight_keys(p: ProtocolParams) -> np.ndarray:
    """U(1)^d weight of every basis index x*d**k + u, packed into one int64.

    For each colour c < d-1 the weight counts c among the N port digits minus
    c among the k slot digits; colour d-1 follows, since the counts sum to N
    and k.  Each difference lies in [-k, N], so offset by k it is one digit in
    base N+k+1 and the packing is injective.
    """
    N, k, d = p.N, p.k, p.d
    places = d ** np.arange(p.n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(d**p.n, dtype=np.int64)[:, None] // places) % d
    keys = np.zeros(d**p.n, dtype=np.int64)
    for c in range(d - 1):
        diff = (digits[:, :N] == c).sum(axis=1) - (digits[:, N:] == c).sum(axis=1)
        keys = keys * (N + k + 1) + diff + k
    return keys


def _inverse_sqrt_on_support(
    rho: np.ndarray, p: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """(rho^(-1/2) on its support, orthonormal basis of the kernel), support
    decided by the relative eigenvalue threshold SUPPORT_RTOL.

    rho commutes with U^(x N) x conj(U)^(x k), so for diagonal U it only
    connects basis indices of equal U(1)^d weight (``_weight_keys``).  Only
    that phase symmetry is used, not the Schur-Weyl algebra the oracle
    certifies.  The block structure is checked exactly: the blocks must hold
    every nonzero of rho, or ValueError.  Each block is diagonalized on its
    own, the support is decided against the largest eigenvalue of all blocks,
    and each block's rho^(-1/2) and kernel vectors are embedded in the full
    index space.
    """
    dim = p.d**p.n
    if rho.shape != (dim, dim):
        raise ValueError(f"rho must be {dim} x {dim}, got {rho.shape}")
    keys = _weight_keys(p)
    order = np.argsort(keys, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    subs = [rho[np.ix_(b, b)] for b in blocks]
    if sum(np.count_nonzero(s) for s in subs) != np.count_nonzero(rho):
        raise ValueError("rho connects basis indices of different U(1)^d weight")
    eigs = [np.linalg.eigh(s) for s in subs]
    cut = SUPPORT_RTOL * max(vals[-1] for vals, _ in eigs)
    inv_sqrt = np.zeros_like(rho)
    kernel = np.zeros((dim, sum(int((vals <= cut).sum()) for vals, _ in eigs)))
    col = 0
    for b, (vals, vecs) in zip(blocks, eigs):
        keep = vals > cut
        vs, ker = vecs[:, keep], vecs[:, ~keep]
        inv_sqrt[np.ix_(b, b)] = (vs / np.sqrt(vals[keep])) @ vs.T
        kernel[b, col : col + ker.shape[1]] = ker
        col += ker.shape[1]
    return inv_sqrt, kernel


def rho_and_srm(p: ProtocolParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """The signal sum and the square-root-measurement POVM in factored form.

    The returned list holds one dim x d**(N-k) factor F_i = sqrt(v) S G_i per
    outcome (ordered as ``all_port_tuples``), with S = rho^(-1/2), v = 1/d^N
    and Pi_i = F_i F_i^T, plus an orthonormal basis K of rho's kernel as the
    final failure element K K^T.  With W the factors side by side, W W^T is
    the identity.  No dim x dim element is formed.
    """
    rho = signal_sum(p)
    inv_sqrt, kernel = _inverse_sqrt_on_support(rho, p)
    scale = math.sqrt(1.0 / p.d**p.N)
    # S is symmetric, so S G_i is the transpose of S's rows summed per group
    factors = [
        scale * inv_sqrt[_signal_groups(ports, p)].sum(axis=1).T
        for ports in all_port_tuples(p.N, p.k)
    ]
    factors.append(kernel)
    return rho, factors


def srm_signal_traces(p: ProtocolParams, rho: np.ndarray | None = None) -> np.ndarray:
    """tr(Pi_i sigma_i) for every outcome, without materializing the POVM.

    With sigma_i = v G_i G_i^T (v = 1/d^N, see ``_signal_groups``) and
    S = rho^(-1/2),

        tr(S sigma_i S sigma_i) = v^2 * ||G_i^T S G_i||_F^2,

    where G_i^T S G_i sums the d**N signal rows of S per group, then those
    sums' columns per group: d**(2N+k) reads per outcome instead of a
    d**(N+k) x d**(N+k) gather.
    ``rho`` may be passed in when the caller already built the signal sum.
    """
    if rho is None:
        rho = signal_sum(p)
    inv_sqrt, _ = _inverse_sqrt_on_support(rho, p)
    v = 1.0 / p.d**p.N
    out = []
    for ports in all_port_tuples(p.N, p.k):
        groups = _signal_groups(ports, p)
        block = inv_sqrt[groups].sum(axis=1)[:, groups].sum(axis=2)
        out.append(v * v * float(np.einsum("ij,ij->", block, block)))
    return np.array(out)


def srm_fidelity(p: ProtocolParams) -> float:
    """Entanglement fidelity (1/d^(2k)) sum_i tr(Pi_i sigma_i) under the SRM."""
    return float(srm_signal_traces(p).sum()) / p.d ** (2 * p.k)


def srm_pdist(p: ProtocolParams) -> float:
    """Discrimination success probability of the SRM under the uniform prior:
    (1/(k! C(N,k))) sum_i tr(Pi_i sigma_i)."""
    return float(srm_signal_traces(p).sum()) / p.num_signals


def pairwise_trace_matrix(
    a: tuple[int, ...], b: tuple[int, ...], p: ProtocolParams
) -> float:
    """tr(sigma_a sigma_b) straight from the nonzero coordinate lists."""
    ra, ca = _signal_coords(a, p)
    rb, cb = _signal_coords(b, p)
    va = {(int(r), int(c)) for r, c in zip(ra, ca)}
    hits = sum((int(c), int(r)) in va for r, c in zip(rb, cb))
    return hits / float(p.d ** (2 * p.N))


def feasible_instances(max_dim: int = DIM_GUARD) -> list[ProtocolParams]:
    """All (N, k, d) with d**(N+k) <= max_dim and k <= floor(N/2), so that
    the bound checks apply, ordered by dimension."""
    if max_dim > DIM_GUARD:
        raise ValueError(f"max_dim must be <= {DIM_GUARD}")
    out = []
    for d in (2, 3, 4, 5):
        if d * d * d > max_dim:
            continue
        max_n = int(math.log(max_dim) / math.log(d) + 1e-9)
        for N in range(1, max_n):
            for k in range(1, N // 2 + 1):
                if d ** (N + k) > max_dim:
                    break
                out.append(ProtocolParams(N, k, d))
    return sorted(out, key=lambda q: (q.d**q.n, q.d, q.N, q.k))
