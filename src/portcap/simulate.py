"""Brute-force ground truth at small scale: explicit signal operators, their
sum, square-root measurements, and the figures of merit computed directly
from dense matrices.

Every closed formula in the package is certified against this module on the
instances where a dense eigensolve is feasible (d**(N+k) <= 4096).  Signals
are built directly as tensor products of maximally entangled projectors with
identities, an independent route from the permutation-operator algebra used
by ``bounds.pairwise_signal_trace``.

Every outcome is handled through per-instance tables built in batched numpy
passes, a chunk of outcomes at a time under a fixed cell budget: one table
holds every outcome's nonzero coordinates, one every outcome's row groups.
Each signal has rank d**(N-k): it is 1/d^N times a sum of all-ones blocks
over d**(N-k) groups of d**k rows, checked exactly, in integers, against the
coordinates of every outcome.

The signal sum rho is dense and diagonalized block by block, one block per
U(1)^d weight of the basis indices, with the block structure checked exactly
against rho's nonzeros.  rho^(-1/2) and the kernel basis stay in those
blocks: rho is the only dim x dim matrix formed.  Every row of a group has
the same weight, also checked in integers, so the per-outcome traces and the
square-root-measurement factors are read, and the factors kept, one weight
block at a time: no per-outcome d**(N+k) x d**(N+k) matrix is formed, nor
any dense d**(N+k) x d**(N-k) factor.

System order inside a matrix: the N port systems first, then the k teleported
slots.  A port tuple is in slot order (t-th entry = port paired with slot t).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .core import ProtocolParams

DIM_GUARD = 4096
SUPPORT_RTOL = 1e-12

# Index cells per batch of outcomes: bounds the coordinate tables' and the
# trace gathers' working memory at any dimension.
_CELL_BUDGET = 1 << 17


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


def _outcome_chunks(p: ProtocolParams) -> list[np.ndarray]:
    """Every outcome's port tuple, as rows of int arrays in ``all_port_tuples``
    order, split so that each chunk's coordinate table holds at most
    _CELL_BUDGET cells (at least one outcome per chunk)."""
    import numpy as np

    tuples = np.array(all_port_tuples(p.N, p.k), dtype=np.int64)
    step = max(1, _CELL_BUDGET // p.d**p.n)
    return [tuples[i : i + step] for i in range(0, len(tuples), step)]


def _signal_coords(
    ports: np.ndarray, p: ProtocolParams
) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the d**(N+k) nonzero entries of each outcome's
    signal, shape (outcomes, d**(N+k)) each, for port tuples given as the
    rows of ``ports``.

    A basis vector factors as |x> on the ports and |u> on the slots.  The
    signal (1/d^N) 1_(other ports) x phi+ (paired port/slot systems) connects
    (x, u=x[ports]) to (y, v=y[ports]) whenever x and y agree off the tuple,
    leaving x free and the paired digits of y free: exactly dim nonzeros, all
    equal to 1/d^N.
    """
    import numpy as np

    N, k, d = p.N, p.k, p.d
    ports = np.asarray(ports, dtype=np.int64)
    if ports.ndim != 2 or ports.shape[1] != k:
        raise ValueError(f"ports must be rows of {k} indices, got shape {ports.shape}")
    ordered = np.sort(ports, axis=1)
    if (ordered[:, 0] < 1).any() or (ordered[:, -1] > N).any() or (
        np.diff(ordered, axis=1) == 0
    ).any():
        raise ValueError(f"ports must be {k} distinct indices in [1, {N}]")
    da, db = d**N, d**k
    port_weights = d ** (N - ports)  # (outcomes, k)
    slot_weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)

    x = np.arange(da, dtype=np.int64)
    digits = x // port_weights[:, :, None] % d  # (outcomes, k, da)
    u = np.einsum("otx,t->ox", digits, slot_weights)
    base = x - np.einsum("otx,ot->ox", digits, port_weights)
    rows = np.repeat(x * db + u, db, axis=1)

    w_all = np.arange(db, dtype=np.int64)
    y_offsets = port_weights @ (w_all // slot_weights[:, None] % d)  # (outcomes, db)
    cols = base[:, :, None] * db + (y_offsets * db + w_all)[:, None, :]
    return rows, cols.reshape(len(ports), -1)


def signal_sum(p: ProtocolParams) -> np.ndarray:
    """Sum of all normalized signals (trace k! C(N,k)), accumulated from the
    coordinate tables one chunk of outcomes at a time."""
    import numpy as np

    dim = _check_guard(p)
    rho = np.zeros((dim, dim))
    flat = rho.reshape(-1)
    val = 1.0 / p.d**p.N
    for ports in _outcome_chunks(p):
        rows, cols = _signal_coords(ports, p)
        np.add.at(flat, (rows * dim + cols).reshape(-1), val)
    return rho


def _signal_groups(ports: np.ndarray, p: ProtocolParams, keys: np.ndarray) -> np.ndarray:
    """Row groups of each outcome's signal, shape (outcomes, d**(N-k), d**k):
    sigma_i = v * sum_g 1_g 1_g^T with v = 1/d^N, so sigma_i = v G_i G_i^T for
    the 0/1 indicator G_i of outcome i's groups.

    A row's group is the set of its columns.  The factorization is checked
    exactly, in integers, against ``_signal_coords`` for every outcome: each
    of the d**N rows carries d**k entries, and its column set equals its
    group's row set.  All rows of a group must share one U(1)^d weight key
    (``keys``, from ``_weight_keys``): a group's paired port and slot digits
    cancel, leaving the weight of its unpaired port digits.  Each outcome's
    groups are returned in increasing key, and every outcome must carry the
    same sequence of keys; otherwise ValueError.
    """
    import numpy as np

    rows, cols = _signal_coords(ports, p)
    n, dim, db = len(ports), p.d**p.n, p.d**p.k
    if rows.shape != (n, dim) or cols.shape != (n, dim):
        raise ValueError(f"signals have {rows.shape[1:]} entries, expected {dim} each")
    # entries in (row, column) order, in runs of d**k read as rows: a run
    # that spans two rows has a column >= dim, which no group holds
    entries = np.sort(rows * dim + cols, axis=1).reshape(n, -1, db)
    row_ids = entries[:, :, 0] // dim
    cols = entries - (row_ids * dim)[:, :, None]
    by_group = np.argsort(cols[:, :, 0] * dim + row_ids, axis=1)
    groups = np.take_along_axis(row_ids, by_group, axis=1).reshape(n, -1, db)
    # every row's columns, the rows in group order (a flat gather of rows)
    flat_rows = by_group + np.arange(n)[:, None] * by_group.shape[1]
    grouped_cols = cols.reshape(-1, db)[flat_rows].reshape(groups.shape + (db,))
    exact = (np.diff(row_ids, axis=1) > 0).all() and (grouped_cols == groups[:, :, None, :]).all()
    if not exact:
        raise ValueError("signals are not sums of all-ones blocks over row groups")
    group_keys = keys[groups]
    if (group_keys != group_keys[:, :, :1]).any():
        raise ValueError("a signal group spans two U(1)^d weights")
    order = np.argsort(group_keys[:, :, 0], axis=1, kind="stable")
    groups = np.take_along_axis(groups, order[:, :, None], axis=1)
    if (keys[groups[:, :, 0]] != keys[groups[:1, :, 0]]).any():
        raise ValueError("outcomes differ in the U(1)^d weights of their groups")
    return groups


def _weight_keys(p: ProtocolParams) -> np.ndarray:
    """U(1)^d weight of every basis index x*d**k + u, packed into one int64.

    For each colour c < d-1 the weight counts c among the N port digits minus
    c among the k slot digits; colour d-1 follows, since the counts sum to N
    and k.  Each difference lies in [-k, N], so offset by k it is one digit in
    base N+k+1 and the packing is injective.
    """
    import numpy as np

    N, k, d = p.N, p.k, p.d
    places = d ** np.arange(p.n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(d**p.n, dtype=np.int64)[:, None] // places) % d
    keys = np.zeros(d**p.n, dtype=np.int64)
    for c in range(d - 1):
        diff = (digits[:, :N] == c).sum(axis=1) - (digits[:, N:] == c).sum(axis=1)
        keys = keys * (N + k + 1) + diff + k
    return keys


def _weight_blocks(keys: np.ndarray) -> list[np.ndarray]:
    """Basis indices of each weight, in increasing key and increasing index."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def _inverse_sqrt_on_support(
    rho: np.ndarray, p: ProtocolParams
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """rho^(-1/2) on its support and an orthonormal basis of the kernel, one
    U(1)^d weight block at a time, support decided by the relative eigenvalue
    threshold SUPPORT_RTOL.

    rho commutes with U^(x N) x conj(U)^(x k), so for diagonal U it only
    connects basis indices of equal U(1)^d weight (``_weight_keys``).  Only
    that phase symmetry is used, not the Schur-Weyl algebra the oracle
    certifies.  The block structure is checked exactly: the blocks must hold
    every nonzero of rho, or ValueError.  Each block is diagonalized on its
    own and the support is decided against the largest eigenvalue of all
    blocks.  Returns, for each weight in increasing key (``_weight_blocks``),
    (the block's basis indices b, rho^(-1/2) restricted to b x b, the block's
    kernel vectors as columns over b); rho^(-1/2) is zero off these blocks.

    Each block's copy of rho is dropped once it is diagonalized, and each
    eigenpair once its S block and kernel are formed, so one set of Sum |b|^2
    floats is held beside the largest block's temporaries.
    """
    import numpy as np

    dim = p.d**p.n
    if rho.shape != (dim, dim):
        raise ValueError(f"rho must be {dim} x {dim}, got {rho.shape}")
    blocks = _weight_blocks(_weight_keys(p))
    eigs, inside = [], 0
    for b in blocks:
        sub = rho[np.ix_(b, b)]
        inside += np.count_nonzero(sub)
        eigs.append(np.linalg.eigh(sub))
    del sub
    if inside != np.count_nonzero(rho):
        raise ValueError("rho connects basis indices of different U(1)^d weight")
    cut = SUPPORT_RTOL * max(vals[-1] for vals, _ in eigs)
    out = []
    for b in blocks:
        vals, vecs = eigs.pop(0)
        keep = vals > cut
        vs = vecs[:, keep]
        out.append((b, (vs / np.sqrt(vals[keep])) @ vs.T, vecs[:, ~keep]))
    return out


def _chunk_runs(
    p: ProtocolParams, keys: np.ndarray, blocks: list
) -> Iterator[tuple[int, list]]:
    """Every chunk of outcomes (``_outcome_chunks``) as (its outcome count,
    the list of its weight runs).  Groups come in increasing key
    (``_signal_groups``), so the groups of one weight are contiguous; each
    run is (that weight's position in ``blocks``, from
    ``_inverse_sqrt_on_support``, every outcome's rows of those groups as
    positions inside its basis indices, shape (outcomes, groups, d**k)).
    Every chunk must give the first chunk's weights; otherwise ValueError."""
    import numpy as np

    local = np.empty_like(keys)
    by_key = {}
    for j, (b, _, _) in enumerate(blocks):
        local[b] = np.arange(b.size)
        by_key[keys[b[0]]] = j
    reference = None
    for ports in _outcome_chunks(p):
        groups = _signal_groups(ports, p, keys)
        first = keys[groups[0, :, 0]]
        if reference is None:
            reference = first
        elif not np.array_equal(first, reference):
            raise ValueError("outcomes differ in the U(1)^d weights of their groups")
        cuts = [0, *(np.flatnonzero(np.diff(first)) + 1), first.size]
        yield len(ports), [
            (by_key[first[lo]], local[groups[:, lo:hi]]) for lo, hi in zip(cuts[:-1], cuts[1:])
        ]


def rho_and_srm(
    p: ProtocolParams, rho: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The signal sum and the square-root-measurement POVM, factored and kept
    in U(1)^d weight blocks.

    Outcome i's element is Pi_i = F_i F_i^T with F_i = sqrt(v) S G_i,
    S = rho^(-1/2) and v = 1/d^N; each group of G_i lies in one weight, so
    its column of F_i is zero off that weight's indices.  The failure element
    is K K^T for an orthonormal basis K of rho's kernel.  The list holds, for
    each weight in the order of ``_inverse_sqrt_on_support``, (its basis
    indices b, F_b, its kernel vectors K_b over b); F_b[i] holds outcome i's
    columns of that weight over b, shape (outcomes, groups, b.size), outcomes
    in ``all_port_tuples`` order.  ``rho`` may be passed in when the caller
    already built the signal sum.
    """
    import numpy as np

    if rho is None:
        rho = signal_sum(p)
    blocks = _inverse_sqrt_on_support(rho, p)
    scale = math.sqrt(1.0 / p.d**p.N)
    factors = [np.zeros((p.num_signals, 0, b.size)) for b, _, _ in blocks]
    done = 0
    for n, runs in _chunk_runs(p, _weight_keys(p), blocks):
        for j, idx in runs:
            b, block, _ = blocks[j]
            if not done:
                factors[j] = np.empty((p.num_signals, idx.shape[1], b.size))
            # this chunk's outcomes only; S is symmetric, so a group's column
            # of S G_i is the sum of the group's rows of S
            own = factors[j][done : done + n]
            step = max(1, _CELL_BUDGET // (idx[0].size * b.size))
            for lo in range(0, n, step):
                own[lo : lo + step] = scale * block[idx[lo : lo + step]].sum(axis=2)
        done += n
    return rho, [(b, F, ker) for (b, _, ker), F in zip(blocks, factors)]


def srm_signal_traces(p: ProtocolParams, rho: np.ndarray | None = None) -> np.ndarray:
    """tr(Pi_i sigma_i) for every outcome, without materializing the POVM.

    With sigma_i = v G_i G_i^T (v = 1/d^N, see ``_signal_groups``) and
    S = rho^(-1/2),

        tr(S sigma_i S sigma_i) = v^2 * ||G_i^T S G_i||_F^2.

    S only connects indices of equal U(1)^d weight, and each group lies in
    one weight, so G_i^T S G_i is block diagonal: for each weight it sums the
    n x n group pairs' d**k x d**k blocks of that weight's block of S,
    (n d**k)^2 reads for the n groups of that weight.  Outcomes are batched,
    at most _CELL_BUDGET reads at a time.  ``rho`` may be passed in when the
    caller already built the signal sum.
    """
    import numpy as np

    if rho is None:
        rho = signal_sum(p)
    blocks = _inverse_sqrt_on_support(rho, p)
    db = p.d**p.k
    v = 1.0 / p.d**p.N
    out = []
    for n, runs in _chunk_runs(p, _weight_keys(p), blocks):
        squares = np.zeros(n)
        for j, idx in runs:
            block = blocks[j][1]
            n_groups = idx.shape[1]
            idx = idx.reshape(n, -1)
            step = max(1, _CELL_BUDGET // idx.shape[1] ** 2)
            for lo in range(0, n, step):
                part = idx[lo : lo + step]
                pairs = block.take(part[:, :, None] * len(block) + part[:, None, :])
                sums = pairs.reshape(len(part), n_groups, db, n_groups, db).sum(axis=(2, 4))
                squares[lo : lo + step] += np.einsum("oij,oij->o", sums, sums)
        out.append(v * v * squares)
    return np.concatenate(out)


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
    if len(a) != p.k or len(b) != p.k:
        raise ValueError(f"port tuples must have {p.k} entries, got {a} and {b}")
    (ra, rb), (ca, cb) = _signal_coords([a, b], p)
    va = {(int(r), int(c)) for r, c in zip(ra, ca)}
    hits = sum((int(c), int(r)) in va for r, c in zip(rb, cb))
    return hits / float(p.d ** (2 * p.N))


def feasible_instances(max_dim: int = DIM_GUARD) -> list[ProtocolParams]:
    """All (N, k, d) with d in 2..5, d**(N+k) <= max_dim and k <= floor(N/2),
    so that the bound checks apply, ordered by dimension.  d >= 6 is not
    swept, though instances fit: (2, 1, 6) through (2, 1, 10) under max_dim
    1024, and up to (2, 1, 16) and (3, 1, 8) under 4096."""
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
