"""Brute-force ground truth at small scale: explicit signal operators, their
sum, square-root measurements, and the figures of merit computed directly
from dense matrices.

Every closed formula in the package is certified against this module on the
instances where a dense eigensolve is feasible (d**(N+k) <= 4096).  Signals
are built directly as tensor products of maximally entangled projectors with
identities, an independent route from the permutation-operator algebra used
by ``bounds.pairwise_signal_trace``.

Every outcome is handled through per-instance tables built in batched numpy
passes, a chunk of outcomes at a time under the cell budget
``core.CHUNK_CELLS``: one table holds every outcome's nonzero coordinates,
one every outcome's row groups.  Each signal has rank d**(N-k): it is 1/d^N
times a sum of all-ones blocks over d**(N-k) groups of d**k rows, checked
exactly, in integers, against the coordinates of every outcome.

The signal sum rho is kept as its U(1)^d weight blocks, laid out once per
instance by ``_weight_blocks``: each weight's indices, and every index's
block label, which the signal sum, the group tables and the per-outcome
passes all read.  Each signal coordinate is checked, in integers, to join two
indices of one label and is added straight into its block, so no dim x dim
matrix is formed.  Relabelling the d colours fixes rho, so the blocks of
weights that one relabelling carries onto each other (a colour orbit) are one
matrix up to the order of their indices; listed in orbit order they come out
bitwise equal.  Each distinct block is diagonalized once, a block equal in
its data to an earlier one taking that block's solve; rho^(-1/2) and the
kernel basis stay in the same blocks.  Every row of a group has the same
weight, and every outcome's groups have the first outcome's weights, both
also checked in integers, so the per-outcome traces and the
square-root-measurement factors are read, and the factors kept, one weight
block at a time: no per-outcome d**(N+k) x d**(N+k) matrix is formed, nor
any dense d**(N+k) x d**(N-k) factor.

System order inside a matrix: the N port systems first, then the k teleported
slots.  A port tuple is in slot order (t-th entry = port paired with slot t).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .core import CHUNK_CELLS, ProtocolParams

DIM_GUARD = 4096
SUPPORT_RTOL = 1e-12


class WeightBlocks(NamedTuple):
    """A dim x dim matrix zero off its U(1)^d weight blocks, in
    ``_weight_blocks`` order: each weight's basis indices b, its b x b block,
    and every basis index's block label, shape (dim,)."""

    shape: tuple[int, int]
    indices: list[np.ndarray]
    blocks: list[np.ndarray]
    label: np.ndarray


def all_port_tuples(N: int, k: int) -> list[tuple[int, ...]]:
    """All k! C(N,k) ordered tuples of k distinct ports, in lexicographic order."""
    return list(itertools.permutations(range(1, N + 1), k))


def _check_guard(p: ProtocolParams) -> int:
    """d**(N+k), refused above DIM_GUARD before any power above DIM_GUARD * d
    is formed: at large N the power alone would take minutes."""
    dim = 1
    for _ in range(p.n):
        dim *= p.d
        if dim > DIM_GUARD:
            raise ValueError(
                f"dense simulation limited to d**(N+k) <= {DIM_GUARD}, "
                f"got N={p.N}, k={p.k}, d={p.d}"
            )
    return dim


def _outcome_chunks(p: ProtocolParams) -> list[np.ndarray]:
    """Every outcome's port tuple, as rows of int arrays in ``all_port_tuples``
    order, split so that each chunk's coordinate table holds at most
    CHUNK_CELLS cells (at least one outcome per chunk)."""
    import numpy as np

    tuples = np.array(all_port_tuples(p.N, p.k), dtype=np.int64)
    step = max(1, CHUNK_CELLS // p.d**p.n)
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


def signal_sum(p: ProtocolParams) -> WeightBlocks:
    """Sum of all normalized signals (trace k! C(N,k)) as its U(1)^d weight
    blocks, in ``_weight_blocks`` order, accumulated from the coordinate
    tables one chunk of outcomes at a time.  A coordinate that joins indices
    of two weights is a ValueError, checked in integers before anything is
    added.  Every entry is a sum of equal addends 1/d^N, so it depends only
    on their count: the blocks of one colour orbit come out bitwise equal."""
    import numpy as np

    dim = _check_guard(p)
    indices, label = _weight_blocks(p)
    # entry (i, j) of a block sits at start[i] + local[j] of one flat buffer
    local, start, end = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64), 0
    for b in indices:
        local[b] = np.arange(b.size)
        start[b] = end + b.size * local[b]
        end += b.size**2
    flat = np.zeros(end)
    val = 1.0 / p.d**p.N
    for ports in _outcome_chunks(p):
        rows, cols = _signal_coords(ports, p)
        if (label[rows] != label[cols]).any():
            raise ValueError("a signal connects basis indices of two U(1)^d weights")
        np.add.at(flat, (start[rows] + local[cols]).reshape(-1), val)
    blocks = [flat[start[b[0]] : start[b[0]] + b.size**2].reshape(b.size, b.size) for b in indices]
    return WeightBlocks((dim, dim), indices, blocks, label)


def _signal_groups(ports: np.ndarray, p: ProtocolParams, label: np.ndarray) -> np.ndarray:
    """Row groups of each outcome's signal, shape (outcomes, d**(N-k), d**k):
    sigma_i = v * sum_g 1_g 1_g^T with v = 1/d^N, so sigma_i = v G_i G_i^T for
    the 0/1 indicator G_i of outcome i's groups.

    A row's group is the set of its columns.  The factorization is checked
    exactly, in integers, against ``_signal_coords`` for every outcome: each
    of the d**N rows carries d**k entries, and its column set equals its
    group's row set.  All rows of a group must share one U(1)^d weight, so one
    block ``label`` (from ``_weight_blocks``): a group's paired port and slot
    digits cancel, leaving the weight of its unpaired port digits.  Each
    outcome's groups are returned in increasing label.
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
    group_labels = label[groups]
    if (group_labels != group_labels[:, :, :1]).any():
        raise ValueError("a signal group spans two U(1)^d weights")
    order = np.argsort(group_labels[:, :, 0], axis=1, kind="stable")
    return np.take_along_axis(groups, order[:, :, None], axis=1)


def _weight_blocks(p: ProtocolParams) -> tuple[list[np.ndarray], np.ndarray]:
    """Basis indices of each U(1)^d weight, weights in lexicographic order and
    indices in orbit order inside each, and every basis index's block label:
    its weight's position in that order, shape (dim,).

    A basis index x*d**k + u has the base-d digits of x on the N ports and of
    u on the k slots; for each colour c its weight counts c among the port
    digits minus c among the slot digits.

    Relabelling the d colours by a permutation P fixes every signal, since
    P^(x N) x P^(x k) fixes every phi+ pair, so it fixes rho:
    rho[x, y] = rho[Px, Py], and it carries weight w to w permuted.  Inside
    weight w, the indices are ordered by their image under the relabelling
    that sorts w (stably, so tied colours keep their order).  Two weights of
    one orbit sort to the same weight, whose own indices come in increasing
    index, so their blocks of rho in this order are one matrix.
    """
    import numpy as np

    places = p.d ** np.arange(p.n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(p.d**p.n, dtype=np.int64)[:, None] // places) % p.d
    ports, slots = digits[:, : p.N], digits[:, p.N :]
    weights = np.stack([(ports == c).sum(1) - (slots == c).sum(1) for c in range(p.d)], axis=1)
    # one lexsort of the weight rows gives the label (np.unique over rows
    # costs about ten times as much at these sizes)
    by_weight = np.lexsort(weights.T[::-1])
    first = np.r_[True, (np.diff(weights[by_weight], axis=0) != 0).any(axis=1)]
    label = np.empty_like(by_weight)
    label[by_weight] = np.cumsum(first) - 1
    # colour perm[j] -> j for the stable sort perm of each distinct weight
    relabel = np.argsort(np.argsort(weights[by_weight[first]], axis=1, kind="stable"), axis=1)
    image = np.take_along_axis(relabel[label], digits, axis=1) @ places
    order = np.lexsort((image, label))
    return np.split(order, np.flatnonzero(first)[1:]), label


def _inverse_sqrt_on_support(
    rho: WeightBlocks, p: ProtocolParams
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """rho^(-1/2) on its support and an orthonormal basis of the kernel, one
    U(1)^d weight block at a time, support decided by the relative eigenvalue
    threshold SUPPORT_RTOL.

    rho commutes with U^(x N) x conj(U)^(x k), so for diagonal U it only
    connects basis indices of equal U(1)^d weight (one block label), as
    ``signal_sum`` checks in integers.  Each block is diagonalized on its
    own, not through the Schur-Weyl algebra the oracle certifies, and the
    support is decided against the largest eigenvalue of all blocks.  A
    block that is ``np.array_equal`` to an earlier one, as the blocks of one
    colour orbit are in ``signal_sum``'s order, reuses that block's
    eigenpairs: the reuse rests on the data, so a rho off the symmetry still
    gets one solve per distinct block.  Returns, for each weight of rho in
    order, (the block's basis indices b, rho^(-1/2) restricted to b x b, the
    block's kernel vectors as columns over b); rho^(-1/2) is zero off these
    blocks.  Equal blocks share one S array and one kernel array, both made
    read-only, since a write through one block would reach the others.

    Each eigenpair is dropped once its S block and kernel are formed, so one
    set of Sum |b|^2 floats over the distinct blocks is held beside rho and
    the largest block's temporaries.
    """
    import numpy as np

    dim = p.d**p.n
    if rho.shape != (dim, dim):
        raise ValueError(f"rho must be {dim} x {dim}, got {rho.shape}")
    # each block's position among the distinct ones, found by comparing the
    # data with the earlier blocks of its shape
    distinct, which, by_shape = [], [], {}
    for block in rho.blocks:
        seen = by_shape.setdefault(block.shape, [])
        j = next((j for j in seen if np.array_equal(distinct[j], block)), None)
        if j is None:
            j = len(distinct)
            seen.append(j)
            distinct.append(block)
        which.append(j)
    eigs = [np.linalg.eigh(block) for block in distinct]
    cut = SUPPORT_RTOL * max(vals[-1] for vals, _ in eigs)
    solved = []
    while eigs:
        vals, vecs = eigs.pop(0)
        keep = vals > cut
        vs = vecs[:, keep]
        pair = ((vs / np.sqrt(vals[keep])) @ vs.T, vecs[:, ~keep])
        for a in pair:
            a.flags.writeable = False
        solved.append(pair)
    return [(b, *solved[j]) for b, j in zip(rho.indices, which)]


def _chunk_runs(p: ProtocolParams, rho: WeightBlocks) -> Iterator[tuple[int, list]]:
    """Every chunk of outcomes (``_outcome_chunks``) as (its outcome count,
    the list of its weight runs).  Groups come in increasing block label
    (``_signal_groups``), so the groups of one weight are contiguous; each
    run is (that weight's label, which is its block's position in ``rho``
    and in ``_inverse_sqrt_on_support``, every outcome's rows of those groups
    as positions inside its basis indices, shape (outcomes, groups, d**k)).
    Every outcome must give the first outcome's weights; otherwise
    ValueError."""
    import numpy as np

    local = np.empty_like(rho.label)
    for b in rho.indices:
        local[b] = np.arange(b.size)
    reference = None
    for ports in _outcome_chunks(p):
        groups = _signal_groups(ports, p, rho.label)
        labels = rho.label[groups[:, :, 0]]
        if reference is None:
            reference = labels[0]
            cuts = [0, *(np.flatnonzero(np.diff(reference)) + 1), reference.size]
        if (labels != reference).any():
            raise ValueError("outcomes differ in the U(1)^d weights of their groups")
        yield len(ports), [
            (reference[lo], local[groups[:, lo:hi]]) for lo, hi in zip(cuts[:-1], cuts[1:])
        ]


def rho_and_srm(
    p: ProtocolParams, rho: WeightBlocks | None = None
) -> tuple[WeightBlocks, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
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
    for n, runs in _chunk_runs(p, rho):
        for j, idx in runs:
            b, block, _ = blocks[j]
            if not done:
                factors[j] = np.empty((p.num_signals, idx.shape[1], b.size))
            # this chunk's outcomes only; S is symmetric, so a group's column
            # of S G_i is the sum of the group's rows of S
            own = factors[j][done : done + n]
            step = max(1, CHUNK_CELLS // (idx[0].size * b.size))
            for lo in range(0, n, step):
                own[lo : lo + step] = scale * block[idx[lo : lo + step]].sum(axis=2)
        done += n
    return rho, [(b, F, ker) for (b, _, ker), F in zip(blocks, factors)]


def srm_signal_traces(p: ProtocolParams, rho: WeightBlocks | None = None) -> np.ndarray:
    """tr(Pi_i sigma_i) for every outcome, without materializing the POVM.

    With sigma_i = v G_i G_i^T (v = 1/d^N, see ``_signal_groups``) and
    S = rho^(-1/2),

        tr(S sigma_i S sigma_i) = v^2 * ||G_i^T S G_i||_F^2.

    S only connects indices of equal U(1)^d weight, and each group lies in
    one weight, so G_i^T S G_i is block diagonal: for each weight it sums the
    n x n group pairs' d**k x d**k blocks of that weight's block of S,
    (n d**k)^2 reads for the n groups of that weight.  Outcomes are batched,
    at most CHUNK_CELLS reads at a time.  ``rho`` may be passed in when the
    caller already built the signal sum.
    """
    import numpy as np

    if rho is None:
        rho = signal_sum(p)
    blocks = _inverse_sqrt_on_support(rho, p)
    db = p.d**p.k
    v = 1.0 / p.d**p.N
    out = []
    for n, runs in _chunk_runs(p, rho):
        squares = np.zeros(n)
        for j, idx in runs:
            block = blocks[j][1]
            n_groups = idx.shape[1]
            idx = idx.reshape(n, -1)
            step = max(1, CHUNK_CELLS // idx.shape[1] ** 2)
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
