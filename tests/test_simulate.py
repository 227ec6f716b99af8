import itertools
import math
import tracemalloc

import numpy as np
import pytest

from portcap.bounds import (
    fidelity_bound_ratio,
    pairwise_signal_trace,
    pdist_lower,
    trace_rho_bar_squared,
)
from portcap import simulate
from portcap.core import ProtocolParams
from portcap.performance import fidelity_exact
from portcap.simulate import (
    all_port_tuples,
    feasible_instances,
    pairwise_trace_matrix,
    rho_and_srm,
    signal_sum,
    srm_fidelity,
    srm_pdist,
    srm_signal_traces,
)

SMALL = feasible_instances(max_dim=256)  # runs up to d=5 with dims <= 256


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


def reference_groups(ports, p):
    """Row groups of one signal, shape (d**(N-k), d**k), ordered by their
    smallest row, each row's column set checked against its group."""
    rows, cols = reference_coords(ports, p)
    db = p.d**p.k
    order = np.lexsort((cols, rows))
    rows, cols = rows[order].reshape(-1, db), cols[order].reshape(-1, db)
    row_ids = rows[:, 0]
    by_group = np.lexsort((row_ids, cols[:, 0]))
    groups = row_ids[by_group].reshape(-1, db)
    assert (rows == row_ids[:, None]).all() and np.unique(row_ids).size == row_ids.size
    assert (cols[by_group].reshape(groups.shape + (db,)) == groups[:, None, :]).all()
    return groups


def all_tuples(p):
    return np.array(all_port_tuples(p.N, p.k))


def group_table(p):
    """The batched group table of every outcome of p, in one batch."""
    return simulate._signal_groups(all_tuples(p), p, simulate._weight_keys(p))


def build_signal(ports, p):
    """Dense normalized signal operator for one measurement outcome: the
    reference that the factored routes are checked against."""
    dim = simulate._check_guard(p)
    rows, cols = reference_coords(ports, p)
    sigma = np.zeros((dim, dim))
    sigma[rows, cols] = 1.0 / p.d**p.N
    return sigma


class TestSignals:
    def test_trace_one_and_symmetric(self):
        for p in [ProtocolParams(2, 1, 2), ProtocolParams(4, 2, 2), ProtocolParams(2, 1, 3)]:
            for ports in all_port_tuples(p.N, p.k)[:5]:
                sigma = build_signal(ports, p)
                assert abs(np.trace(sigma) - 1.0) < 1e-12
                assert np.abs(sigma - sigma.T).max() == 0.0
                vals = np.linalg.eigvalsh(sigma)
                assert vals.min() > -1e-12

    def test_self_overlap(self):
        p = ProtocolParams(2, 1, 2)
        sigma = build_signal((1,), p)
        assert abs(float((sigma @ sigma).trace()) - 0.5) < 1e-14

    def test_matches_permutation_algebra_route(self):
        # every pairwise trace agrees with the transposition-sequence count
        for p in [ProtocolParams(4, 1, 2), ProtocolParams(4, 2, 2), ProtocolParams(3, 1, 3)]:
            tuples = all_port_tuples(p.N, p.k)
            for a in tuples:
                for b in tuples:
                    algebra = float(pairwise_signal_trace(a, b, p.n, p.k, p.d))
                    matrix = pairwise_trace_matrix(a, b, p)
                    assert abs(algebra - matrix) < 1e-12, (p, a, b)

    def test_example_pair_value(self):
        p = ProtocolParams(4, 2, 2)
        assert abs(pairwise_trace_matrix((4, 3), (3, 4), p) - 1 / 16) < 1e-12

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            build_signal((1,), ProtocolParams(12, 1, 2))

    def test_bad_tuple_rejected(self):
        p = ProtocolParams(4, 2, 2)
        for bad in [(1, 1), (0, 2), (2, 5), (1, 2, 3), (1,)]:
            with pytest.raises(ValueError):
                pairwise_trace_matrix(bad, (1, 2), p)
            with pytest.raises(ValueError):
                pairwise_trace_matrix((1, 2), bad, p)
        with pytest.raises(ValueError):
            simulate._signal_coords(np.array([[1, 2], [3, 3]]), p)


class TestSignalSum:
    def test_trace_counts_outcomes(self):
        for p in SMALL:
            rho = signal_sum(p)
            assert abs(np.trace(rho) - p.num_signals) < 1e-9

    def test_purity_matches_closed_form(self):
        for p in SMALL:
            rho = signal_sum(p)
            rho_bar = rho / np.trace(rho)
            lhs = float((rho_bar * rho_bar.T).sum())
            assert abs(lhs - float(trace_rho_bar_squared(p.N, p.k, p.d))) < 1e-10, p


def dense_inverse_sqrt(p):
    """rho^(-1/2) on its support, from a dense eigensolve of the signal sum."""
    rho = signal_sum(p)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12 * vals.max()
    return (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].T


def reference_inverse_sqrt_on_support(rho, p):
    """(rho^(-1/2), kernel basis) as dense dim x dim and dim x n_ker arrays:
    each weight block diagonalized on its own and embedded in the full index
    space, the reference for the block form the oracle keeps."""
    blocks = simulate._weight_blocks(simulate._weight_keys(p))
    eigs = [np.linalg.eigh(rho[np.ix_(b, b)]) for b in blocks]
    cut = simulate.SUPPORT_RTOL * max(vals[-1] for vals, _ in eigs)
    inv_sqrt = np.zeros_like(rho)
    kernel = np.zeros((len(rho), sum(int((vals <= cut).sum()) for vals, _ in eigs)))
    col = 0
    for b, (vals, vecs) in zip(blocks, eigs):
        keep = vals > cut
        vs, ker = vecs[:, keep], vecs[:, ~keep]
        inv_sqrt[np.ix_(b, b)] = (vs / np.sqrt(vals[keep])) @ vs.T
        kernel[b, col : col + ker.shape[1]] = ker
        col += ker.shape[1]
    return inv_sqrt, kernel


def reference_factors(p):
    """The SRM factors from the dense embedding: each outcome's dim x
    d**(N-k) factor S G_i, a group's column its rows of S summed across the
    whole index space, and the dim x n_ker kernel basis last."""
    inv_sqrt, kernel = reference_inverse_sqrt_on_support(signal_sum(p), p)
    scale = math.sqrt(1.0 / p.d**p.N)
    return [scale * inv_sqrt[g].sum(axis=1).T for g in group_table(p)] + [kernel]


def reference_signal_traces(p):
    """``srm_signal_traces`` from the dense embedding, one outcome at a time:
    for each weight, the group pairs' blocks of S read straight from S."""
    inv_sqrt, _ = reference_inverse_sqrt_on_support(signal_sum(p), p)
    keys = simulate._weight_keys(p)
    db, v = p.d**p.k, 1.0 / p.d**p.N
    out = []
    for groups in group_table(p):
        square = 0.0
        for key in np.unique(keys[groups[:, 0]]):
            idx = groups[keys[groups[:, 0]] == key].reshape(-1)
            n = idx.size // db
            sums = inv_sqrt[np.ix_(idx, idx)].reshape(1, n, db, n, db).sum(axis=(2, 4))
            square += np.einsum("oij,oij->o", sums, sums)[0]
        out.append(v * v * square)
    return np.array(out)


def dense_srm(p):
    """Reference POVM elements S sigma_i S from dense signals, S = rho^(-1/2),
    together with the signals; independent of the factored route."""
    inv_sqrt = dense_inverse_sqrt(p)
    sigmas = [build_signal(ports, p) for ports in all_port_tuples(p.N, p.k)]
    return sigmas, [inv_sqrt @ sigma @ inv_sqrt for sigma in sigmas]


def embedded_factors(p):
    """``rho_and_srm``'s weight blocks embedded in the full index space, in
    the layout of ``reference_factors``: each outcome's columns weight by
    weight, zero off the weight's basis indices, and the kernel last."""
    _, blocks = rho_and_srm(p)
    dim = p.d**p.n
    outcomes = np.zeros((p.num_signals, dim, p.d ** (p.N - p.k)))
    kernel = np.zeros((dim, sum(ker.shape[1] for _, _, ker in blocks)))
    col = ker_col = 0
    for b, F, ker in blocks:
        assert F.shape[::2] == (p.num_signals, b.size) and ker.shape[0] == b.size, p
        outcomes[:, b, col : col + F.shape[1]] = F.transpose(0, 2, 1)
        kernel[b, ker_col : ker_col + ker.shape[1]] = ker
        col += F.shape[1]
        ker_col += ker.shape[1]
    assert col == outcomes.shape[2], p
    return [*outcomes, kernel]


def materialized_povm(p):
    """Every POVM element Pi = F F^T of ``rho_and_srm``'s factors."""
    return [f @ f.T for f in embedded_factors(p)]


class TestSrm:
    def test_povm_completeness_and_positivity(self):
        for p in SMALL:
            povm = materialized_povm(p)
            total = sum(povm)
            assert np.abs(total - np.eye(total.shape[0])).max() < 1e-10, p
            for element in povm:
                assert np.linalg.eigvalsh(element).min() > -1e-10

    def test_povm_supported_in_signal_range(self):
        # Pi_i = S sigma_i S has range inside span(S @ range(sigma_i))
        for p in [ProtocolParams(2, 1, 2), ProtocolParams(4, 2, 2)]:
            povm = materialized_povm(p)
            inv_sqrt = dense_inverse_sqrt(p)
            for ports, pi in zip(all_port_tuples(p.N, p.k), povm):
                sigma = build_signal(ports, p)
                u, s, _ = np.linalg.svd(inv_sqrt @ sigma)
                basis = u[:, s > 1e-10 * s.max()]
                proj = basis @ basis.T
                residual = pi - proj @ pi @ proj
                assert np.abs(residual).max() < 1e-10

    def test_factors_match_dense_elements(self):
        for p in [ProtocolParams(3, 1, 2), ProtocolParams(4, 2, 2), ProtocolParams(2, 1, 3)]:
            povm = materialized_povm(p)
            _, reference = dense_srm(p)
            for pi, ref in zip(povm, reference):
                assert np.abs(pi - ref).max() < 1e-10, p
            # failure element: the projector onto rho's kernel
            failure = np.eye(p.d**p.n) - sum(reference)
            assert np.abs(povm[-1] - failure).max() < 1e-10, p

    def test_kernel_factor_is_an_orthonormal_kernel_basis(self):
        for p in [ProtocolParams(2, 1, 2), ProtocolParams(3, 1, 3)]:
            rho, kernel = signal_sum(p), embedded_factors(p)[-1]
            assert np.abs(kernel.T @ kernel - np.eye(kernel.shape[1])).max() < 1e-12
            assert np.abs(rho @ kernel).max() < 1e-10

    def test_traces_equal_across_outcomes(self):
        # covariance: every outcome contributes the same diagonal trace
        p = ProtocolParams(5, 2, 2)
        traces = srm_signal_traces(p)
        assert np.ptp(traces) < 1e-12

    def test_factored_route_matches_dense_matmul(self):
        for p in [ProtocolParams(3, 1, 2), ProtocolParams(4, 2, 2), ProtocolParams(2, 1, 3)]:
            povm = materialized_povm(p)
            dense = [
                float(np.trace(pi @ build_signal(ports, p)))
                for ports, pi in zip(all_port_tuples(p.N, p.k), povm)
            ]
            assert np.abs(srm_signal_traces(p) - np.array(dense)).max() < 1e-12

    def test_traces_match_dense_reference(self):
        for p in SMALL:
            sigmas, reference = dense_srm(p)
            dense = [float(np.trace(ref @ sigma)) for sigma, ref in zip(sigmas, reference)]
            assert np.abs(srm_signal_traces(p) - np.array(dense)).max() <= 1e-12, p


class TestSignalFactorization:
    def test_groups_reproduce_the_signal_exactly(self):
        for p in [ProtocolParams(3, 1, 2), ProtocolParams(4, 2, 2), ProtocolParams(3, 2, 3)]:
            table = group_table(p)
            assert table.shape == (p.num_signals, p.d ** (p.N - p.k), p.d**p.k)
            for ports, groups in zip(all_port_tuples(p.N, p.k), table):
                indicator = np.zeros((p.d**p.n, len(groups)))
                indicator[groups, np.arange(len(groups))[:, None]] = 1.0
                sigma = indicator @ indicator.T / p.d**p.N
                assert np.array_equal(sigma, build_signal(ports, p)), (p, ports)

    def test_tables_match_the_per_tuple_reference(self):
        for p in SMALL:
            rows, cols = simulate._signal_coords(all_tuples(p), p)
            table = group_table(p)
            keys = simulate._weight_keys(p)
            for i, ports in enumerate(all_port_tuples(p.N, p.k)):
                ref_rows, ref_cols = reference_coords(ports, p)
                assert np.array_equal(rows[i], ref_rows) and np.array_equal(cols[i], ref_cols)
                groups = table[i]
                # the table orders groups by weight key, the reference by smallest row
                assert (np.diff(keys[groups[:, 0]]) >= 0).all()
                by_row = groups[np.argsort(groups[:, 0])]
                assert np.array_equal(by_row, reference_groups(ports, p)), (p, ports)

    def test_dropped_coordinate_is_rejected(self, monkeypatch):
        coords = simulate._signal_coords
        monkeypatch.setattr(
            simulate, "_signal_coords",
            lambda ports, p: tuple(a[:, 1:] for a in coords(ports, p)),
        )
        p = ProtocolParams(4, 2, 2)
        with pytest.raises(ValueError, match="expected 64 each"):
            group_table(p)
        with pytest.raises(ValueError, match="expected 64 each"):
            srm_signal_traces(p)
        with pytest.raises(ValueError, match="expected 64 each"):
            rho_and_srm(p)

    def test_moved_coordinate_is_rejected(self, monkeypatch):
        # one coordinate moved in a single outcome, first or not, fails the batch
        coords = simulate._signal_coords
        p = ProtocolParams(4, 2, 2)
        rho = signal_sum(p)

        def moved_in(outcome):
            def moved(ports, q):
                rows, cols = coords(ports, q)
                cols = cols.copy()
                cols[outcome, 0] = (cols[outcome, 0] + 1) % q.d**q.n
                return rows, cols

            return moved

        for outcome in range(p.num_signals):
            monkeypatch.setattr(simulate, "_signal_coords", moved_in(outcome))
            with pytest.raises(ValueError, match="all-ones blocks"):
                group_table(p)
        monkeypatch.setattr(simulate, "_signal_coords", moved_in(p.num_signals - 1))
        with pytest.raises(ValueError, match="all-ones blocks"):
            srm_signal_traces(p, rho=rho)
        with pytest.raises(ValueError, match="all-ones blocks"):
            rho_and_srm(p, rho=rho)

    def test_group_spanning_two_weights_is_rejected(self, monkeypatch):
        # swapping two basis indices of different weight keeps every signal a
        # sum of all-ones blocks, but puts one index into a group of the
        # other's weight
        coords = simulate._signal_coords
        p = ProtocolParams(4, 2, 2)
        rho = signal_sum(p)
        keys = simulate._weight_keys(p)
        a, b = 0, int(np.flatnonzero(keys != keys[0])[0])
        relabel = np.arange(p.d**p.n)
        relabel[[a, b]] = [b, a]
        monkeypatch.setattr(
            simulate, "_signal_coords",
            lambda ports, q: tuple(relabel[x] for x in coords(ports, q)),
        )
        with pytest.raises(ValueError, match=r"two U\(1\)\^d weights"):
            group_table(p)
        with pytest.raises(ValueError, match=r"two U\(1\)\^d weights"):
            srm_signal_traces(p, rho=rho)
        with pytest.raises(ValueError, match=r"two U\(1\)\^d weights"):
            rho_and_srm(p, rho=rho)

    def test_outcomes_with_different_group_weights_are_rejected(self, monkeypatch):
        # moving one group of one outcome onto unused indices of another weight
        # keeps every group inside one weight, but that outcome's weights no
        # longer match the others'
        coords = simulate._signal_coords
        p = ProtocolParams(4, 2, 2)
        rho = signal_sum(p)
        keys = simulate._weight_keys(p)
        moved = group_table(p)[1][0]
        unused = np.setdiff1d(np.arange(p.d**p.n), group_table(p)[1])
        other = next(
            key for key in keys[unused]
            if key != keys[moved[0]] and (keys[unused] == key).sum() >= moved.size
        )
        target = unused[keys[unused] == other][: moved.size]
        relabel = np.arange(p.d**p.n)
        relabel[moved], relabel[target] = target, moved

        def patched(ports, q):
            rows, cols = (a.copy() for a in coords(ports, q))
            hit = (np.asarray(ports) == all_tuples(p)[1]).all(axis=1)
            rows[hit], cols[hit] = relabel[rows[hit]], relabel[cols[hit]]
            return rows, cols

        monkeypatch.setattr(simulate, "_signal_coords", patched)
        with pytest.raises(ValueError, match="outcomes differ"):
            group_table(p)
        # one outcome per chunk: each chunk's weights are compared with the
        # first chunk's, not only within the chunk
        for budget in (simulate._CELL_BUDGET, 1):
            monkeypatch.setattr(simulate, "_CELL_BUDGET", budget)
            with pytest.raises(ValueError, match="outcomes differ"):
                srm_signal_traces(p, rho=rho)
            with pytest.raises(ValueError, match="outcomes differ"):
                rho_and_srm(p, rho=rho)

    def test_tiny_cell_budget_gives_the_same_results(self, monkeypatch):
        # one outcome per batch and per gather against one batch of all
        cases = [ProtocolParams(4, 2, 2), ProtocolParams(5, 1, 2), ProtocolParams(2, 2, 3)]
        default = [(signal_sum(p), srm_signal_traces(p), rho_and_srm(p)[1]) for p in cases]
        monkeypatch.setattr(simulate, "_CELL_BUDGET", 1)
        assert all(len(simulate._outcome_chunks(p)) == p.num_signals for p in cases)
        for p, (rho, traces, blocks) in zip(cases, default):
            assert np.array_equal(signal_sum(p), rho), p
            assert np.array_equal(srm_signal_traces(p), traces), p
            tiny = rho_and_srm(p)[1]
            assert len(tiny) == len(blocks), p
            for got, want in zip(tiny, blocks):
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), p


class TestWeightBlocks:
    def test_blockwise_solve_matches_dense_eigh(self):
        # one instance at each d in 2..5, plus one with k = N
        for p in [ProtocolParams(4, 2, 2), ProtocolParams(3, 1, 3), ProtocolParams(2, 1, 4),
                  ProtocolParams(2, 1, 5), ProtocolParams(3, 3, 2)]:
            rho = signal_sum(p)
            dim = len(rho)
            blocks = simulate._inverse_sqrt_on_support(rho, p)
            indices = np.concatenate([b for b, _, _ in blocks])
            assert np.array_equal(np.sort(indices), np.arange(dim)), p
            inv_sqrt = np.zeros_like(rho)
            kernel = []
            for b, block, ker in blocks:
                assert block.shape == (b.size, b.size) and ker.shape[0] == b.size, p
                inv_sqrt[np.ix_(b, b)] = block
                embedded = np.zeros((dim, ker.shape[1]))
                embedded[b] = ker
                kernel.append(embedded)
            kernel = np.hstack(kernel)
            assert np.abs(inv_sqrt - dense_inverse_sqrt(p)).max() < 1e-10, p
            # the kernel blocks together are an orthonormal basis of rho's null space
            vals, vecs = np.linalg.eigh(rho)
            support = vecs[:, vals > 1e-12 * vals.max()]
            complement = np.eye(dim) - support @ support.T
            assert kernel.shape[1] == dim - support.shape[1] > 0, p
            assert np.abs(kernel.T @ kernel - np.eye(kernel.shape[1])).max() < 1e-12, p
            assert np.abs(kernel @ kernel.T - complement).max() < 1e-10, p

    def test_block_form_matches_the_dense_embedding_bit_for_bit(self):
        for p in SMALL + [ProtocolParams(3, 3, 2), ProtocolParams(4, 1, 4)]:
            assert np.array_equal(srm_signal_traces(p), reference_signal_traces(p)), p
            factors = embedded_factors(p)
            reference = reference_factors(p)
            assert len(factors) == len(reference), p
            assert all(np.array_equal(f, g) for f, g in zip(factors, reference)), p

    def test_keys_label_the_weights_one_to_one(self):
        for p in [ProtocolParams(3, 1, 3), ProtocolParams(2, 2, 4)]:
            keys = simulate._weight_keys(p)
            weights = []
            for digits in itertools.product(range(p.d), repeat=p.n):
                ports, slots = digits[:p.N], digits[p.N:]
                weights.append(tuple(ports.count(c) - slots.count(c) for c in range(p.d)))
            pairs = set(zip(weights, keys.tolist()))
            assert len(pairs) == len(set(weights)) == len(set(keys.tolist())), p

    def test_off_block_entry_and_wrong_shape_are_rejected(self):
        p = ProtocolParams(4, 2, 2)
        rho = signal_sum(p)
        keys = simulate._weight_keys(p)
        i, j = 0, int(np.flatnonzero(keys != keys[0])[0])
        rho[i, j] = rho[j, i] = 1e-3
        with pytest.raises(ValueError):
            simulate._inverse_sqrt_on_support(rho, p)
        with pytest.raises(ValueError):
            simulate._inverse_sqrt_on_support(rho[:-1, :-1], p)

    def test_solve_holds_about_one_copy_of_the_blocks(self):
        # each block's copy of rho goes once it is solved and each eigenpair
        # once its S block is formed: the eigenvectors, then the S blocks,
        # make one set of sum |b|^2 floats, beside the largest block's
        # temporaries.  Keeping every copy alive held three to four sets.
        p = ProtocolParams(7, 3, 2)
        rho = signal_sum(p)
        one_set = 8 * sum(b.size**2 for b in simulate._weight_blocks(simulate._weight_keys(p)))
        tracemalloc.start()
        try:
            simulate._inverse_sqrt_on_support(rho, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * one_set


class TestFiguresOfMerit:
    def test_single_signal_cases(self):
        assert abs(srm_fidelity(ProtocolParams(1, 1, 2)) - 0.25) < 1e-10
        assert abs(srm_pdist(ProtocolParams(1, 1, 2)) - 1.0) < 1e-10

    def test_fidelity_matches_closed_form(self):
        for p in SMALL:
            closed = fidelity_exact(p.N, p.k, p.d).value
            assert abs(srm_fidelity(p) - closed) < 1e-9, p

    def test_fidelity_pdist_relation_and_bound(self):
        for p in SMALL:
            fid = srm_fidelity(p)
            pdist = srm_pdist(p)
            relation = p.num_signals / p.d ** (2 * p.k) * pdist
            assert abs(fid - relation) < 1e-10
            assert pdist >= float(pdist_lower(p.N, p.k, p.d)) - 1e-12
            assert fid >= float(fidelity_bound_ratio(p.N, p.k, p.d)) - 1e-9
