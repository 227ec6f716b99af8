import itertools
import math

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


def build_signal(ports, p):
    """Dense normalized signal operator for one measurement outcome: the
    reference that the factored routes are checked against."""
    dim = simulate._check_guard(p)
    rows, cols = simulate._signal_coords(ports, p)
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
        with pytest.raises(ValueError):
            build_signal((1, 1), p)
        with pytest.raises(ValueError):
            build_signal((0, 2), p)


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


def dense_srm(p):
    """Reference POVM elements S sigma_i S from dense signals, S = rho^(-1/2),
    together with the signals; independent of the factored route."""
    inv_sqrt = dense_inverse_sqrt(p)
    sigmas = [build_signal(ports, p) for ports in all_port_tuples(p.N, p.k)]
    return sigmas, [inv_sqrt @ sigma @ inv_sqrt for sigma in sigmas]


def materialized_povm(p):
    """Every POVM element Pi = F F^T of ``rho_and_srm``'s factors."""
    _, factors = rho_and_srm(p)
    return [f @ f.T for f in factors]


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
            rho, factors = rho_and_srm(p)
            kernel = factors[-1]
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
            for ports in all_port_tuples(p.N, p.k):
                groups = simulate._signal_groups(ports, p)
                assert groups.shape == (p.d ** (p.N - p.k), p.d**p.k)
                indicator = np.zeros((p.d**p.n, len(groups)))
                indicator[groups, np.arange(len(groups))[:, None]] = 1.0
                sigma = indicator @ indicator.T / p.d**p.N
                assert np.array_equal(sigma, build_signal(ports, p)), (p, ports)

    def test_dropped_coordinate_is_rejected(self, monkeypatch):
        coords = simulate._signal_coords
        monkeypatch.setattr(
            simulate, "_signal_coords",
            lambda ports, p: tuple(a[1:] for a in coords(ports, p)),
        )
        with pytest.raises(ValueError):
            simulate._signal_groups((1, 2), ProtocolParams(4, 2, 2))
        with pytest.raises(ValueError):
            srm_signal_traces(ProtocolParams(4, 2, 2))

    def test_moved_coordinate_is_rejected(self, monkeypatch):
        coords = simulate._signal_coords

        def moved(ports, p):
            rows, cols = coords(ports, p)
            cols = cols.copy()
            cols[0] = (cols[0] + 1) % p.d**p.n
            return rows, cols

        monkeypatch.setattr(simulate, "_signal_coords", moved)
        for ports in all_port_tuples(4, 2):
            with pytest.raises(ValueError):
                simulate._signal_groups(ports, ProtocolParams(4, 2, 2))
        with pytest.raises(ValueError):
            rho_and_srm(ProtocolParams(4, 2, 2))


class TestWeightBlocks:
    def test_blockwise_solve_matches_dense_eigh(self):
        # one instance at each d in 2..5, plus one with k = N
        for p in [ProtocolParams(4, 2, 2), ProtocolParams(3, 1, 3), ProtocolParams(2, 1, 4),
                  ProtocolParams(2, 1, 5), ProtocolParams(3, 3, 2)]:
            rho = signal_sum(p)
            inv_sqrt, kernel = simulate._inverse_sqrt_on_support(rho, p)
            assert np.abs(inv_sqrt - dense_inverse_sqrt(p)).max() < 1e-10, p
            vals, vecs = np.linalg.eigh(rho)
            support = vecs[:, vals > 1e-12 * vals.max()]
            complement = np.eye(len(rho)) - support @ support.T
            assert kernel.shape[1] > 0, p
            assert np.abs(kernel @ kernel.T - complement).max() < 1e-10, p

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
