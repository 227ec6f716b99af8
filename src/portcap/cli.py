"""Command-line surface: single values, comparison tables, asymptotic grids,
finite-N sandwich bounds, and the dense-matrix verification suite.

All tabular output is CSV (UTF-8, LF, header row, no trailing separator) with
floats at 12 significant digits and exact rationals as "p/q", so identical
invocations are byte-identical; figures are reproduced by plotting the CSV.
``--format json`` emits one JSON object per output record instead.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition error,
141 when the reader closes stdout early (``portcap verify | head -1``), the
status a shell reports for a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from typing import Iterable, Sequence

from . import bounds, performance, protocols, simulate
from .asymptotics import gaussian_limit, psucc_sandwich, sandwich_k
from .core import EvalResult, ProtocolParams
from .exactmath import UnderflowError
from .protocols import Figure, ScalingSpec, SchemeId, finite_value


@dataclass(frozen=True)
class OutputRecord:
    scheme: str
    N: int
    k: int
    d: int
    quantity: str
    value: str
    exact: str | None
    method: str


@dataclass(frozen=True)
class LimitRecord(OutputRecord):
    """An ``asympt`` row: the record plus the classified limit of its scaling."""

    limit_class: str
    limit_value: str


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# str(int) refuses integers above sys.get_int_max_str_digits() digits (4300
# by default, never below 640), which exact rationals pass near N = 14300.
# Chunks of 600 digits stay under every setting of that limit.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(n: int) -> str:
    """Decimal digits of a nonnegative integer of any size."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _fmt_exact(x: Fraction) -> str:
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _emit_records(
    fmt: str, records: Iterable[OutputRecord], header: str, lines: Iterable[str]
) -> None:
    """Print ``records`` as JSON lines, or ``lines`` as CSV under ``header``."""
    if fmt == "json":
        lines = (json.dumps(asdict(rec)) for rec in records)
    else:
        print(header)
    for line in lines:
        print(line)


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must be lo:hi or lo:hi:step, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    if lo < 1:
        raise ValueError(f"range must start at N >= 1, got {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_int_list(text: str, name: str) -> list[int]:
    toks = text.split(",")
    if not all(tok.strip() for tok in toks):
        raise ValueError(f"{name} has an empty item: {text!r}")
    return [int(tok) for tok in toks]


# ------------------------------------------------------- fidelity / psucc --


def _emit_value(
    args: argparse.Namespace,
    scheme: str,
    quantity: str,
    value: EvalResult | Fraction | float,
    method: str | None,
) -> int:
    """Print one value.  An EvalResult names its own method; the qubit
    forms, which run on either arithmetic path, also name the path taken."""
    exact = value if isinstance(value, Fraction) else None
    if isinstance(value, EvalResult):
        qubit_form = value.method == "angular-momentum"
        method = f"{value.method}/{value.arith}" if qubit_form else value.method
        value, exact = value.value, value.exact
    rec = OutputRecord(scheme, args.N, args.k, args.d, quantity, _fmt(float(value)),
                       None if exact is None else _fmt_exact(exact), method)
    line = ",".join("" if v is None else str(v) for v in astuple(rec))
    _emit_records(args.format, [rec], ",".join(f.name for f in fields(rec)), [line])
    return 0


def _fidelity_qubit(args: argparse.Namespace) -> EvalResult:
    if args.d != 2:
        raise ValueError("method 'qubit' requires d=2")
    return performance.fidelity_qubit(args.N, args.k, args.arith)


def _psucc_mpbt(args: argparse.Namespace) -> EvalResult:
    if args.d == 2:
        return performance.psucc_qubit(args.N, args.k, args.arith)
    return performance.psucc_exact(args.N, args.k, args.d)


def _single_qubit_reference(args: argparse.Namespace) -> float:
    if args.d != 2 or args.k != 1:
        raise ValueError(f"scheme '{args.scheme}' is the single-qubit reference (d=2, k=1)")
    return protocols.psucc_baselines(args.N, args.scheme)


# --method / --scheme -> (value of the parsed arguments, method column); an
# EvalResult names its own method
_FIDELITY = {
    "exact": (lambda a: performance.fidelity_exact(a.N, a.k, a.d), None),
    "qubit": (_fidelity_qubit, None),
    "bound-ratio": (lambda a: bounds.fidelity_bound_ratio(a.N, a.k, a.d), "bound-ratio"),
    "bound-product": (lambda a: bounds.fidelity_bound_product(a.N, a.k, a.d), "bound-product"),
    "bound-bernoulli": (
        lambda a: bounds.fidelity_bound_bernoulli(a.N, a.k, a.d), "bound-bernoulli"
    ),
    "oracle": (lambda a: simulate.srm_fidelity(ProtocolParams(a.N, a.k, a.d)), "oracle-srm"),
}
_PSUCC = {
    "mpbt": (_psucc_mpbt, None),
    "ompbt": (lambda a: protocols.ompbt_psucc(a.N, a.k, a.d), "closed-form"),
    "opbt": (_single_qubit_reference, "closed-form"),
    "pbt-approx": (_single_qubit_reference, "closed-form"),
}


def _cmd_fidelity(args: argparse.Namespace) -> int:
    value, method = _FIDELITY[args.method]
    scheme = "mpbt-bound" if args.method.startswith("bound") else "mpbt"
    return _emit_value(args, scheme, "fidelity", value(args), method)


def _cmd_psucc(args: argparse.Namespace) -> int:
    value, method = _PSUCC[args.scheme]
    return _emit_value(args, args.scheme, "psucc", value(args), method)


# ----------------------------------------------------------------- compare --


# compare's value columns: (quantity, scheme, method) of each JSON record
_COMPARE_COLUMNS = (
    ("bound_ratio", "mpbt-bound", "bound-ratio"),
    ("pack_opbt", "pack-opbt", "closed-form"),
    ("exact_qubit", "mpbt", "angular-momentum"),
)


def _compare_row(N: int, k: int, d: int, strict: bool, arith: str) -> tuple:
    if k > N:  # no protocol at all: leave the whole row blank
        return (N, k, None, None, None)
    ratio = float(bounds.fidelity_bound_ratio(N, k, d)) if k <= N // 2 else None
    if d != 2:  # the packaged and exact columns are qubit forms
        return (N, k, ratio, None, None)
    pack = None if strict and N % k else protocols.packaged_fidelity(N, k)
    return (N, k, ratio, pack, performance.fidelity_qubit(N, k, arith).value)


def _cmd_compare(args: argparse.Namespace) -> int:
    k_list = _parse_int_list(args.k_list, "--k-list")
    n_list = _parse_range(args.N_range)
    strict = args.strict_packaging == "true"
    if args.arith == "log" and min(k_list) > max(n_list):
        raise ValueError("--arith log has no log path here: every row has k > N")
    rows = [_compare_row(N, k, args.d, strict, args.arith) for N in n_list for k in k_list]
    _emit_records(
        args.format,
        (
            OutputRecord(scheme, N, k, args.d, quantity, _fmt(val), None, method)
            for N, k, *vals in rows
            for (quantity, scheme, method), val in zip(_COMPARE_COLUMNS, vals)
            if val is not None
        ),
        "N,k,bound_ratio,pack_opbt,exact_qubit",
        (
            f"{N},{k}," + ",".join("" if v is None else _fmt(v) for v in vals)
            for N, k, *vals in rows
        ),
    )
    return 0


# ------------------------------------------------------------------ asympt --


def _cmd_asympt(args: argparse.Namespace) -> int:
    scheme = SchemeId(args.scheme)
    figure = Figure(args.figure)
    scaling = ScalingSpec(args.a, args.alpha)
    limit = protocols.critical_limit(scheme, scaling, figure, d=args.d)
    if args.N_list is not None:
        n_list = _parse_int_list(args.N_list, "--N-list")
    else:
        n_list = _parse_range(args.N_range)

    def row(N: int) -> tuple:
        k = scaling.k_of(N)
        if k < 1:
            raise ValueError(f"k = floor(a*N^alpha) must be >= 1, got {k} at N={N}")
        try:
            return (N, k, finite_value(scheme, figure, N, k, args.d))
        except UnderflowError:
            # asympt has no --arith; psucc computes the same value exactly
            raise ValueError(
                f"{scheme.value} {figure.value} at N={N}, k={k} underflows a float;"
                f" use psucc --scheme {scheme.value} --N {N} --k {k} --arith exact"
            ) from None

    rows = [row(N) for N in n_list]
    method = f"scaling[a={args.a:g},alpha={args.alpha:g}]"
    _emit_records(
        args.format,
        (LimitRecord(scheme.value, N, k, args.d, figure.value, _fmt(value), None, method,
                     limit.kind, _fmt(limit.value))
         for N, k, value in rows),
        "N,k,value,limit_class,limit_value",
        (f"{N},{k},{_fmt(value)},{limit.kind},{_fmt(limit.value)}" for N, k, value in rows),
    )
    return 0


# ------------------------------------------------------------------- gauss --


def _cmd_gauss(args: argparse.Namespace) -> int:
    a = args.a
    n_list = _parse_range(args.N_range)
    limit = gaussian_limit(a)

    def row(N: int) -> tuple:
        k = sandwich_k(N, a)
        lower, upper, _ = psucc_sandwich(N, a)
        return (N, k, lower, performance.psucc_qubit(N, k, args.arith).value, upper)

    rows = [row(N) for N in n_list]
    _emit_records(
        args.format,
        (OutputRecord("mpbt", N, k, 2, "psucc", _fmt(mid), None,
                      f"sandwich[{_fmt(lower)},{_fmt(upper)}]")
         for N, k, lower, mid, upper in rows),
        "N,lower,exact_or_largeN,upper,limit",
        (f"{N},{_fmt(lower)},{_fmt(mid)},{_fmt(upper)},{_fmt(limit)}"
         for N, _, lower, mid, upper in rows),
    )
    return 0


# ------------------------------------------------------------------ verify --


def _povm_valid(p: ProtocolParams, rho: simulate.WeightBlocks) -> bool:
    """Completeness and positivity of p's square-root measurement, read from
    the weight blocks of ``simulate.rho_and_srm`` on the signal sum rho.

    The blocks' indices must partition the index space.  Columns of different
    weights share no row, so W W^T = I, for W the factors side by side, holds
    when W_b^T W_b + K_b K_b^T = I on each block, W_b the rows of F_b.
    Pi_i = F_i F_i^T shares its nonzero spectrum with the Grams F_b[i] F_b[i]^T
    of its blocks, checked for all outcomes in one batch per block.
    """
    import numpy as np

    _, blocks = simulate.rho_and_srm(p, rho=rho)
    indices = np.sort(np.concatenate([b for b, _, _ in blocks]))
    if not np.array_equal(indices, np.arange(p.d**p.n)):
        return False
    for b, F, K in blocks:
        W = F.reshape(-1, b.size)
        if np.abs(W.T @ W + K @ K.T - np.eye(b.size)).max() > 1e-10:
            return False
        for gram in (F @ F.transpose(0, 2, 1), K.T @ K):
            if gram.size and np.linalg.eigvalsh(gram).min() < -1e-10:
                return False
    return True


def _verify_checks(max_dim: int):
    """Yield (name, N, k, d, callable) verification checks up to max_dim."""
    import numpy as np

    # Pairwise-overlap sums against the closed trace formula, exact integers.
    for d in (2, 3):
        for n in range(3, 8):
            for k in (1, 2):
                N = n - k
                if k > N // 2:
                    continue
                yield (
                    "trace-sum-vs-formula", N, k, d,
                    lambda n=n, k=k, d=d: bounds.trace_rho_squared(n, k, d)
                    == sum(
                        bounds.signal_pair_trace_raw(a, b, n, k, d)
                        for a in simulate.all_port_tuples(n - k, k)
                        for b in simulate.all_port_tuples(n - k, k)
                    ),
                )

    # Counterexample pair: overlapping signals whose trace is 1/d^4, not 1/d^6.
    def overlap_counterexample() -> bool:
        ok = True
        for d in (2, 3, 4):
            val = bounds.pairwise_signal_trace((4, 3), (3, 4), 6, 2, d)
            ok &= val == Fraction(1, d**4) and val != Fraction(1, d**6)
        p = ProtocolParams(4, 2, 2)
        mat = simulate.pairwise_trace_matrix((4, 3), (3, 4), p)
        return ok and abs(mat - 1.0 / 16.0) <= 1e-12

    yield ("overlap-counterexample", 4, 2, 2, overlap_counterexample)

    instances = simulate.feasible_instances(max_dim=max_dim)
    for p in instances:
        # the dense pipeline is the expensive part: the signal sum from
        # batched coordinate tables, the weight-block eigensolve, and every
        # outcome's trace from batched group tables.  It runs once per
        # instance; the checks share it, and the POVM check reuses its rho.
        # Its cache is cleared when the generator resumes after the
        # instance's last check, so rho and the traces are freed before the
        # next instance's rho is built, whoever still holds the closures.
        @functools.cache
        def pipeline(p=p):
            rho = simulate.signal_sum(p)
            return rho, simulate.srm_signal_traces(p, rho=rho)

        def purity(p=p, pipeline=pipeline) -> bool:
            rho, _ = pipeline()  # zero off its weight blocks
            trace = math.fsum(np.trace(block) for block in rho.blocks)
            lhs = math.fsum(np.einsum("ij,ji->", block, block) for block in rho.blocks) / trace**2
            rhs = float(bounds.trace_rho_bar_squared(p.N, p.k, p.d))
            return abs(lhs - rhs) <= 1e-10 and abs(trace - p.num_signals) <= 1e-9

        yield ("signal-sum-purity", p.N, p.k, p.d, purity)

        def fidelity_match(p=p, pipeline=pipeline) -> bool:
            # rho is invariant under port permutations: all outcomes share one trace
            _, traces = pipeline()
            same = np.ptp(traces) <= 1e-12 * traces.mean()
            oracle = float(traces.sum()) / p.d ** (2 * p.k)
            closed = performance.fidelity_exact(p.N, p.k, p.d).value
            bern = bounds.fidelity_bound_bernoulli(p.N, p.k, p.d)
            prod = bounds.fidelity_bound_product(p.N, p.k, p.d)
            ratio = bounds.fidelity_bound_ratio(p.N, p.k, p.d)
            chain = bern <= prod <= ratio and float(ratio) <= oracle + 1e-9
            return abs(oracle - closed) <= 1e-9 and chain and same

        yield ("srm-fidelity-vs-formula", p.N, p.k, p.d, fidelity_match)

        def discrimination(p=p, pipeline=pipeline) -> bool:
            _, traces = pipeline()
            pdist = float(traces.sum()) / p.num_signals
            fid = float(traces.sum()) / p.d ** (2 * p.k)
            relation = abs(fid - p.num_signals / p.d ** (2 * p.k) * pdist) <= 1e-10
            return relation and pdist >= float(bounds.pdist_lower(p.N, p.k, p.d)) - 1e-12

        yield ("discrimination-relation", p.N, p.k, p.d, discrimination)

        if p.d**p.n <= min(max_dim, 512):

            def povm_valid(p=p, pipeline=pipeline) -> bool:
                return _povm_valid(p, pipeline()[0])

            yield ("povm-complete-positive", p.N, p.k, p.d, povm_valid)

        pipeline.cache_clear()


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_dim > simulate.DIM_GUARD:
        raise ValueError(f"max-dim must be <= {simulate.DIM_GUARD}")
    if args.max_dim < 8:
        raise ValueError(
            "max-dim must be >= 8: the smallest dense instance, "
            "(N, k, d) = (2, 1, 2), has d**(N+k) = 8"
        )
    failures = 0
    total = 0
    print("check,N,k,d,status,seconds")
    for name, N, k, d, fn in _verify_checks(args.max_dim):
        start = time.perf_counter()
        ok = bool(fn())
        elapsed = time.perf_counter() - start
        total += 1
        failures += not ok
        print(f"{name},{N},{k},{d},{'PASS' if ok else 'FAIL'},{elapsed:.3f}")
    print(f"# {total - failures}/{total} checks passed", file=sys.stderr)
    return 1 if failures else 0


# -------------------------------------------------------------------- main --


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="portcap",
        description="Performance of port-based and multi-port-based teleportation: "
        "exact values, bounds, and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, arith: bool = True) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if arith:
            p.add_argument("--arith", choices=("auto", "exact", "log"), default="auto")

    p_fid = sub.add_parser("fidelity", help="entanglement fidelity of one instance")
    p_fid.add_argument("--N", type=int, required=True)
    p_fid.add_argument("--k", type=int, required=True)
    p_fid.add_argument("--d", type=int, default=2)
    p_fid.add_argument("--method", choices=tuple(_FIDELITY), default="exact")
    common(p_fid)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_ps = sub.add_parser("psucc", help="success probability of one instance")
    p_ps.add_argument("--N", type=int, required=True)
    p_ps.add_argument("--k", type=int, default=1)
    p_ps.add_argument("--d", type=int, default=2)
    p_ps.add_argument("--scheme", choices=tuple(_PSUCC), default="mpbt")
    common(p_ps)
    p_ps.set_defaults(func=_cmd_psucc)

    p_cmp = sub.add_parser("compare", help="bound vs packaged-OPBT vs exact table")
    p_cmp.add_argument("--k-list", dest="k_list", required=True, help="comma list, e.g. 4,6,8")
    p_cmp.add_argument("--N-range", dest="N_range", required=True, help="inclusive lo:hi:step")
    p_cmp.add_argument("--d", type=int, default=2)
    p_cmp.add_argument(
        "--strict-packaging", dest="strict_packaging",
        choices=("true", "false"), default="false",
        help="true: blank the packaged column where k does not divide N",
    )
    common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_as = sub.add_parser("asympt", help="figure of merit along k = floor(a*N^alpha)")
    p_as.add_argument("--scheme", choices=[s.value for s in SchemeId], required=True)
    p_as.add_argument("--figure", choices=[f.value for f in Figure], required=True)
    p_as.add_argument("--a", type=float, required=True)
    p_as.add_argument("--alpha", type=float, required=True)
    ports = p_as.add_mutually_exclusive_group(required=True)
    ports.add_argument("--N-list", dest="N_list", help="comma list of port counts")
    ports.add_argument("--N-range", dest="N_range", help="inclusive lo:hi:step")
    p_as.add_argument("--d", type=int, default=2)
    common(p_as, arith=False)
    p_as.set_defaults(func=_cmd_asympt)

    p_g = sub.add_parser("gauss", help="finite-N sandwich around the success probability")
    p_g.add_argument("--a", type=float, required=True)
    p_g.add_argument("--N-range", dest="N_range", required=True)
    common(p_g)
    p_g.set_defaults(func=_cmd_gauss)

    p_v = sub.add_parser("verify", help="dense-matrix verification suite")
    p_v.add_argument("--max-dim", dest="max_dim", type=int, default=512)
    p_v.set_defaults(func=_cmd_verify)

    return parser


def _check_log_arith(args: argparse.Namespace) -> None:
    """Refuse --arith log where no printed value takes the log path, which
    exists for the qubit forms only: fidelity --method qubit, psucc --scheme
    mpbt and the qubit columns of compare and gauss."""
    if getattr(args, "arith", None) != "log":
        return
    choice = getattr(args, "method", None) or getattr(args, "scheme", None)
    if getattr(args, "d", 2) != 2 or choice not in (None, "qubit", "mpbt"):
        raise ValueError(
            "--arith log has no log path here: only the d=2 fidelity --method qubit,"
            " psucc --scheme mpbt, compare and gauss take it"
        )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_log_arith(args)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit fails no second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
