"""Command-line surface: single values, comparison tables, asymptotic grids,
finite-N sandwich bounds, and the dense-matrix verification suite.

All tabular output is CSV (UTF-8, LF, header row, no trailing separator) with
floats at 12 significant digits and exact rationals as "p/q", so identical
invocations are byte-identical; figures are reproduced by plotting the CSV.
``--format json`` emits one JSON object per output record instead.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import bounds, performance, protocols, simulate
from .asymptotics import gaussian_limit, psucc_largeN, psucc_sandwich, sandwich_k
from .core import ProtocolParams
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_exact(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit_records(records: Iterable[OutputRecord], fmt: str) -> None:
    records = list(records)
    if fmt == "json":
        for rec in records:
            print(json.dumps(asdict(rec)))
        return
    print("scheme,N,k,d,quantity,value,exact,method")
    for rec in records:
        exact = rec.exact if rec.exact is not None else ""
        print(
            f"{rec.scheme},{rec.N},{rec.k},{rec.d},{rec.quantity},"
            f"{rec.value},{exact},{rec.method}"
        )


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must be lo:hi or lo:hi:step, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------- fidelity --


def _cmd_fidelity(args: argparse.Namespace) -> int:
    N, k, d = args.N, args.k, args.d
    method = args.method
    exact: str | None = None
    if method == "exact":
        res = performance.fidelity_exact(N, k, d)
        value = res.value
        exact = _fmt_exact(res.exact) if res.exact is not None else None
        tag = res.method
    elif method == "qubit":
        if d != 2:
            raise ValueError("method 'qubit' requires d=2")
        res = performance.fidelity_qubit(N, k, arith=args.arith)
        value = res.value
        exact = _fmt_exact(res.exact) if res.exact is not None else None
        tag = f"{res.method}/{res.arith}"
    elif method in ("bound-ratio", "bound-product", "bound-bernoulli"):
        fn = {
            "bound-ratio": bounds.fidelity_bound_ratio,
            "bound-product": bounds.fidelity_bound_product,
            "bound-bernoulli": bounds.fidelity_bound_bernoulli,
        }[method]
        frac = fn(N, k, d)
        value = float(frac)
        exact = _fmt_exact(frac)
        tag = method
    elif method == "oracle":
        value = simulate.srm_fidelity(ProtocolParams(N, k, d))
        tag = "oracle-srm"
    else:
        raise ValueError(f"unknown method {method!r}")
    scheme = "mpbt-bound" if method.startswith("bound") else "mpbt"
    _emit_records(
        [OutputRecord(scheme, N, k, d, "fidelity", _fmt(value), exact, tag)],
        args.format,
    )
    return 0


def _cmd_psucc(args: argparse.Namespace) -> int:
    N, k, d = args.N, args.k, args.d
    scheme = args.scheme
    exact: str | None = None
    if scheme == "mpbt":
        if performance.resolve_arith(N, args.arith) == "log":
            if d != 2:
                raise ValueError("log-space success probability requires d=2")
            value = psucc_largeN(N, k)
            tag = "angular-momentum/log"
        else:
            frac = performance.psucc_exact(N, k, d)
            value = float(frac)
            exact = _fmt_exact(frac)
            tag = "schur-weyl-sum"
    elif scheme == "ompbt":
        frac = protocols.ompbt_psucc(N, k, d)
        value = float(frac)
        exact = _fmt_exact(frac)
        tag = "closed-form"
    elif scheme == "opbt":
        if d != 2 or k != 1:
            raise ValueError("scheme 'opbt' is the single-qubit reference (d=2, k=1)")
        value = protocols.psucc_baselines(N, "opbt")
        tag = "closed-form"
    elif scheme == "pbt-approx":
        if d != 2 or k != 1:
            raise ValueError("scheme 'pbt-approx' is the single-qubit reference (d=2, k=1)")
        value = protocols.psucc_baselines(N, "pbt-approx")
        tag = "closed-form"
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    _emit_records(
        [OutputRecord(scheme, N, k, d, "psucc", _fmt(value), exact, tag)],
        args.format,
    )
    return 0


# ----------------------------------------------------------------- compare --


def _compare_row(N: int, k: int, d: int, strict: bool, arith: str) -> tuple:
    if k > N:  # no protocol at all: leave the whole row blank
        return (N, k, None, None, None)
    ratio = float(bounds.fidelity_bound_ratio(N, k, d)) if k <= N // 2 else None
    pack = None if strict and N % k else protocols.packaged_fidelity(N, k)
    exact = performance.fidelity_qubit(N, k, arith=arith).value if d == 2 else None
    return (N, k, ratio, pack, exact)


def _cmd_compare(args: argparse.Namespace) -> int:
    k_list = _parse_int_list(args.k_list)
    n_list = _parse_range(args.N_range)
    if not k_list or not n_list:
        raise ValueError("empty k-list or N-range")
    strict = args.strict_packaging == "true"
    rows = [_compare_row(N, k, args.d, strict, args.arith) for N in n_list for k in k_list]
    if args.format == "json":
        for N, k, ratio, pack, exact in rows:
            for quantity, val, scheme, method in (
                ("bound_ratio", ratio, "mpbt-bound", "bound-ratio"),
                ("pack_opbt", pack, "pack-opbt", "closed-form"),
                ("exact_qubit", exact, "mpbt", "angular-momentum"),
            ):
                if val is None:
                    continue
                rec = OutputRecord(scheme, N, k, args.d, quantity, _fmt(val), None, method)
                print(json.dumps(asdict(rec)))
        return 0
    print("N,k,bound_ratio,pack_opbt,exact_qubit")
    for N, k, ratio, pack, exact in rows:
        cells = ["" if v is None else _fmt(v) for v in (ratio, pack, exact)]
        print(f"{N},{k},{cells[0]},{cells[1]},{cells[2]}")
    return 0


# ------------------------------------------------------------------ asympt --


def _cmd_asympt(args: argparse.Namespace) -> int:
    scheme = SchemeId(args.scheme)
    figure = Figure(args.figure)
    scaling = ScalingSpec(args.a, args.alpha)
    limit = protocols.critical_limit(scheme, scaling, figure, d=args.d)
    if args.N_list:
        n_list = _parse_int_list(args.N_list)
    elif args.N_range:
        n_list = _parse_range(args.N_range)
    else:
        raise ValueError("one of --N-list or --N-range is required")
    if not n_list:
        raise ValueError("empty N list")

    def row(N: int) -> tuple:
        k = scaling.k_of(N)
        if k < 1:
            raise ValueError(f"k = floor(a*N^alpha) must be >= 1, got {k} at N={N}")
        return (N, k, finite_value(scheme, figure, N, k, args.d))

    rows = [row(N) for N in n_list]
    if args.format == "json":
        for N, k, value in rows:
            rec = OutputRecord(
                scheme.value, N, k, args.d, figure.value, _fmt(value), None,
                f"scaling[a={args.a:g},alpha={args.alpha:g}]",
            )
            print(json.dumps(asdict(rec)))
        return 0
    print("N,k,value,limit_class,limit_value")
    for N, k, value in rows:
        print(f"{N},{k},{_fmt(value)},{limit.kind},{_fmt(limit.value)}")
    return 0


# ------------------------------------------------------------------- gauss --


def _cmd_gauss(args: argparse.Namespace) -> int:
    a = args.a
    n_list = _parse_range(args.N_range)
    if not n_list:
        raise ValueError("empty N-range")
    limit = gaussian_limit(a)

    def row(N: int) -> tuple:
        k = sandwich_k(N, a)
        lower, upper, _ = psucc_sandwich(N, a)
        if performance.resolve_arith(N, args.arith) == "exact":
            mid = float(performance.psucc_qubit(N, k))
        else:
            mid = psucc_largeN(N, k)
        return (N, lower, mid, upper)

    rows = [row(N) for N in n_list]
    if args.format == "json":
        for N, lower, mid, upper in rows:
            rec = OutputRecord(
                "mpbt", N, sandwich_k(N, a), 2, "psucc", _fmt(mid), None,
                f"sandwich[{_fmt(lower)},{_fmt(upper)}]",
            )
            print(json.dumps(asdict(rec)))
        return 0
    print("N,lower,exact_or_largeN,upper,limit")
    for N, lower, mid, upper in rows:
        print(f"{N},{_fmt(lower)},{_fmt(mid)},{_fmt(upper)},{_fmt(limit)}")
    return 0


# ------------------------------------------------------------------ verify --


def _verify_checks(max_dim: int):
    """Yield (name, N, k, d, callable) verification checks up to max_dim."""
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

    instances = simulate.feasible_instances(max_dim=max_dim, bound_scope=True)
    for p in instances:
        # the dense pipeline (signal sum, eigensolve, per-outcome traces) is
        # the expensive part; compute it once per instance, checks share it
        cache: dict[str, object] = {}

        def pipeline(p=p, cache=cache):
            if "traces" not in cache:
                cache["rho"] = simulate.signal_sum(p)
                cache["traces"] = simulate.srm_signal_traces(p, rho=cache["rho"])
            return cache["rho"], cache["traces"]

        def purity(p=p, pipeline=pipeline) -> bool:
            rho, _ = pipeline()
            rho_bar = rho / np.trace(rho)
            lhs = float((rho_bar * rho_bar.T).sum())
            rhs = float(bounds.trace_rho_bar_squared(p.N, p.k, p.d))
            return abs(lhs - rhs) <= 1e-10 and abs(np.trace(rho) - p.num_signals) <= 1e-9

        yield ("signal-sum-purity", p.N, p.k, p.d, purity)

        def fidelity_match(p=p, pipeline=pipeline) -> bool:
            _, traces = pipeline()
            oracle = float(traces.sum()) / p.d ** (2 * p.k)
            closed = performance.fidelity_exact(p.N, p.k, p.d).value
            bern = bounds.fidelity_bound_bernoulli(p.N, p.k, p.d)
            prod = bounds.fidelity_bound_product(p.N, p.k, p.d)
            ratio = bounds.fidelity_bound_ratio(p.N, p.k, p.d)
            chain = bern <= prod <= ratio and float(ratio) <= oracle + 1e-9
            return abs(oracle - closed) <= 1e-9 and chain

        yield ("srm-fidelity-vs-formula", p.N, p.k, p.d, fidelity_match)

        def discrimination(p=p, pipeline=pipeline) -> bool:
            _, traces = pipeline()
            pdist = float(traces.sum()) / p.num_signals
            fid = float(traces.sum()) / p.d ** (2 * p.k)
            relation = abs(fid - p.num_signals / p.d ** (2 * p.k) * pdist) <= 1e-10
            return relation and pdist >= float(bounds.pdist_lower(p.N, p.k, p.d)) - 1e-12

        yield ("discrimination-relation", p.N, p.k, p.d, discrimination)

        if p.d**p.n <= min(max_dim, 512):

            def povm_valid(p=p) -> bool:
                rho, povm = simulate.rho_and_srm(p)
                total = sum(povm)
                if np.abs(total - np.eye(total.shape[0])).max() > 1e-10:
                    return False
                return all(
                    np.linalg.eigvalsh(element).min() >= -1e-10 for element in povm
                )

            yield ("povm-complete-positive", p.N, p.k, p.d, povm_valid)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_dim > simulate.DIM_GUARD:
        raise ValueError(f"max-dim must be <= {simulate.DIM_GUARD}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portcap",
        description="Performance of port-based and multi-port-based teleportation: "
        "exact values, bounds, and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--arith", choices=("auto", "exact", "log"), default="auto")

    p_fid = sub.add_parser("fidelity", help="entanglement fidelity of one instance")
    p_fid.add_argument("--N", type=int, required=True)
    p_fid.add_argument("--k", type=int, required=True)
    p_fid.add_argument("--d", type=int, default=2)
    p_fid.add_argument(
        "--method",
        choices=("exact", "qubit", "bound-ratio", "bound-product", "bound-bernoulli", "oracle"),
        default="exact",
    )
    common(p_fid)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_ps = sub.add_parser("psucc", help="success probability of one instance")
    p_ps.add_argument("--N", type=int, required=True)
    p_ps.add_argument("--k", type=int, default=1)
    p_ps.add_argument("--d", type=int, default=2)
    p_ps.add_argument("--scheme", choices=("mpbt", "ompbt", "opbt", "pbt-approx"), default="mpbt")
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
    p_as.add_argument("--N-list", dest="N_list", help="comma list of port counts")
    p_as.add_argument("--N-range", dest="N_range", help="inclusive lo:hi:step")
    p_as.add_argument("--d", type=int, default=2)
    common(p_as)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
