"""In-memory span tracing of portcap's modules, installed from outside the package.

Each traced function is replaced, in every ``portcap`` module namespace that
binds it, by a wrapper that records a span ``[name, start, end, parent, note]``.
Patching every binding matters: ``cli`` reaches ``psucc_largeN`` and
``performance`` reaches ``add_boxes`` through ``from ... import`` names, so
patching only the defining module would record nothing.  ``note`` is a small
value derived from the call (never the call's arrays) from which the counters
are computed after the run, outside every span.

Helpers called once per term (``binomial``, ``spin_path_count``,
``sqrt_as_fraction``, ``as_diagram``, ``add_one_box``) are not wrapped: a
span per term would cost more than the work it measures, and their time is
counted in the caller's self time.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans under one ``cli.main`` span sum to that
span's duration, so per-layer self times account for the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _fidelity_qubit_note(args, kwargs, result):
    N, k = args[0], args[1]
    return (N, k, result.arith)


def _radical_sum_note(args, kwargs, result):
    live = sum(1 for c, r in args[0] if c != 0 and r != 0)
    return (live, result[1])


def _nk_note(args, kwargs, result):
    return (args[0], args[1])


def _dim_note(args, kwargs, result):
    return args[0].shape[0]


def _srm_traces_note(args, kwargs, result):
    p = args[0]
    return (p.num_signals, p.d**p.n)


# (defining module, function, span name, note(args, kwargs, result) or None)
TARGETS = [
    ("performance", "fidelity_qubit", "performance.fidelity_qubit", _fidelity_qubit_note),
    ("performance", "fidelity_exact", "performance.fidelity_exact", None),
    ("performance", "psucc_exact", "performance.psucc_exact", None),
    ("performance", "psucc_qubit", "performance.psucc_qubit", None),
    ("exactmath", "square_of_radical_sum", "exactmath.square_of_radical_sum", _radical_sum_note),
    ("exactmath", "logsumexp", "exactmath.logsumexp", None),
    ("tableaux", "enumerate_diagrams", "tableaux.enumerate_diagrams", None),
    ("tableaux", "add_boxes", "tableaux.add_boxes", lambda a, kw, r: len(r)),
    ("tableaux", "syt_count", "tableaux.syt_count", lambda a, kw, r: a[0]),
    ("tableaux", "ssyt_count", "tableaux.ssyt_count", None),
    ("asymptotics", "psucc_largeN", "asymptotics.psucc_largeN", _nk_note),
    ("asymptotics", "psucc_sandwich", "asymptotics.psucc_sandwich", None),
    ("asymptotics", "sandwich_k", "asymptotics.sandwich_k", None),
    ("asymptotics", "gaussian_limit", "asymptotics.gaussian_limit", None),
    ("bounds", "trace_rho_squared", "bounds.trace_rho_squared", None),
    ("bounds", "trace_rho_bar_squared", "bounds.trace_rho_bar_squared", None),
    ("bounds", "pdist_lower", "bounds.pdist_lower", None),
    ("bounds", "fidelity_bound_ratio", "bounds.fidelity_bound_ratio", None),
    ("bounds", "fidelity_bound_product", "bounds.fidelity_bound_product", None),
    ("bounds", "fidelity_bound_bernoulli", "bounds.fidelity_bound_bernoulli", None),
    ("bounds", "symmetric_poly_bound", "bounds.symmetric_poly_bound", None),
    ("bounds", "pairwise_signal_trace", "bounds.pairwise_signal_trace", None),
    ("bounds", "signal_pair_trace_raw", "bounds.signal_pair_trace_raw", None),
    ("protocols", "opbt_fidelity", "protocols.opbt_fidelity", None),
    ("protocols", "packaged_fidelity", "protocols.packaged_fidelity", None),
    ("protocols", "packaged_fidelity_approx", "protocols.packaged_fidelity_approx", None),
    ("protocols", "packaged_fidelity_linear", "protocols.packaged_fidelity_linear", None),
    ("protocols", "ompbt_psucc", "protocols.ompbt_psucc", None),
    ("protocols", "psucc_baselines", "protocols.psucc_baselines", None),
    ("protocols", "critical_exponent", "protocols.critical_exponent", None),
    ("protocols", "critical_limit", "protocols.critical_limit", None),
    ("simulate", "all_port_tuples", "simulate.all_port_tuples", None),
    ("simulate", "signal_sum", "simulate.signal_sum", None),
    # eigh of the signal sum plus the rho^(-1/2) and support-projector products
    ("simulate", "_inverse_sqrt_on_support", "simulate.eigh", _dim_note),
    ("simulate", "srm_signal_traces", "simulate.srm_signal_traces", _srm_traces_note),
    ("simulate", "rho_and_srm", "simulate.rho_and_srm", lambda a, kw, r: len(r[1])),
    ("simulate", "srm_fidelity", "simulate.srm_fidelity", None),
    ("simulate", "srm_pdist", "simulate.srm_pdist", None),
    ("simulate", "pairwise_trace_matrix", "simulate.pairwise_trace_matrix", None),
    ("simulate", "feasible_instances", "simulate.feasible_instances", None),
]

LAYERS = ("performance", "exactmath", "tableaux", "asymptotics", "bounds",
          "protocols", "simulate")

POVM_CHECK = "povm-complete-positive"


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out of every portcap namespace that binds a target."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if name == "portcap" or name.startswith("portcap.")]
        for mod_name, func, span_name, note in TARGETS:
            original = getattr(sys.modules[f"portcap.{mod_name}"], func)
            wrapped = self.wrap(span_name, original, note)
            for mod in modules:
                for attr, val in vars(mod).items():
                    if val is original:
                        self._patches.append((mod, attr, original, wrapped))
        cli = sys.modules["portcap.cli"]
        checks = cli._verify_checks
        self._patches.append((cli, "_verify_checks", checks, self._traced_checks(checks)))
        self.main = self.wrap("cli.main", cli.main, None)

    def wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def _traced_checks(self, checks):
        def traced_checks(max_dim):
            for name, N, k, d, fn in checks(max_dim):
                if name == POVM_CHECK:
                    fn = self.wrap("cli.povm_check", fn, None)
                yield name, N, k, d, fn

        return traced_checks

    def install(self) -> None:
        self.spans.clear()
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, note) in enumerate(spans):
        if name == "performance.fidelity_qubit":
            name = f"{name}.{note[2]}"
        own = end - start - child[i]
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            self_s[key] += own
            calls[key] += 1
        if note is not None:
            notes[name].append(note)

    out: dict[str, float] = {}
    for key in (
        "cli.povm_check", "performance.fidelity_qubit.exact", "performance.fidelity_qubit.log",
        "performance.fidelity_exact", "performance.psucc_exact", "performance.psucc_qubit",
        "exactmath.square_of_radical_sum", "exactmath.logsumexp", "tableaux.add_boxes",
        "tableaux.syt_count", "tableaux.ssyt_count", "tableaux.enumerate_diagrams",
        "asymptotics.psucc_largeN", "simulate.signal_sum", "simulate.eigh",
        "simulate.srm_signal_traces", "simulate.rho_and_srm",
    ):
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.calls"] = calls[key]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    # the CLI's own time: cli.main spans minus all their children
    out["cli.self_s"] = self_s["cli.main"]
    out["cli.main.wall_s"] = sum(e - s for n, s, e, _, _ in spans if n == "cli.main")

    out["performance.fidelity_qubit.log.terms"] = sum(
        _qubit_terms(N, k) for N, k, _ in notes["performance.fidelity_qubit.log"])
    radical = notes["exactmath.square_of_radical_sum"]
    out["exactmath.square_of_radical_sum.cross_terms"] = sum(n * (n - 1) // 2 for n, _ in radical)
    out["exactmath.square_of_radical_sum.exact_ratio"] = (
        sum(ok for _, ok in radical) / len(radical) if radical else 0.0)
    out["tableaux.add_boxes.targets"] = sum(notes["tableaux.add_boxes"])
    shapes = notes["tableaux.syt_count"]
    out["tableaux.syt_count.distinct_ratio"] = len(set(shapes)) / len(shapes) if shapes else 0.0
    largeN = notes["asymptotics.psucc_largeN"]
    out["asymptotics.psucc_largeN.terms"] = sum((N - k) // 2 + 1 for N, k in largeN)
    out["asymptotics.psucc_largeN.bytes_computed"] = sum(_largeN_bytes(N, k) for N, k in largeN)
    out["simulate.eigh.dim3"] = sum(dim**3 for dim in notes["simulate.eigh"])
    traces = notes["simulate.srm_signal_traces"]
    out["simulate.srm_signal_traces.outcomes"] = sum(n for n, _ in traces)
    out["simulate.srm_signal_traces.gather_bytes"] = sum(n * dim * dim * 8 for n, dim in traces)
    out["simulate.rho_and_srm.povm_elements"] = sum(notes["simulate.rho_and_srm"])
    return out


def _qubit_terms(N: int, k: int) -> int:
    """(s, j) pairs the angular-momentum sum visits, as in performance.fidelity_qubit."""
    total = 0
    for two_s in range((N - k) % 2, N - k + 1, 2):
        total += (two_s + k - max(N % 2, two_s - k)) // 2 + 1
    return total


def _largeN_bytes(N: int, k: int) -> int:
    """Computed bytes of psucc_largeN's arrays: two_s, m and terms (T entries
    each), idx and the ln-binomial table (M and M + 1 entries), 8 bytes each."""
    m_max = (N - k) // 2
    return 8 * (3 * (m_max + 1) + 2 * m_max + 1)
