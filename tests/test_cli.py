import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from portcap import cli, simulate
from portcap.asymptotics import PSUCC_LARGEN_MAX_N
from portcap.cli import main
from portcap.core import ProtocolParams
from portcap.performance import FIDELITY_LOG_MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env(**extra):
    """The environment of a ``python -m portcap`` child that imports this checkout."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestFidelityCommand:
    def test_bound_ratio_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity", "--N", "4", "--k", "2", "--d", "2", "--method", "bound-ratio"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "scheme,N,k,d,quantity,value,exact,method"
        assert row == "mpbt-bound,4,2,2,fidelity,0.285714285714,2/7,bound-ratio"

    def test_exact_record(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--N", "1", "--k", "1", "--method", "exact")
        assert code == 0
        assert "mpbt,1,1,2,fidelity,0.25,1/4,schur-weyl-sum" in out

    def test_precondition_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "fidelity", "--N", "3", "--k", "2", "--method", "bound-ratio"
        )
        assert code == 2
        assert "floor(N/2)" in err

    def test_oracle_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity", "--N", "3", "--k", "1", "--method", "oracle"
        )
        assert code == 0
        assert ",oracle-srm" in out
        assert "0.625" in out

    def test_oracle_guard_refuses_before_forming_the_dimension(self, capsys):
        # d**(N+k) at N = 1e6 is past the int-to-string digit limit of the
        # message, and 3**(N+k) at N = 1e8 takes over a minute to form
        for N, d in (("1000000", "2"), ("100000000", "3")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "fidelity", "--method", "oracle",
                                     "--N", N, "--k", "1", "--d", d)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert f"d**(N+k) <= 4096, got N={N}, k=1, d={d}" in err

    def test_qubit_log_path_refuses_n_past_its_limit(self, capsys):
        # the log kernel's tables take about 22 bytes per port: at N = 1e9
        # it ran out of memory with a traceback instead of exiting 2
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fidelity", "--method", "qubit", "--arith", "log",
                                 "--N", "1000000000", "--k", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"N <= {FIDELITY_LOG_MAX_N}" in err

    def test_qubit_method_matches_exact(self, capsys):
        _, out_q, _ = run_cli(capsys, "fidelity", "--N", "5", "--k", "2", "--method", "qubit")
        _, out_e, _ = run_cli(capsys, "fidelity", "--N", "5", "--k", "2", "--method", "exact")
        value_q = out_q.strip().split("\n")[1].split(",")[5]
        value_e = out_e.strip().split("\n")[1].split(",")[5]
        assert value_q == value_e
        code, _, err = run_cli(capsys, "fidelity", "--N", "5", "--k", "2", "--d", "3",
                               "--method", "qubit")
        assert code == 2 and "d=2" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity", "--N", "2", "--k", "2", "--method", "exact",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"scheme", "N", "k", "d", "quantity", "value", "exact", "method"}
        assert rec["N"] == 2 and rec["quantity"] == "fidelity"


class TestPsuccCommand:
    def test_exact_rational(self, capsys):
        code, out, _ = run_cli(capsys, "psucc", "--N", "2", "--k", "2", "--scheme", "mpbt")
        assert code == 0 and "1/12" in out

    def test_ompbt(self, capsys):
        code, out, _ = run_cli(
            capsys, "psucc", "--N", "10", "--k", "2", "--scheme", "ompbt"
        )
        assert code == 0 and "15/26" in out

    def test_opbt_single_system(self, capsys):
        code, out, _ = run_cli(capsys, "psucc", "--N", "3", "--scheme", "opbt")
        assert code == 0 and ",0.5," in out

    def test_log_path_for_large_n(self, capsys):
        code, out, _ = run_cli(capsys, "psucc", "--N", "100000", "--k", "316")
        assert code == 0 and "angular-momentum/log" in out

    # the streamed success-probability kernel would run for centuries at
    # N near 1e20: every command that reaches it exits 2 before any work
    @pytest.mark.parametrize("command", [
        "psucc --scheme mpbt --N 99999999999999999999 --k 1",
        "gauss --a 1.0 --N-range 99999999999999999999:99999999999999999999",
        "asympt --scheme mpbt --figure psucc --a 1.0 --alpha 0.5 --N-list 99999999999999999999",
    ])
    def test_streamed_kernel_refuses_n_past_its_limit(self, command):
        proc = subprocess.run([sys.executable, "-m", "portcap", *command.split()],
                              capture_output=True, text=True, env=cli_env(), timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and f"N <= {PSUCC_LARGEN_MAX_N}" in proc.stderr


class TestCompareCommand:
    def test_header_and_known_row(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--k-list", "4", "--N-range", "8:12:4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,k,bound_ratio,pack_opbt,exact_qubit"
        assert lines[1].startswith("8,4,0.212121212121,")

    def test_k1_row_matches_collapse_form(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--k-list", "1", "--N-range", "10:10")
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(1 - 3 / 13, rel=1e-12)

    def test_blank_cell_outside_bound_scope(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--k-list", "4", "--N-range", "6:6")
        row = out.strip().split("\n")[1]
        assert row.split(",")[2] == ""

    def test_strict_packaging_blanks(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--k-list", "4", "--N-range", "9:9",
            "--strict-packaging", "true",
        )
        row = out.strip().split("\n")[1]
        assert row.split(",")[3] == ""

    def test_strict_packaging_only_blanks(self, capsys):
        # d = 3 leaves the qubit column empty, which keeps the grid fast; the
        # packaged column is the same qubit curve at any d
        args = ("compare", "--k-list", "4,6,8", "--N-range", "8:2000:4", "--d", "3")
        _, default, _ = run_cli(capsys, *args)
        _, strict, _ = run_cli(capsys, *args, "--strict-packaging", "true")
        blanked = 0
        for row, strict_row in zip(default.splitlines()[1:], strict.splitlines()[1:]):
            N, k, _, pack, _ = row.split(",")
            cell = strict_row.split(",")[3]
            if int(N) % int(k):
                assert cell == ""
                blanked += 1
            else:
                assert cell == pack, row
        assert blanked > 0

    def test_strict_packaging_rejects_other_words(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--k-list", "4", "--N-range", "8:8", "--strict-packaging", "yes"])
        assert exc.value.code == 2

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--k-list", "4", "--N-range", "9:3")
        assert code == 2


class TestAsymptCommand:
    def test_columns_and_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "--scheme", "pack-pbt", "--figure", "fidelity",
            "--a", "1.0", "--alpha", "0.5", "--N-list", "100,400",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,k,value,limit_class,limit_value"
        n, k, value, kind, lim = lines[1].split(",")
        assert (n, k, kind) == ("100", "10", "critical")
        assert float(lim) == pytest.approx(2.718281828459045**-0.75, rel=1e-10)

    def test_json_carries_the_csv_limit(self, capsys):
        argv = ["asympt", "--scheme", "ompbt", "--figure", "psucc", "--a", "0.5",
                "--alpha", "1.0", "--N-list", "10,100", "--d", "3"]
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        csv_limits = [tuple(line.split(",")[3:]) for line in csv_out.strip().split("\n")[1:]]
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in json_out.strip().split("\n")]
        assert [(r["limit_class"], r["limit_value"]) for r in records] == csv_limits
        assert csv_limits == [("critical", "0.00390625")] * 2

    def test_invalid_combination_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "asympt", "--scheme", "ompbt", "--figure", "fidelity",
            "--a", "1.0", "--alpha", "0.5", "--N-list", "100",
        )
        assert code == 2

    def test_requires_n_input(self):
        # --N-list and --N-range form one required exclusive group of argparse
        with pytest.raises(SystemExit) as exc:
            main(["asympt", "--scheme", "pack-pbt", "--figure", "fidelity",
                  "--a", "1.0", "--alpha", "0.5"])
        assert exc.value.code == 2

    def test_empty_n_list_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "asympt", "--scheme", "mpbt", "--figure", "psucc",
            "--a", "1.0", "--alpha", "0.5", "--N-list", "",
        )
        assert code == 2 and "empty item" in err

    def test_underflow_names_a_command_that_runs(self, capsys):
        # asympt has no --arith, so the hint points to psucc's exact path
        code, out, err = run_cli(
            capsys, "asympt", "--scheme", "mpbt", "--figure", "psucc",
            "--a", "0.9", "--alpha", "1.0", "--N-list", "100000",
        )
        assert (code, out) == (2, "")
        hint = "psucc --scheme mpbt --N 100000 --k 90000 --arith exact"
        assert err == f"error: mpbt psucc at N=100000, k=90000 underflows a float; use {hint}\n"
        code, out, _ = run_cli(capsys, *hint.split())
        assert code == 0
        assert out.split("\n")[1].startswith("mpbt,100000,90000,2,psucc,")


class TestGaussCommand:
    def test_sandwich_rows(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "--a", "0.5", "--N-range", "100:400:300")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,lower,exact_or_largeN,upper,limit"
        for line in lines[1:]:
            _, lower, mid, upper, lim = line.split(",")
            assert float(lower) <= float(mid) <= float(upper)
        assert len({line.split(",")[4] for line in lines[1:]}) == 1

    def test_domain_exit(self, capsys):
        code, _, _ = run_cli(capsys, "gauss", "--a", "2.5", "--N-range", "100:200:100")
        assert code == 2

    def test_arith_paths_agree(self, capsys):
        _, exact, _ = run_cli(
            capsys, "gauss", "--a", "1.0", "--N-range", "100:100", "--arith", "exact"
        )
        _, logp, _ = run_cli(
            capsys, "gauss", "--a", "1.0", "--N-range", "100:100", "--arith", "log"
        )
        mid_exact = float(exact.strip().split("\n")[1].split(",")[2])
        mid_log = float(logp.strip().split("\n")[1].split(",")[2])
        assert mid_exact == pytest.approx(mid_log, rel=1e-10)


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-dim", "128")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check,N,k,d,status,seconds"
        assert all(",PASS," in line for line in lines[1:])
        assert "checks passed" in err

    def test_reader_closing_stdout_early_ends_without_a_traceback(self):
        # ``portcap verify | head -1``: unbuffered, each row is written as it
        # is printed, so the rows after the header meet a closed pipe
        proc = subprocess.Popen([sys.executable, "-m", "portcap", "verify", "--max-dim", "1024"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=cli_env(PYTHONUNBUFFERED="1"))
        assert proc.stdout.readline() == b"check,N,k,d,status,seconds\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() != 0
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_checks_keep_the_benchmark_counts(self, monkeypatch):
        # perfbench's traced certify-dense run counts verify's rows, each
        # rho^(-1/2) solve as rho's dim cubed, and the outcomes of every
        # srm_signal_traces call, against perfbench/golden.json
        golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                            .read_text())["counts"]["certify-dense"]
        solves, outcomes, layouts = [], [], []
        solve, traces = simulate._inverse_sqrt_on_support, simulate.srm_signal_traces
        layout = simulate._weight_blocks

        def counted_solve(rho, p):
            solves.append(rho.shape[0])
            return solve(rho, p)

        def counted_traces(p, rho=None):
            outcomes.append(p.num_signals)
            return traces(p, rho=rho)

        monkeypatch.setattr(simulate, "_inverse_sqrt_on_support", counted_solve)
        monkeypatch.setattr(simulate, "srm_signal_traces", counted_traces)
        # the weight layout is decided once per dense instance
        monkeypatch.setattr(simulate, "_weight_blocks", lambda p: layouts.append(p) or layout(p))
        results = [fn() for _, _, _, _, fn in cli._verify_checks(1024)]
        assert layouts == simulate.feasible_instances(1024) and len(layouts) == 25
        assert len(results) == golden["cli.rows"] == 108 and all(results)
        assert len(solves) == 43
        assert sum(dim**3 for dim in solves) == golden["simulate.eigh.dim3"]
        assert sum(outcomes) == golden["simulate.srm_signal_traces.outcomes"]

    def test_max_dim_guard(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--max-dim", "8192")
        assert code == 2

    def test_max_dim_below_the_smallest_instance_is_rejected(self, capsys):
        # below 8 no dense instance runs, so "all checks passed" would be vacuous
        for value in ("-5", "0", "7"):
            code, out, err = run_cli(capsys, "verify", "--max-dim", value)
            assert code == 2 and out == ""
            assert "(2, 1, 2)" in err
        code, out, _ = run_cli(capsys, "verify", "--max-dim", "8")
        assert code == 0 and "signal-sum-purity,2,1,2,PASS" in out

    def test_povm_check_fails_on_a_broken_factor(self, capsys, monkeypatch):
        # completeness is checked one weight block at a time, over blocks that
        # must partition the index space: a factor off by a relative 1e-6, an
        # entry moved to another row of its block, a dropped block and a
        # block whose indices are shifted by one must each fail it
        srm = simulate.rho_and_srm

        def outcome_block(blocks):
            return next(F for _, F, _ in blocks if F.shape[1])

        def scaled(blocks):
            outcome_block(blocks)[0] *= 1 + 1e-6

        def moved(blocks):
            column = outcome_block(blocks)[0, 0]
            r = np.flatnonzero(column)[0]
            column[(r + 1) % column.size], column[r] = column[r], 0.0

        def dropped(blocks):
            del blocks[-1]

        def shifted(blocks):
            b, F, K = blocks[0]
            blocks[0] = (b + 1, F, K)

        for corrupt in (scaled, moved, dropped, shifted):
            def broken(p, rho=None, corrupt=corrupt):
                rho, blocks = srm(p, rho=rho)
                corrupt(blocks)
                return rho, blocks

            monkeypatch.setattr(simulate, "rho_and_srm", broken)
            code, out, _ = run_cli(capsys, "verify", "--max-dim", "8")
            assert code == 1, corrupt.__name__
            assert "povm-complete-positive,2,1,2,FAIL" in out, corrupt.__name__
            assert out.count(",FAIL,") == 1, corrupt.__name__

    def test_povm_check_holds_at_the_instances_verify_skips(self):
        # verify runs the POVM check up to dimension 512 only, so that its
        # output at --max-dim 1024 stays fixed; the check holds above that,
        # where the outcomes of (7, 3, 2) span two chunks
        skipped = [p for p in simulate.feasible_instances(1024) if p.d**p.n > 512]
        assert {(p.N, p.k, p.d) for p in skipped} == {
            (3, 1, 5), (4, 2, 3), (5, 1, 3), (7, 3, 2), (8, 2, 2), (9, 1, 2), (4, 1, 4)
        }
        assert max(len(simulate._outcome_chunks(p)) for p in skipped) > 1
        for p in skipped:
            assert cli._povm_valid(p, simulate.signal_sum(p)), p

    def test_an_instance_is_freed_before_the_next_is_built(self):
        # each instance's rho and traces go once its last check has run, so
        # the memory held when the next instance starts is below the last
        # rho.  Below 64 KB a rho is the size of what the closed forms'
        # caches gain over the sweep, so smaller ones are not compared.
        checked, previous = 0, 0
        tracemalloc.start()
        try:
            for name, N, k, d, fn in cli._verify_checks(1024):
                if name == "signal-sum-purity":
                    held = tracemalloc.get_traced_memory()[0]
                    if previous >= 1 << 16:
                        assert held < previous, (N, k, d)
                        checked += 1
                    previous = 8 * d ** (2 * (N + k))
                assert fn(), (name, N, k, d)
        finally:
            tracemalloc.stop()
        assert checked >= 10

    def test_povm_check_peaks_below_the_dense_factors(self):
        # the factors stay in weight blocks: the whole check holds less than
        # the outcome factors would take as dense dim x d**(N-k) arrays
        p = ProtocolParams(7, 2, 2)
        factor_bytes = 8 * p.num_signals * p.d**p.n * p.d ** (p.N - p.k)
        for name, N, k, d, fn in cli._verify_checks(512):
            if (N, k, d) != (p.N, p.k, p.d):
                continue
            if name != "povm-complete-positive":
                assert fn(), name
                continue
            tracemalloc.start()
            try:
                assert fn()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            break
        assert peak < factor_bytes


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        args = ("compare", "--k-list", "4,6", "--N-range", "8:40:8")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_calls_in_one_process_share_the_parser_but_no_state(self, capsys):
        # the parser is built once per process; a call after another with
        # different argv prints what it prints alone, the omitted --d included
        first = ("fidelity", "--method", "exact", "--N", "6", "--k", "2", "--d", "3")
        second = ("fidelity", "--method", "exact", "--N", "5", "--k", "2")
        alone = []
        for argv in (first, second):
            cli.build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        parser = cli.build_parser()
        assert [run_cli(capsys, *argv) for argv in (first, second)] == alone
        assert cli.build_parser() is parser
        assert alone[0][1] != alone[1][1] and ",3,fidelity," in alone[0][1]
