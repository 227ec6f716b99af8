"""Writes golden.json: each default-seed invocation's stdout digest (verify's
timing column masked) and each workload's computed counts.

Run from the repository root, only when an output change is intended:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import tracing
import worker
import workloads


def main() -> int:
    worker.import_portcap()
    tracer = tracing.Tracer()
    checker = workloads.Checker({})
    golden: dict = {"digests": {}, "counts": {}}
    for name in workloads.NAMES:
        invs = workloads.invocations(name, workloads.DEFAULT_SEED)
        tracer.install()
        _, outputs = worker.run_rep(tracer.main, invs)
        tracer.uninstall()
        layers = tracing.summarize(tracer.spans)
        layers["cli.rows"] = 0
        for argv, (code, stdout) in zip(invs, outputs):
            rows, failed, messages = checker.check(argv, code, stdout)
            if failed:
                print(f"warning: {' '.join(argv)}: {failed} of {rows} rows fail their "
                      f"invariant: {messages}", file=sys.stderr)
            layers["cli.rows"] += rows
            golden["digests"][" ".join(argv)] = workloads.digest(argv, stdout)
        golden["counts"][name] = {key: layers[key] for key in worker.COUNT_KEYS}
    (worker.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
