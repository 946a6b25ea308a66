"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program's own telemetry at its default (on) and no benchmark wrappers.
``--trace 1`` is the separate per-layer run: it wraps the layers' public
entry points from this directory and prints the ``per_layer`` metrics, a
closure table (layer self times plus ``other`` = traced wall time) and the
tracing overhead.  Every line before the last is a human-readable report;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the workloads
and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    CounterLedger,
    Speedometer,
    code_fingerprint,
    fail_exit,
    machine_metadata,
    report_metric,
    say,
)

WORKLOADS = {
    "train_small": "train_loop",
    "train_wide": "train_loop",
    "service_mixed": "service_load",
    "spmd_search": "spmd_suite",
}
LEDGER = os.path.join(ROOT, ".perfbench_state", "counters.json")
#: Fresh processes whose set-up time gives ``setup_s`` (their median).
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _load_contract() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail_exit(f"cannot read {path}: {exc}")


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its workload being set up.

    That is what a user pays before the first operation: interpreter start,
    imports, lazy first-use imports and the workload's own set-up.  Each
    time is scaled to reference speed by probes this process runs just
    before and just after the child.  Probes in the child itself tracked the
    host's speed worse than none at all (train_wide, eight sets of five:
    spread of the medians 0.24 child-scaled, 0.19 raw, 0.09 parent-scaled).
    """
    times = []
    speed = Speedometer()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        speed.probe(5)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            fail_exit(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        speed.probe(5)
        times.append(wall * speed.scale(last=10))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail_exit("--seconds must be positive")

    contract = _load_contract()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail_exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        state = module.setup(args.workload, args.seed)
        print("ready", flush=True)
        module.close(state)
        return 0
    trace = bool(args.trace)
    meta = machine_metadata(ROOT, args.workload, args.seed, args.seconds, trace)
    say("meta " + json.dumps(meta, sort_keys=True))

    setup_s = [] if trace else _setup_seconds(args.workload, args.seed)
    result = module.run(args.workload, args.seed, args.seconds, trace,
                        module.setup(args.workload, args.seed))

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if attempted < 1:
        fail_exit("workload attempted no operation")
    metrics: dict[str, dict] = {}
    if trace:
        layers = result["layers"]
        unknown = set(layers) - {m["name"] for m in contract["per_layer"]}
        if unknown:
            fail_exit(f"workload produced undeclared per-layer metrics {sorted(unknown)}")
        say("per-layer (0 = layer not exercised by this workload):")
        for m in contract["per_layer"]:
            value = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            report_metric(m["name"], value, m["unit"])
        key = (f"{args.workload}/seed={args.seed}/seconds={args.seconds:g}"
               f"/commit={meta['git_commit']}/code={code_fingerprint(ROOT)}")
        diffs = CounterLedger(LEDGER).compare_and_store(key, result["counters"])
        say("exact counters " + json.dumps(result["counters"], sort_keys=True))
        for d in diffs:
            say(f"  CHECK FAILED NONDETERMINISM vs the previous traced run of the same code, "
                f"workload, seed and length: {d}")
        if diffs:
            result["checks_ok"] = False
    else:
        e2e = dict(result["e2e"])
        e2e["setup_s"] = statistics.median(setup_s)
        e2e["ok_rate"] = (attempted - failed) / attempted
        say("end-to-end:")
        for m in contract["end_to_end"]:
            if m["name"] not in e2e:
                fail_exit(f"workload did not produce {m['name']}")
            metrics[m["name"]] = {"value": float(e2e[m["name"]]), "unit": m["unit"]}
            n = {"setup_s": len(setup_s), "peak_rss_mb": e2e["_rss_ops"]}.get(
                m["name"], e2e["_n"] if m["name"].startswith("op_") else None)
            report_metric(m["name"], e2e[m["name"]], m["unit"], n)
        report_metric("op_ms_p99 (not gated)", e2e["_p99"], "ms", e2e["_n"])
    say(f"ops attempted {attempted}, failed {failed}")
    correct = bool(result["checks_ok"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
