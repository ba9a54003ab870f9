"""stefanflux benchmark: one workload, end-to-end or per-layer metrics, checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_clean --seed 1 --seconds 30 --trace 0

Workloads are defined in perfbench/workloads.py, each with why it was chosen.
The package is imported from the checkout's src/ directory; without it the
benchmark exits with status 2 and prints no result.

--trace 0 measures the end-to-end metrics untraced.  --trace 1 wraps the
package's functions from outside (perfbench/tracing.py), reports per-layer
metrics, and checks that a second fresh process tracing the seed's first pass
gets the same counts.  Set-up time is the median over fresh interpreters of
the time from spawn to the first timed call; the CLI runs and those
interpreters are spread over the measured window, between passes.

Every reported time is scaled to a reference machine speed measured around
it by a frozen kernel (perfbench/reference.py), because shared cores change
speed with their neighbours' load (up to twofold on a 2-core Xeon VM).  The
raw wall times are kept in the result file.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The environment (cores, versions, BLAS
threads) is printed on the line before it and saved with the result under
perfbench/out/; perfbench/compare.py refuses to compare results whose
environments differ.  Any correctness violation makes the exit status 1.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from worker import spawn

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def machine():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    args.root = ROOT
    if not (ROOT / "src" / "stefanflux" / "__init__.py").is_file():
        print(f"no stefanflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    # The first interpreter may compile bytecode, so it measures nothing.
    spawn("probe", args, 60)
    result = spawn("run", args, deadline - time.monotonic())
    violations = result["violations"]
    if args.trace:
        again = spawn("count", args, deadline - time.monotonic())["counts"]
        if again != result["counts"]:
            violations.append(f"traced counts differ between two runs: "
                              f"{result['counts']} != {again}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(units) != set(metrics):
        raise SystemExit(f"metrics do not match BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")

    env = dict(machine(), **result["env"])
    summary = {"correct": not violations,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {name: {"value": metrics[name], "unit": units[name]}
                           for name in units}}
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, violations=violations,
                  samples=result.get("samples", {}))
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for message in violations:
        print(f"violation: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
