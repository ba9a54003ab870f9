"""Compare two sets of benchmark results, refusing ones from different machines.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result-*.json files that run.py wrote to perfbench/out/.
For every workload and metric this prints the base and new medians over their
runs and the change against the bound in BENCHMARK.json.  Results whose
environments (cores, CPU, Python, numpy, scipy, BLAS and its thread settings)
differ are flagged and not compared: exit status 2.  A metric worse than its
bound gives exit status 1.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    runs = defaultdict(list)
    envs = set()
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text())
        envs.add(json.dumps(record["env"], sort_keys=True))
        runs[(record["workload"], record["trace"])].append(record["metrics"])
    return runs, envs


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_envs), (new, new_envs) = load(argv[0]), load(argv[1])
    if len(base_envs | new_envs) != 1:
        print("environments differ; results not compared:", file=sys.stderr)
        for env in sorted(base_envs | new_envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs")
        for name in base[key][0]:
            b = statistics.median(run[name]["value"] for run in base[key])
            n = statistics.median(run[name]["value"] for run in new[key])
            change = (n - b) / b if b else float("nan")
            line = f"  {name:28s} {b:14.6g} -> {n:14.6g}  {change:+8.2%}"
            spec = bounds.get(name)
            if spec is not None:
                regress = -change if spec["better"] == "higher" else change
                if regress > spec["bound"]:
                    worse = True
                    line += f"  worse than bound {spec['bound']:.0%}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
