"""Child process of run.py: a fresh interpreter that runs one workload role.

Roles:
  probe  import stefanflux, build the first pass's inputs, report set-up time
  count  run the seed's first pass traced and report its counts
  run    the measured run: untraced end-to-end metrics, or with --trace 1 the
         per-layer metrics

The last line of standard output is one JSON object for run.py.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# numpy and stefanflux are imported only after main() has timed the import.

# Probes and CLI runs per measured run, each spread over the whole window.
SUBPROCESS_SAMPLES = 10
CLI_IO_RUNS = 3
MIN_PASSES = 3


def emit(payload):
    print(json.dumps(payload), flush=True)


class Pass:
    __slots__ = ("wall", "op_times", "outcomes", "records", "spans")

    def __init__(self, wall, op_times, outcomes, records, spans=None):
        self.wall = wall
        self.op_times = op_times
        self.outcomes = outcomes
        self.records = records
        self.spans = spans


def run_pass(workload, seed, index, jobs, tracer=None):
    inputs = workload.pass_inputs(seed, index)
    start = time.perf_counter()
    records, outcomes, op_times = workload.run_pass(inputs, jobs)
    wall = time.perf_counter() - start
    return Pass(wall, op_times, outcomes, records, tracer.take() if tracer else None)


def timeline(seconds, step, extras):
    """Call step() in a closed loop for `seconds`, running each of `extras` once.

    The extras (subprocess samples) are spread evenly over the window, so every
    metric samples the same stretch of machine time.
    """
    start = time.perf_counter()
    done = steps = 0
    while True:
        elapsed = time.perf_counter() - start
        if done < len(extras) and elapsed >= done * seconds / len(extras):
            extras[done]()
            done += 1
        elif elapsed < seconds or steps < MIN_PASSES:
            step()
            steps += 1
        else:
            return


def spawn(role, args, timeout):
    """Run this file in a fresh interpreter; return the JSON of its last line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", str(args.root)]
    env = dict(os.environ, PYTHONPATH=str(args.root / "src"))
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=args.root,
                          env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({role}) exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Counts attempted operations and collects correctness violations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.outcomes = 0
        self.ok = 0
        self.delta_p_logs = []
        self.violations = []

    def add(self, p, reference=None):
        from workloads import record_key
        self.attempted += len(p.outcomes)
        self.outcomes += len(p.outcomes)
        for outcome in p.outcomes:
            if outcome.kind == "violation":
                self.failed += 1
                self.violations.append(outcome.detail)
            elif outcome.kind == "ok":
                self.ok += 1
                self.delta_p_logs.append(math.log(outcome.delta_p))
        if p.records is not None:
            self.violations += self.workload.check_pass(p.records)
            if reference is not None and ([record_key(r) for r in p.records]
                                          != [record_key(r) for r in reference]):
                self.violations.append("sweep records differ from the serial reference pass")

    def ok_frac(self):
        return self.ok / self.outcomes

    def delta_p_geomean(self):
        return math.exp(sum(self.delta_p_logs) / len(self.delta_p_logs))


class CliRuns:
    """Subprocess runs of the workload's CLI command, timed and checked."""

    def __init__(self, workload, root, out_base, checker, reference_records):
        self.workload = workload
        self.root = root
        self.out_base = out_base
        self.checker = checker
        self.reference_records = reference_records
        self.times = []
        self.artifacts = None

    def __call__(self):
        out_dir = self.out_base / f"cli-{os.getpid()}-{len(self.times)}"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "stefanflux", *self.workload.cli_argv,
                               "--out", str(out_dir)], cwd=self.root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.times.append(time.perf_counter() - start)
        self.checker.attempted += 1
        if proc.returncode != 0:
            self.checker.failed += 1
            self.checker.violations.append(
                f"CLI exit {proc.returncode}: {proc.stderr.strip()}")
        else:
            self.checker.violations += self.workload.check_cli(out_dir,
                                                               self.reference_records)
            artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            if self.artifacts is None:
                self.artifacts = artifacts
            elif artifacts != self.artifacts:
                self.checker.violations.append("CLI artifacts differ between identical runs")
        shutil.rmtree(out_dir, ignore_errors=True)


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


class Probes:
    """Fresh interpreters that import the package and stop at the first timed call."""

    def __init__(self, args):
        self.args = args
        self.results = []

    def __call__(self):
        self.results.append(spawn("probe", self.args, 60))


def end_to_end(args, workload, out_base):
    from reference import Speed
    checker = Checker(workload)
    # Warm-up pass, untimed: lazy imports and first-call costs settle here.  On
    # the pooled sweep it runs serially and is the reference every pass must equal.
    warm = run_pass(workload, args.seed, 0, 1)
    checker.add(warm)
    reference = warm.records if workload.jobs > 1 else None
    probes = Probes(args)
    cli = CliRuns(workload, args.root, out_base, checker, warm.records)
    # Every wall time is scaled to the reference speed measured around it.
    speed = Speed()
    passes, pass_scale, probe_scale, cli_scale = [], [], [], []

    def step():
        p = run_pass(workload, args.seed, len(passes) + 1, workload.jobs)
        pass_scale.append(speed.factor())
        checker.add(p, reference)
        passes.append(p)

    def probe():
        probes()
        probe_scale.append(speed.factor())

    def cli_run():
        cli()
        cli_scale.append(speed.factor())

    timeline(args.seconds, step, [probe, cli_run] * SUBPROCESS_SAMPLES)
    op_ms = [1e3 * f * t for p, f in zip(passes, pass_scale) for t in p.op_times]
    metrics = {
        "setup_s": median([f * r["setup_s"] for r, f in zip(probes.results, probe_scale)]),
        "cells_per_s": sum(len(p.outcomes) for p in passes)
                       / sum(f * p.wall for p, f in zip(passes, pass_scale)),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "cli_s": median([f * t for t, f in zip(cli.times, cli_scale)]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": checker.ok_frac(),
        "delta_p_geomean": checker.delta_p_geomean(),
    }
    # Raw wall times, for anyone who wants them unscaled.
    samples = {"op_s": [t for p in passes for t in p.op_times],
               "pass_s": [p.wall for p in passes], "cli_s": cli.times,
               "probes": probes.results, "reference_s": speed.samples}
    return metrics, checker, samples


COUNT_KEYS = ("basis.calls", "assembly.calls", "assembly.unique_frac", "solver.calls",
              "solver.singular", "noise.samples")


def count_pass(args, workload, tracer):
    """The seed's first pass, traced serially in a fresh process; exact counts."""
    from tracing import layer_metrics
    checker = Checker(workload)
    tracer.install()
    try:
        p = run_pass(workload, args.seed, 0, 1, tracer)
    finally:
        tracer.uninstall()
    checker.add(p)
    layers = layer_metrics(p.spans, p.wall)
    counts = {key: layers[key] for key in COUNT_KEYS}
    counts["experiments.failed_frac"] = 1.0 - checker.ok_frac()
    counts["metrics.delta_p_geomean"] = checker.delta_p_geomean()
    return counts, checker, p


def cli_io_ms(workload, tracer, out_base, speed):
    """In-process cli.main wall minus the library call it wraps, traced and scaled."""
    import stefanflux.cli
    from tracing import RUNS
    samples = []
    tracer.install()
    try:
        speed.restart()
        for k in range(CLI_IO_RUNS):
            out_dir = out_base / f"cli-io-{os.getpid()}-{k}"
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = stefanflux.cli.main([*workload.cli_argv, "--out", str(out_dir)])
            wall = time.perf_counter() - start
            scale = speed.factor()
            spans = tracer.take()
            shutil.rmtree(out_dir, ignore_errors=True)
            if code != 0:
                raise RuntimeError(f"in-process CLI exit {code}")
            library = sum(s[2] - s[1] for s in spans if s[0] in RUNS
                          and (s[3] < 0 or spans[s[3]][0] not in RUNS))
            samples.append(1e3 * scale * (wall - library))
    finally:
        tracer.uninstall()
    return median(samples)


def per_layer(args, workload, out_base):
    from reference import Speed
    from tracing import Tracer, layer_metrics, write_spans
    tracer = Tracer()
    counts, checker, first = count_pass(args, workload, tracer)
    write_spans(out_base / f"spans-{args.workload}-seed{args.seed}.tsv", first.spans)
    reference = first.records
    serial, pooled, traced, layers, import_s = [], [], [], [], []
    probes = Probes(args)
    speed = Speed()

    def step():
        # One untraced serial pass, one pooled pass on the sweeps, and one traced
        # serial pass, so drift in machine speed hits all three alike.  Tracing is
        # serial because spans in pool workers are invisible from here.
        index = 1 + 3 * len(serial)
        serial.append(run_pass(workload, args.seed, index, 1))
        if reference is not None:
            pooled.append(run_pass(workload, args.seed, index + 1, 2))
        tracer.install()
        try:
            speed.restart()
            p = run_pass(workload, args.seed, index + 2, 1, tracer)
        finally:
            tracer.uninstall()
        scale = speed.factor()
        traced.append(p)
        layers.append({key: scale * value if key.endswith("_ms") else value
                       for key, value in layer_metrics(p.spans, p.wall).items()})

    def probe():
        probes()
        import_s.append(speed.factor() * probes.results[-1]["import_s"])

    timeline(args.seconds, step, [probe] * SUBPROCESS_SAMPLES)
    for p in serial + traced:
        checker.add(p)
    for p in pooled:
        checker.add(p, reference)
    metrics = {key: median([layer[key] for layer in layers]) for key in layers[0]
               if key not in counts}
    metrics.update(counts)
    serial_wall = median([p.wall for p in serial])
    # single runs no pool, so its serial and pooled paths are the same path.
    metrics["experiments.pool_speedup"] = (
        serial_wall / median([p.wall for p in pooled]) if pooled else 1.0)
    metrics["trace.overhead_frac"] = median([p.wall for p in traced]) / serial_wall - 1.0
    metrics["cli.import_s"] = median(import_s)
    metrics["cli.io_ms"] = cli_io_ms(workload, tracer, out_base, speed)
    return metrics, checker, counts


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--role", choices=("probe", "count", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    import stefanflux.cli
    import_s = time.perf_counter() - start
    src = (args.root / "src").resolve()
    if src not in Path(stefanflux.cli.__file__).resolve().parents:
        raise SystemExit(f"stefanflux was imported from {stefanflux.cli.__file__}, not {src}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workload.pass_inputs(args.seed, 0)
    setup_s = time.monotonic() - args.spawned_at
    if args.role == "probe":
        emit({"setup_s": setup_s, "import_s": import_s})
        return 0

    out_base = args.root / "perfbench" / "out"
    out_base.mkdir(parents=True, exist_ok=True)
    if args.role == "count":
        from tracing import Tracer
        counts, checker, _ = count_pass(args, workload, Tracer())
        extra = {"counts": counts}
    elif args.trace:
        metrics, checker, counts = per_layer(args, workload, out_base)
        extra = {"metrics": metrics, "counts": counts}
    else:
        metrics, checker, samples = end_to_end(args, workload, out_base)
        extra = {"metrics": metrics, "samples": samples}
    emit({"attempted": checker.attempted, "failed": checker.failed,
          "violations": checker.violations, "env": environment(), **extra})
    return 0


if __name__ == "__main__":
    sys.exit(main())
