#!/usr/bin/env python3
"""Benchmark launcher for fbmcf.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports fbmcf from ``src/`` (never from an
installed copy), pins the BLAS/OpenMP pools to one thread, and runs one
workload in this process as a closed loop with a single caller.

``--trace 0`` times set-up ``SETUP_REPS`` times and then repeats the
workload's cycle until ``--seconds`` have passed (at least ``MIN_CYCLES``
times); it reports the end-to-end metrics.  ``--trace 1`` runs one traced
pass (set-up plus one cycle) for the per-layer table, then alternates
untraced and traced cycles to measure the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from ``BENCHMARK.json``.  Details (failed checks, per-cycle times,
machine facts, spans) go to ``.bench_out/<workload>-<seed>/``.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
MIN_CYCLES = 3
MIN_TRACE_PAIRS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts():
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Tally:
    """ops attempted and failed, the worst oracle ratio, failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.worst_op = ""
        self.failures = []

    def add(self, ops):
        for op in ops:
            self.attempted += 1
            if op.ratio() > self.worst or not self.worst_op:
                self.worst, self.worst_op = op.ratio(), op.name
            if not op.ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": op.name, "checks": op.checks,
                                          "error": op.error})


def compare_facts(record_path, runs):
    """Facts must repeat exactly across cycles and across runs of the same
    workload and seed; returns the mismatches and updates the record."""
    mismatches = []
    merged = {}
    for facts in runs:
        for k, v in facts.items():
            if k in merged and merged[k] != v:
                mismatches.append({"fact": k, "first": merged[k], "now": v,
                                   "where": "between cycles"})
            merged.setdefault(k, v)
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text())
    for k, v in merged.items():
        if k in record and record[k] != v:
            mismatches.append({"fact": k, "first": record[k], "now": v,
                               "where": "between runs"})
        record.setdefault(k, v)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    return merged, mismatches


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def measure(w, tally, seconds):
    """Untraced cycles until ``seconds`` have passed; returns wall times."""
    walls, facts = [], []
    start = time.perf_counter()
    while len(walls) < MIN_CYCLES or time.perf_counter() - start < seconds:
        dt, (ops, f) = timed(w.cycle)
        walls.append(dt)
        tally.add(ops)
        facts.append(f)
    return walls, facts


def traced_pass(w, tally, tracer_mod):
    """Set-up plus one cycle under a fresh tracer; returns (tracer, wall, facts)."""
    tr = tracer_mod.Tracer()
    with tr:
        w.setup()
        wall, (ops, facts) = timed(w.cycle)
    tally.add(ops)
    return tr, wall, facts


def measure_traced(w, tally, seconds, tracer_mod):
    """One traced pass for the per-layer table, then alternating untraced and
    traced cycles until ``seconds`` have passed."""
    w.setup()
    tr, first, facts = traced_pass(w, tally, tracer_mod)
    layer, samples = tracer_mod.layer_metrics(tr)
    for k in ("flow.steps", "flow.vertex_steps", "flow.events.pop",
              "flow.events.vanish", "kernels.heat_op.samples",
              "density.evaluations", "scenario.artifact_bytes"):
        facts[f"traced.{k}"] = layer[k]

    untraced, traced, all_facts = [], [first], [facts]
    start = time.perf_counter()
    while (len(untraced) < MIN_TRACE_PAIRS
           or time.perf_counter() - start < seconds):
        dt, (ops, f) = timed(w.cycle)
        untraced.append(dt)
        tally.add(ops)
        all_facts.append(f)
        t2 = tracer_mod.Tracer()
        with t2:
            dt, (ops, f) = timed(w.cycle)
        traced.append(dt)
        tally.add(ops)
        all_facts.append(f)
    layer["trace.overhead_frac"] = (statistics.median(traced)
                                    / statistics.median(untraced) - 1.0)
    return layer, samples, tr, untraced, traced, all_facts


def emit(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fbmcf" / "__init__.py").is_file():
        print(f"bench: no fbmcf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fbmcf
    import tracer as tracer_mod
    import workloads
    import_s = time.perf_counter() - t0
    if Path(fbmcf.__file__).resolve().parent != SRC / "fbmcf":
        print(f"bench: imported fbmcf from {fbmcf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    facts_machine = machine_facts()
    workdir = OUT / f"{args.workload}-{args.seed}"
    w = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts_machine}

    if args.trace:
        layer, samples, tr, untraced, traced, runs = measure_traced(
            w, tally, args.seconds, tracer_mod)
        metrics = emit(spec["per_layer"], layer)
        report.update(untraced_walls=untraced, traced_walls=traced,
                      percentile_samples=samples, per_layer=layer,
                      trace=tr.dump())
    else:
        setups = [timed(w.setup)[0] for _ in range(SETUP_REPS)]
        walls, runs = measure(w, tally, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = emit(spec["end_to_end"], {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "oracle_ratio": tally.worst,
            "peak_rss_mb": peak_mb})
        report.update(import_s=import_s, setup_walls=setups, walls=walls)

    facts, mismatches = compare_facts(
        OUT / "facts" / f"{args.workload}-{args.seed}.json", runs)
    report.update(facts=facts, mismatches=mismatches, failures=tally.failures,
                  worst_op=tally.worst_op, metrics=metrics)
    workdir.mkdir(parents=True, exist_ok=True)
    name = "trace.json" if args.trace else "result.json"
    (workdir / name).write_text(json.dumps(report, sort_keys=True) + "\n")

    for f in tally.failures[:5]:
        print(f"bench: op {f['op']} failed: {f['checks']} {f['error']}",
              file=sys.stderr)
    for m in mismatches:
        print(f"bench: deterministic fact changed {m}", file=sys.stderr)
    print("machine: " + json.dumps(facts_machine, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0 and not mismatches,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
