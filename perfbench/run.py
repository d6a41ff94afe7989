"""Benchmark runner for cellposet.

    python3 perfbench/run.py --workload {invariants,reduce,recognize}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  A single client runs the workload's jobs
in a closed loop, one pass after another, in this one process, as long as
the next pass is likely to end within `--seconds`.  Every job's answer is
checked after its pass, outside the timed region.

The last line of stdout is the result, with the end-to-end metrics of
BENCHMARK.json (`--trace 0`) or its per-layer metrics (`--trace 1`, where
untraced and traced passes alternate).  The line before it is a detail
record: every pass time with their median, quartiles and tail percentile,
the set-up samples, and the input digest.  The exit code is 0 only when
every job of every pass was correct.

`pass_s` is the median pass time over the run, scaled to the speed of a
reference machine.  On a machine shared with other tenants the speed
switches between a fast and a slow one about 1.5x apart, for spells from a
fraction of a second to minutes, and the process's CPU time moves with its
wall time.  So a fixed reference computation
(`perfbench/reference.py`, which does not call the program) is timed right
before and after every job, and each job's time is scaled by it; the raw
pass times stay in the detail record.  `setup_s`, the median of set-up
probes spread over the run, is scaled the same way, by reference chunks
right before and after each probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cellposet  # noqa: E402
from perfbench import reference, stats  # noqa: E402
from perfbench.tracing import NullRecorder, Recorder  # noqa: E402
from perfbench.workloads import (WORKLOADS, check, inputs_digest,  # noqa: E402
                                 make_inputs, run_job)

if Path(cellposet.__file__).resolve().parent != ROOT / "src" / "cellposet":
    sys.exit(f"cellposet was imported from {cellposet.__file__}, not from "
             "this checkout's src/")

OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3          # before the first pass; one more before each pass

SPANS = ("graphs.load", "graphs.dump", "constructions.rp",
         "posets.from_graph", "posets.vectors", "homology.betti",
         "homology.h2", "homology.manifold", "reduction.schedule",
         "reduction.greedy", "checkers.manifold_h_reject",
         "checkers.manifold_h_accept", "checkers.vector", "cli.emit",
         "cli.write")
COUNTS = ("graphs.vertices", "graphs.edges", "posets.cells", "homology.rows",
          "homology.links", "reduction.schedule_steps",
          "reduction.greedy_steps", "reduction.final_vertices",
          "checkers.decisions")
# per-step times: (metric, span, count it is divided by)
PER_UNIT = (("homology.link_s", "homology.manifold", "homology.links"),
            ("reduction.schedule_step_s", "reduction.schedule",
             "reduction.schedule_steps"),
            ("reduction.greedy_step_s", "reduction.greedy",
             "reduction.greedy_steps"))


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> {"unit", "better", "kind"} for every metric BENCHMARK.json
    declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            out[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              "kind": kind}
    return out


def with_units(values: dict[str, float], kind: str) -> dict:
    """Attach BENCHMARK.json units; the computed and the declared names of
    `kind` must be the same set."""
    declared = {k: v for k, v in declared_metrics().items()
                if v["kind"] == kind}
    if set(values) != set(declared):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: computed only "
            f"{sorted(set(values) - set(declared))}, declared only "
            f"{sorted(set(declared) - set(values))}")
    return {k: {"value": values[k], "unit": declared[k]["unit"]}
            for k in sorted(values)}


def run_pass(jobs, inputs, rec) -> tuple[float, float, list]:
    """Run every job once, with a reference chunk before the first job and
    after each one.  Returns the pass time scaled to the reference machine,
    the raw pass time, and each job's Outcome or the exception it raised."""
    results = []
    scaled = raw = 0.0
    before = reference.chunk()
    for i, (job, data) in enumerate(zip(jobs, inputs)):
        start = time.perf_counter()
        try:
            results.append(run_job(job, data, rec, OUT_DIR / f"job{i}"))
        except Exception as exc:  # a failed job is counted, not fatal
            traceback.print_exc()
            results.append(exc)
        elapsed = time.perf_counter() - start
        after = reference.chunk()
        raw += elapsed
        scaled += reference.normalized(elapsed, before, after)
        before = after
    return scaled, raw, results


def failures(jobs, inputs, results, first) -> int:
    """Jobs whose answer raised, fails its check, or differs from the
    first pass."""
    failed = 0
    for i, (job, data, res) in enumerate(zip(jobs, inputs, results)):
        if isinstance(res, Exception):
            failed += 1
            continue
        problems = check(job, data, res)
        ref = first[i] if first else res
        if isinstance(ref, Exception) or (res.text, res.files) != (
                ref.text, ref.files):
            problems.append(f"{job.name}: output differs between passes")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until its inputs are
    ready: interpreter start, import cellposet and input generation.
    Returns the time scaled to the reference machine, by reference chunks
    right before and after it, and the raw time."""
    before = reference.chunk()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    raw = float(proc.stdout.split()[-1]) - start
    return reference.normalized(raw, before, reference.chunk()), raw


def end_to_end_metrics(untraced, setup, greedy) -> dict[str, float]:
    """`untraced` and `setup` hold times scaled to the reference machine."""
    return {
        "pass_s": statistics.median(untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
        "vertex_excess_ratio": stats.vertex_excess_ratio(greedy),
    }


def layer_metrics(recorders, untraced, traced, traced_raw
                  ) -> dict[str, float]:
    """`untraced` and `traced` hold scaled pass times, `traced_raw` the raw
    ones the spans are measured against."""
    per_pass = [r.self_times() for r in recorders]
    values = {f"{s}_s": statistics.median(p.get(s, 0.0) for p in per_pass)
              for s in SPANS}
    counts = recorders[0].counts
    values.update({c: counts[c] for c in COUNTS})
    for metric, span, base in PER_UNIT:
        values[metric] = values[f"{span}_s"] / counts[base] if counts[base] \
            else 0.0
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced))
    values["trace.coverage_ratio"] = statistics.median(
        r.covered() / t for r, t in zip(recorders, traced_raw))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)  # set-up timing child
    args = ap.parse_args(argv)
    jobs = WORKLOADS[args.workload]
    inputs = make_inputs(jobs, args.seed)
    for i in range(len(jobs)):
        (OUT_DIR / f"job{i}").mkdir(parents=True, exist_ok=True)
    if args.probe:
        print(time.monotonic())
        return 0

    # Scaled and raw times of the set-up probes and of the untraced and the
    # traced passes.  Set-up probes are spread over the run, so that one
    # burst of load from other tenants of the machine does not decide
    # setup_s.
    setup, untraced, traced = [], [], []
    setup_raw, untraced_raw, traced_raw = [], [], []

    def probe_setup():
        scaled, raw = measure_setup(args.workload, args.seed)
        setup.append(scaled)
        setup_raw.append(raw)

    for _ in range(SETUP_PROBES):
        probe_setup()
    recorders = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        tracing = args.trace == 1 and len(untraced) > len(traced)
        rec = Recorder() if tracing else NullRecorder()
        if not tracing:
            probe_setup()
        gc.collect()
        scaled, raw, results = run_pass(jobs, inputs, rec)
        (traced if tracing else untraced).append(scaled)
        (traced_raw if tracing else untraced_raw).append(raw)
        if tracing:
            recorders.append(rec)
        attempted += len(jobs)
        failed += failures(jobs, inputs, results, first)
        first = first or results
        # stop before a pass (a traced and untraced pair when tracing)
        # that would likely end after --seconds
        need = (time.perf_counter() - lap) * (2 if args.trace else 1)
        if (args.trace == 0 or len(traced) == len(untraced)) and (
                time.perf_counter() - start + need > args.seconds):
            break

    greedy = [(job.params, len(res.answer["final"].vertices))
              for job, res in zip(jobs, first)
              if job.kind == "greedy" and not isinstance(res, Exception)]
    if args.trace:
        metrics = with_units(layer_metrics(recorders, untraced, traced,
                                           traced_raw), "per_layer")
    else:
        metrics = with_units(end_to_end_metrics(untraced, setup, greedy),
                             "end_to_end")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": [job.name for job in jobs],
        "inputs_sha256": inputs_digest(inputs),
        "pass_s": stats.summary(untraced),
        "raw_pass_s": stats.summary(untraced_raw),
        "pass_samples_s": untraced, "raw_pass_samples_s": untraced_raw,
        "traced_pass_samples_s": traced, "setup_s": setup,
        "raw_setup_s": setup_raw,
        "greedy_final_vertices": [[list(p), v] for p, v in greedy],
        "fail_ratio": failed / attempted,
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
