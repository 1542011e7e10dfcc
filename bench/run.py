#!/usr/bin/env python3
"""schur-ed benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Load is a closed loop: one client, one process, jobs one
after another, no threads.  A pass is the workload's fixed job set; passes
repeat while the next one fits in --seconds.  wall_s / cpu_s are the time
of one pass counted job by job, each job at its median repetition, and all
three times are scaled to the reference pace (see README.md, Noise).  With
--trace 1 the run makes one untraced and one traced pass over the same
inputs and prints the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A human-readable summary goes to stderr and the full
record, with the environment, is appended to bench/results/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results", "results.jsonl")
# set-up probes: half before the first pass, half after the last, so the
# median samples the machine at both ends of the run
SETUP_PROBES = 8
# jobs.loop_time() on the baseline machine in a quiet spell.  Times are
# scaled by this over the run's pace, so they read as seconds on that
# machine when it is quiet.
REFERENCE_PACE_S = 0.0065
# no job starts later than this into a run, so a run ends within 180 s
# even when the program regresses badly
RUN_GUARD_S = 120.0

PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import schur_ed, schur_ed.cli; print('ready', flush=True)")


class HarnessError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def setup_time() -> float:
    """Seconds from starting a fresh interpreter until schur_ed is imported
    and ready: what every `schur-ed` invocation pays before its work."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, SRC],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if line.strip() != b"ready" or rc != 0:
        raise HarnessError(f"cannot import schur_ed from {SRC}")
    return elapsed


def import_program():
    sys.path.insert(0, SRC)
    try:
        import schur_ed
    except ImportError as err:
        raise HarnessError(f"cannot import schur_ed from {SRC}: {err}")
    if not os.path.abspath(schur_ed.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"schur_ed imported from {schur_ed.__file__}, "
                           f"not from {SRC}")


def median_pass(passes, attr: str) -> float:
    """One pass's time, summed job by job over each job's median
    repetition."""
    reps = defaultdict(list)
    for p in passes:
        for r in p.jobs:
            reps[r.name].append(getattr(r, attr))
    return sum(statistics.median(t) for t in reps.values())


def measured_times(passes, setups, pace_s: float) -> dict:
    """The times as measured, and the run's pace (jobs.Pace)."""
    return {"wall_s": median_pass(passes, "wall_s"),
            "cpu_s": median_pass(passes, "cpu_s"),
            "setup_s": statistics.median(setups),
            "pace_s": pace_s}


def end_to_end_metrics(measured: dict) -> dict:
    scale = REFERENCE_PACE_S / measured["pace_s"]
    return {
        "wall_s": measured["wall_s"] * scale,
        "cpu_s": measured["cpu_s"] * scale,
        "setup_s": measured["setup_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(recorder, untraced, traced) -> dict:
    self_sum = recorder.self_sum()
    if self_sum > traced.wall_s:
        raise HarnessError(f"layer self times sum to {self_sum} s, more "
                           f"than the traced pass's {traced.wall_s} s")
    metrics = recorder.metrics()
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.self_sum_s"] = self_sum
    return metrics


def with_units(values: dict, declared: list) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise HarnessError(f"metrics {sorted(set(values) ^ set(names))} are "
                           f"printed but not declared, or declared but not "
                           f"printed")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def environment(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_implementation() + " "
                  + platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import jobs
    import tracer
    import workloads

    spec = load_spec()
    start = time.perf_counter()
    stop_at = start + RUN_GUARD_S
    quiet = jobs.QuietCpu()
    quiet()  # the set-up probes inherit the CPU
    setups = [setup_time() for _ in range(SETUP_PROBES // 2)]
    job_set = workloads.build(workload, seed)
    cold = jobs.ColdStart()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    if trace:
        tracer.assert_clean()
        # no pace sampling: its handler would run inside the traced spans
        untraced = jobs.run_pass(job_set, cold, stop_at, quiet)
        recorder = tracer.Recorder()
        recorder.install()
        try:
            traced = jobs.run_pass(job_set, cold, stop_at, quiet)
        finally:
            recorder.uninstall()
        tracer.assert_clean()
        passes = [untraced, traced]
        metrics = with_units(per_layer_metrics(recorder, untraced, traced),
                             spec["per_layer"])
    else:
        pace = jobs.Pace()
        passes = []
        measured = 0.0
        while not passes or (measured + passes[-1].wall_s <= seconds
                             and time.perf_counter() < stop_at):
            tracer.assert_clean()
            passes.append(jobs.run_pass(job_set, cold, stop_at, quiet, pace))
            measured += passes[-1].wall_s
        quiet()
        setups += [setup_time() for _ in range(SETUP_PROBES - len(setups))]
        record["measured"] = measured_times(passes, setups, pace.mean())
        record["paces"] = pace.samples
        metrics = with_units(end_to_end_metrics(record["measured"]),
                             spec["end_to_end"])
    record["setup_s"] = setups
    record["passes"] = [
        {"wall_s": p.wall_s, "cpu_s": p.cpu_s,
         "jobs": [[r.name, r.status, r.wall_s, r.cpu_s, r.detail]
                  for r in p.jobs]}
        for p in passes]
    record["result"] = dict(tally(passes), metrics=metrics)
    record["fail_frac"] = (record["result"]["failed"]
                           / record["result"]["attempted"])
    record["env"] = environment(seed)
    return record


def tally(passes) -> dict:
    """fail_frac is failed / attempted; failed means wrong output, a
    non-zero exit or a missed deadline, and only the first two make the run
    incorrect."""
    results = [r for p in passes for r in p.jobs]
    return {"correct": not any(r.incorrect for r in results),
            "attempted": len(results),
            "failed": sum(r.failed for r in results)}


def report(record: dict) -> None:
    res = record["result"]
    out = sys.stderr
    print(f"schur-ed bench: workload={record['workload']} "
          f"seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])}", file=out)
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=out)
    print(f"  {'fail_frac':34s} {record['fail_frac']:.6g} 1 "
          f"({res['failed']} of {res['attempted']} jobs)", file=out)
    if "measured" in record:
        print("  as measured: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in record["measured"].items()),
            file=out)
    if record["trace"]:
        print(f"  tracing overhead: "
              f"{res['metrics']['trace.overhead_s']['value']:.3f} s "
              f"(traced minus untraced wall_s)", file=out)
    for p in record["passes"]:
        for name, status, _, _, detail in p["jobs"]:
            if status != "ok":
                print(f"  FAILED {name}: {status} {detail}", file=out)
    print(f"  env: {json.dumps(record['env'])}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise HarnessError(f"unknown workload {args.workload!r}; choose "
                               f"from {sorted(workloads.WORKLOADS)}")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError) as err:
        print(f"bench error: {err}", file=sys.stderr)
        return 2
    report(record)
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
