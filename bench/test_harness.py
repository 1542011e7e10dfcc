"""Self-tests for the benchmark harness.

    python3 -m pytest -q bench/test_harness.py
"""

import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COLD = jobs.ColdStart()


def _cover_job():
    """cover verify -n 4 --variant plus: fast, fixed inputs, digest kept."""
    job = workloads.build("presentations", 0)[0]
    assert job.name == "cover-verify-4-plus" and job.digest
    return job


def _edited(call, edit):
    def wrapped():
        rc, out = call()
        return rc, edit(out)
    return wrapped


def test_clean_output_passes():
    assert jobs.run_job(_cover_job(), COLD).status == "ok"


@pytest.mark.parametrize("edit", [
    lambda out: out + " ",  # still valid JSON: only the digest catches it
    lambda out: out.replace('"ok": true', '"ok": false'),
    lambda out: out.replace('"order": 48', '"order": 24'),
])
def test_corrupted_stdout_is_a_failure(edit):
    job = _cover_job()
    job.call = _edited(job.call, edit)
    res = jobs.run_job(job, COLD)
    assert res.status == "wrong" and res.failed and res.incorrect


def test_failed_trace_trial_is_a_failure():
    job = workloads.build("trace-forms", 0)[0]
    assert jobs.run_job(job, COLD).status == "ok"
    job.call = _edited(job.call, lambda out: out.replace(
        '"contains_s_ones": 100', '"contains_s_ones": 99'))
    assert jobs.run_job(job, COLD).status == "wrong"


def test_every_job_starts_cold():
    from schur_ed import covers, numth, qforms
    covers.get_cover(covers.CoverSpec(4, "plus"))
    qforms.witt_index(qforms.QuadFormQ([1, 2, 3, 6]))
    assert covers._covers and qforms._factor_cache and numth._SMALL_PRIMES
    COLD()
    assert not covers._covers and not qforms._factor_cache
    assert numth._SMALL_PRIMES == []


def test_missed_deadline_counts_in_fail_frac():
    def spin():
        end = time.process_time() + 10
        while time.process_time() < end:
            pass
        return 0, ""

    slow = jobs.Job("spin", spin, lambda out: None, deadline_s=0.05)
    p = jobs.run_pass([slow, _cover_job()], COLD)
    assert [r.status for r in p.jobs] == ["deadline", "ok"]
    assert p.jobs[0].cpu_s < 1.0
    # a missed deadline fails the job without calling the output wrong
    assert run.tally([p]) == {"correct": True, "attempted": 2, "failed": 1}


def test_times_are_median_jobs_at_the_reference_pace():
    def result(name, wall):
        return jobs.JobResult(name, "ok", wall, wall / 2)

    passes = [jobs.PassResult(5.0, 2.5, [result("a", 1.0), result("b", 4.0)]),
              jobs.PassResult(5.0, 2.5, [result("a", 2.0), result("b", 3.0)]),
              jobs.PassResult(5.0, 2.5, [result("a", 1.5), result("b", 9.0)])]
    measured = run.measured_times(passes, [0.3, 0.1, 0.2], 0.02)
    assert measured == {"wall_s": 5.5, "cpu_s": 2.75, "setup_s": 0.2,
                        "pace_s": 0.02}
    # twice the reference pace: the machine ran at half speed
    measured["pace_s"] = 2 * run.REFERENCE_PACE_S
    values = run.end_to_end_metrics(measured)
    assert (values["wall_s"], values["cpu_s"], values["setup_s"]) == \
        (2.75, 1.375, 0.1)


def test_quiet_cpu_pins_to_one_allowed_cpu():
    quiet = jobs.QuietCpu()
    if len(quiet.cpus) < 2:
        pytest.skip("needs two CPUs")
    try:
        quiet()
        assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) <= set(quiet.cpus)
    finally:
        os.sched_setaffinity(0, quiet.cpus)


def test_pace_samples_only_job_time_and_leaves_it_out():
    def spin():
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return 0, ""

    pace = jobs.Pace(interval=0.05)
    job = jobs.Job("spin", spin, lambda out: None, deadline_s=5)
    res = jobs.run_job(job, COLD, pace)
    assert res.status == "ok" and len(pace.samples) >= 5
    # the job spins until 0.6 s have passed, sampling included
    assert res.wall_s == pytest.approx(0.6 - pace.spent, abs=0.02)
    n = len(pace.samples)
    time.sleep(0.2)  # between jobs the timer is paused
    assert len(pace.samples) == n


def test_no_wrapper_survives_into_a_timed_run():
    from schur_ed import cli, covers
    originals = (cli.main, covers.Cover.__dict__["mul"],
                 covers.FiniteGroupTable.__dict__["generate"])
    rec = tracer.Recorder()
    rec.install()
    try:
        assert hasattr(cli.main, tracer.MARK)
        with pytest.raises(RuntimeError):
            tracer.assert_clean()
        # a timed run refuses to start while a wrapper is installed
        with pytest.raises(RuntimeError):
            run.run("table-sweep", 0, 1.0, trace=False)
        assert jobs.run_job(_cover_job(), COLD).status == "ok"
    finally:
        rec.uninstall()
    tracer.assert_clean()
    assert (cli.main, covers.Cover.__dict__["mul"],
            covers.FiniteGroupTable.__dict__["generate"]) == originals
    values = rec.metrics()
    assert values["covers.cocycle_calls"] > 0
    assert values["covers.closure_elems"] == 48
    assert rec.self_sum() > 0


def test_metric_names_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    p = jobs.PassResult(1.0, 1.0, [])
    measured = run.measured_times([p], [0.1], 0.01)
    for values, declared in (
            (run.end_to_end_metrics(measured), spec["end_to_end"]),
            (run.per_layer_metrics(tracer.Recorder(), p, p),
             spec["per_layer"])):
        printed = run.with_units(values, declared)
        assert list(printed) == [m["name"] for m in declared]
        assert all(printed[m["name"]]["unit"] == m["unit"] for m in declared)
        with pytest.raises(run.HarnessError):
            run.with_units(dict(values, undeclared=1.0), declared)
        with pytest.raises(run.HarnessError):
            run.with_units({k: v for k, v in list(values.items())[1:]},
                           declared)
