"""One job = one call into schur-ed, run cold, in-process, under a CPU-time
deadline, with its output checked.

Every job starts the way a fresh `schur-ed` invocation does: the memoized
cover contexts (cocycle bits, lift caches) and every other module-level
cache of the program are reset first, so refilling them is part of the job.  CLI jobs call `schur_ed.cli.main(argv)` with
stdout captured; library jobs render their result as text.  Either way the
text is checked by the workload's own check and, where the inputs are fixed,
against the stdout digest recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import importlib
import io
import os
import pkgutil
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import schur_ed
from schur_ed import cli, covers


class DeadlineExceeded(BaseException):
    """Raised from SIGPROF when a job has used up its CPU-time deadline.

    A BaseException, so no `except Exception` in the program swallows it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Job:
    name: str
    call: Callable[[], Tuple[int, str]]  # -> (exit code, output text)
    check: Callable[[str], Optional[str]]  # -> why the output is wrong, or None
    deadline_s: float  # CPU seconds
    digest: Optional[str] = None  # sha256 of the output, for fixed inputs


@dataclass
class JobResult:
    name: str
    status: str  # ok | wrong | exit | deadline | skipped
    wall_s: float
    cpu_s: float
    detail: str = ""
    digest: str = ""  # sha256 of the output, when the job returned one

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def incorrect(self) -> bool:
        """Wrong output or a non-zero exit; a missed deadline is a failure
        but says nothing about correctness."""
        return self.status in ("wrong", "exit")


def cli_call(argv: Sequence[str]) -> Callable[[], Tuple[int, str]]:
    argv = [str(a) for a in argv]

    def call() -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # looked up at call time, so a traced run sees its wrapper
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return call


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ColdStart:
    """Puts the program back in its just-imported state between jobs.

    Snapshots every module-level dict, list and set of schur_ed (caches such
    as the cover contexts and the factorization memo are among them) and
    every functools cache, without naming any of them, so a cache added
    later is reset too."""

    def __init__(self):
        for mod in pkgutil.iter_modules(schur_ed.__path__):
            if mod.name != "__main__":
                importlib.import_module(f"schur_ed.{mod.name}")
        self._containers = []
        self._caches = []
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "schur_ed":
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("__"):
                    continue
                if type(value) in (dict, list, set):
                    self._containers.append(
                        (mod, attr, value, copy.copy(value)))
                elif callable(getattr(value, "cache_clear", None)):
                    self._caches.append(value)

    def __call__(self) -> None:
        covers.clear_cover_cache()
        for mod, attr, value, initial in self._containers:
            value.clear()
            if isinstance(value, list):
                value.extend(initial)
            else:
                value.update(initial)
            setattr(mod, attr, value)  # undo a rebinding, too
        for cached in self._caches:
            cached.cache_clear()
        gc.collect()  # leave no garbage from the previous job to this one


def loop_time() -> float:
    """Time of a fixed ~7 ms pure-Python loop.  It uses nothing of the
    program, so only the machine can change it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


class Pace:
    """Samples how fast the machine runs while the jobs run.

    On a shared host each virtual CPU has slow and fast spells, from a few
    seconds to many minutes long, and in a slow spell everything takes up
    to 1.7 times as long.  Inside `with pace:` a SIGALRM handler times
    `loop_time()` every `interval` seconds, on the CPU the job runs on.  The
    timer pauses between jobs, so the samples cover job time only; run_job
    takes the time spent sampling back out of the job's time.  The run's
    pace is the mean of the samples."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._left = 0.0  # of the timer, when it was last paused

    def _sample(self, signum, frame):
        t = loop_time()
        self.samples.append(t)
        self.spent += t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._left or self.interval,
                         self.interval)
        return self

    def __exit__(self, *exc):
        self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0]

    def mean(self) -> float:
        if not self.samples:
            self.samples.append(loop_time())
        return sum(self.samples) / len(self.samples)


def run_job(job: Job, cold: ColdStart,
            pace: Optional[Pace] = None) -> JobResult:
    cold()
    signal.signal(signal.SIGPROF, _on_deadline)
    spent0 = pace.spent if pace else 0.0
    w0, c0 = time.perf_counter(), time.process_time()

    def elapsed():
        sampling = pace.spent - spent0 if pace else 0.0
        return (time.perf_counter() - w0 - sampling,
                time.process_time() - c0 - sampling)

    try:
        with pace or contextlib.nullcontext():
            signal.setitimer(signal.ITIMER_PROF, job.deadline_s)
            try:
                rc, out = job.call()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineExceeded:
        return JobResult(job.name, "deadline", *elapsed(),
                         f"over {job.deadline_s} s CPU")
    wall, cpu = elapsed()
    digest = sha256(out)
    if rc != 0:
        return JobResult(job.name, "exit", wall, cpu, f"exit code {rc}", digest)
    why = job.check(out)
    if why is None and job.digest is not None and digest != job.digest:
        why = "output bytes differ from the recorded digest"
    if why is not None:
        return JobResult(job.name, "wrong", wall, cpu, why, digest)
    return JobResult(job.name, "ok", wall, cpu, "", digest)


class QuietCpu:
    """Keeps the process on the CPU that currently runs `loop_time()`
    fastest.

    The two CPUs' slow spells come at different times.  Before a job, at
    most once per `every` seconds, the loop is timed five times on each CPU
    the process may use and the process is pinned to the CPU with the
    lowest median.  Without sched_setaffinity it does nothing."""

    def __init__(self, every: float = 2.0):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_setaffinity") else []
        self.every = every
        self.last = -float("inf")

    def __call__(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.every:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = sorted(loop_time() for _ in range(5))[2]
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.last = time.perf_counter()


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    jobs: List[JobResult]


def run_pass(jobs: Sequence[Job], cold: ColdStart,
             stop_at: float = float("inf"),
             quiet: Optional[QuietCpu] = None,
             pace: Optional[Pace] = None) -> PassResult:
    """Run the jobs one after another (closed loop, one client), each from
    a cold start and, given `quiet`, on the quietest CPU, sampling `pace`.
    Jobs not started by `stop_at` (a perf_counter time) count as failed."""
    w0, c0 = time.perf_counter(), time.process_time()
    results = []
    for job in jobs:
        if time.perf_counter() >= stop_at:
            results.append(JobResult(job.name, "skipped", 0.0, 0.0,
                                     "run time guard reached"))
            continue
        if quiet is not None:
            quiet()
        results.append(run_job(job, cold, pace))
    return PassResult(time.perf_counter() - w0, time.process_time() - c0,
                      results)
