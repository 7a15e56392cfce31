"""Helpers shared by the workloads: paths, child processes, bookkeeping, trace summaries."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
STARTED = time.monotonic()
RUN_BUDGET_S = 170.0  # a run, children included, must end within 180 s


def time_left():
    return RUN_BUDGET_S - (time.monotonic() - STARTED)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """One finished child process: wall time, exit code, peak RSS and stderr."""

    def __init__(self, wall_s, code, peak_rss_mb, stderr):
        self.wall_s = wall_s
        self.code = code
        self.peak_rss_mb = peak_rss_mb
        self.stderr = stderr

    def problem(self, allowed_codes=(0,)):
        """Why this child counts as an error, or None."""
        if "Traceback" in self.stderr:
            return "traceback on stderr: " + self.stderr.strip().splitlines()[-1]
        if self.code not in allowed_codes:
            return f"exit code {self.code}: {self.stderr.strip()[-300:]}"
        return None


def run_child(argv, log_dir: Path) -> Child:
    """Run argv to completion, timing it and reading its peak RSS with os.wait4.

    A child still running when the run's time budget is spent is killed, and
    its exit code reports it.
    """
    out_path, err_path = log_dir / "child.stdout", log_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        reaped = threading.Event()
        timer = threading.Timer(max(1.0, time_left()), _kill_unless_reaped, (proc.pid, reaped))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


def _kill_unless_reaped(pid, reaped):
    if not reaped.is_set():
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU.

    The work and the calibration pass that scales it (see Clock) then run on
    the same CPU, whichever process runs them. Only one of them runs at a time.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass


CAL_PASS_S = 0.15  # nominal seconds of one calibration pass


def calibration_pass():
    """Seconds one pass of a fixed dict-and-set loop takes now.

    The loop builds a set of 150k integer pairs in a scattered order and an
    adjacency dict from it, then probes the set: the kind of work bipack's
    graph code does, but never bipack's own code. It allocates everything
    it uses, so nothing is held between passes.
    """
    start = time.perf_counter()
    keys = [i * 7919 % 150_001 for i in range(150_000)]
    pairs = {(k % 1024, k // 1024 * 1024 + k * 31 % 1024) for k in keys}
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
    sum(pair in pairs for pair in zip(keys[:50_000], keys[50_000:100_000]))
    return time.perf_counter() - start


def own_peak_rss_mb():
    """Peak RSS of this process since it started its program, in MB.

    Workers read it after a warm-up round and before their Clock's first
    calibration pass, whose own allocations would otherwise be counted.
    VmHWM is used where there is one: the ru_maxrss of a child also keeps
    the size its parent had when it started the child.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Scales measured seconds to a reference machine speed.

    On a shared host the same code runs a quarter or more faster or slower
    for minutes at a time, as other tenants load the cores, so raw seconds
    of runs made minutes apart differ by more than a bound can allow. A
    calibration pass is timed before and after each piece of work on the
    same CPU, and the work's seconds are multiplied by CAL_PASS_S over the
    mean of the two: seconds on a machine that runs one pass in CAL_PASS_S.
    A change in bipack's speed moves the result in full; a change in the
    machine's speed moves the pass as well and cancels, in so far as both
    slow down alike.
    """

    def __init__(self):
        self.last = calibration_pass()

    def scale(self, seconds):
        """Scaled seconds of work that ended just now; calibrates again."""
        before, self.last = self.last, calibration_pass()
        return seconds * CAL_PASS_S / ((before + self.last) / 2)


def launch_argv(*args, trace_file=None, instance=0):
    argv = [sys.executable, str(LAUNCH)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file), "--instance", str(instance)]
    return argv + [str(a) for a in args]


class Outcome:
    """Operations attempted and failed in a run; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def timed_setup(setup, reps):
    """Run setup() reps times on a Clock.

    Returns (median scaled seconds, median raw seconds, last result, all results).
    """
    clock = Clock()
    raw, scaled, results = [], [], []
    for _ in range(reps):
        start = time.perf_counter()
        results.append(setup())
        raw.append(time.perf_counter() - start)
        scaled.append(clock.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw), results[-1], results


def percentile(values, q):
    """q-th percentile by linear interpolation (statistics.quantiles, inclusive)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def run_for(seconds, one_round):
    """Call one_round() until the rounds' own times reach seconds; at least once.

    Stops early when the run's time budget is spent. one_round returns the
    seconds it counts as measured; returns that list.
    """
    walls = []
    while not walls or (sum(walls) < seconds and time_left() > 0):
        walls.append(one_round())
    return walls


# ---------------------------------------------------------------------------
# Per-layer metrics from traces.
# ---------------------------------------------------------------------------


def load_trace(path: Path):
    return json.loads(path.read_text())


def layer_metrics(setup_traces, round_traces, rounds):
    """Per-layer metrics for one set-up plus one round of the workload.

    setup_traces cover one traced set-up; round_traces cover `rounds` traced
    rounds, whose totals are divided by the round count.
    Returns (metrics, wrapped names, names that are absent or whose counter
    no longer fits the program).
    """
    setup, timed = {}, {}  # ("total" | "self" | "calls" | "counter", name) -> sum
    trials = []
    wrapped, absent, broken = set(), set(), set()
    for traces, sums in ((setup_traces, setup), (round_traces, timed)):
        for trace in traces:
            spans = trace["spans"]
            for span, own in zip(spans, self_times(spans)):
                name, start, end = span[0], span[1], span[2]
                for key, value in (("total", end - start), ("self", own), ("calls", 1)):
                    sums[key, name] = sums.get((key, name), 0) + value
                if name == "experiments.run_trial":
                    trials.append((end - start) * 1000.0)
            for name, value in trace["counters"].items():
                sums["counter", name] = sums.get(("counter", name), 0) + value
            wrapped.update(trace["wrapped"])
            absent.update(trace["absent"])
            broken.update(trace["brokenCounters"])
    absent -= wrapped

    def per_unit(key, name):
        return setup.get((key, name), 0) + timed.get((key, name), 0) / rounds

    metrics = {}
    for name in wrapped:
        module, attr = name.split(".", 1)
        metrics[f"{module}.{attr.rsplit('.', 1)[-1]}_s"] = per_unit("total", name)
    if "cli.main" in wrapped:
        metrics["cli.self_s"] = per_unit("self", "cli.main")
    if "experiments.run_experiment" in wrapped:
        metrics["experiments.write_s"] = per_unit("self", "experiments.run_experiment")
    if "experiments.run_trial" in wrapped:
        metrics["experiments.run_trial_ms.p50"] = percentile(trials, 50) if trials else 0.0
        metrics["experiments.run_trial_ms.p90"] = percentile(trials, 90) if trials else 0.0
    if {"flow.fixed_order_embed", "flow.max_flow"} <= wrapped:
        metrics["flow.network_build_s"] = per_unit("total", "flow.fixed_order_embed") - per_unit(
            "total", "flow.max_flow"
        )
    if "embedder.greedy_embed_small" in wrapped:
        metrics["embedder.attempts"] = per_unit("calls", "embedder.greedy_embed_small")
    if "embedder.embed_pair" in wrapped:
        metrics["embedder.pair_calls"] = per_unit("calls", "embedder.embed_pair")
    counted = wrapped - broken
    if "embedder.greedy_embed_small" in counted:
        used = per_unit("counter", "embedder.greedy_b_used")
        budget = per_unit("counter", "embedder.greedy_b_budget")
        metrics["embedder.greedy_b_used"] = used
        metrics["embedder.greedy_b_share"] = used / budget if budget else 0.0
    if "flow.fixed_order_embed" in counted:
        metrics["flow.network_arcs"] = per_unit("counter", "flow.network_arcs")
    return metrics, sorted(wrapped), sorted(absent | broken)


def overhead_metrics(untraced_walls, traced_walls):
    """Traced minus untraced median round, in seconds and as a share."""
    base = statistics.median(untraced_walls)
    extra = statistics.median(traced_walls) - base
    return {"trace.overhead_s": extra, "trace.overhead_share": extra / base}
