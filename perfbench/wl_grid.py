"""grid: in-process `experiments.run_experiment` over a small grid, with file output.

The parent writes the grid spec; a worker child (launch.py grid) runs the
whole grid once per round until the run's seconds are spent, timing each
round, and records digests of the .csv and .records.json it wrote. The parent
checks that every round wrote the same bytes, that every condition1 trial
failed, and that the summary agrees with the trial records.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
import time
from pathlib import Path

from common import (
    Clock, Outcome, launch_argv, own_peak_rss_mb, layer_metrics, load_trace, overhead_metrics, run_child, run_for, timed_setup,
)

TRIALS = 10
SETUP_REPS = 5
EPS = 0.4
POINTS = [
    {"n": n, "p": p, "delta_h": dh, "eps": EPS}
    for n in (64, 128)
    for p in (0.6, 0.75, 0.9)
    for dh in (2, 4, 8)
] + [{"n": 64, "p": 0.75, "delta_h": dh, "eps": EPS, "generator": "condition1"} for dh in (1, 2)]


# ---------------------------------------------------------------------------
# Worker side (runs inside launch.py).
# ---------------------------------------------------------------------------


def _spec(path):
    from bipack import experiments

    data = json.loads(Path(path).read_text())
    return experiments.ExperimentSpec(
        grid=tuple(experiments.GridPoint(**point) for point in data["grid"]),
        trials=data["trials"],
        seed_base=data["seedBase"],
        out=data["out"],
    )


def load(path):
    _spec(path)


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def work(path, seconds, result_path):
    from bipack import experiments

    spec = _spec(path)
    experiments.run_experiment(spec)  # warm-up round, which also reaches a round's peak memory
    peak_rss_mb = own_peak_rss_mb()
    rounds = []
    clock = Clock()

    def one_round():
        start = time.perf_counter()
        experiments.run_experiment(spec)
        wall = time.perf_counter() - start
        digests = {"csv": _digest(spec.out + ".csv"), "records": _digest(spec.out + ".records.json")}
        rounds.append({"wall": wall, "scaled": clock.scale(wall), **digests})
        return wall

    run_for(seconds, one_round)
    Path(result_path).write_text(json.dumps({"rounds": rounds, "peak_rss_mb": peak_rss_mb}))


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _write_spec(seed, work):
    spec_path = work / "grid.json"
    spec = {"grid": POINTS, "trials": TRIALS, "seedBase": seed * 1000, "out": str(work / "grid" / "run")}
    spec_path.write_text(json.dumps(spec))
    return spec_path


def _setup(seed, work, outcome):
    spec_path = _write_spec(seed, work)
    child = run_child(launch_argv("grid", spec_path, "--load-only"), work)
    problem = child.problem()
    if problem is not None:
        outcome.fail(f"loading the grid spec: {problem}")
    return spec_path


def _run_worker(spec_path, seconds, work, outcome, trace_file=None):
    """One worker child; returns (result, peak RSS MB, successes, output digests)."""
    result_path = work / "grid-result.json"
    result_path.unlink(missing_ok=True)
    child = run_child(launch_argv("grid", spec_path, seconds, result_path, trace_file=trace_file), work)
    problem = child.problem()
    if problem is not None or not result_path.is_file():
        outcome.attempted += 1
        outcome.fail(f"grid worker: {problem or 'no result file'}")
        return None, 0.0, 0, None
    result = json.loads(result_path.read_text())
    rounds = result["rounds"]
    per_round = len(POINTS) * TRIALS
    outcome.attempted += per_round * len(rounds)
    first = rounds[0]
    for index, one in enumerate(rounds):
        if (one["csv"], one["records"]) != (first["csv"], first["records"]):
            outcome.fail(f"grid round {index} wrote different .csv/.records.json bytes than round 0")
    successes = _check_outputs(work / "grid" / "run", per_round, outcome)
    return result, result["peak_rss_mb"], successes, (first["csv"], first["records"])


def _check_outputs(base, per_round, outcome):
    """Check the last round's files; returns its success count."""
    records = json.loads(Path(str(base) + ".records.json").read_text())
    if len(records) != per_round:
        outcome.fail(f"{len(records)} trial records, expected {per_round}")
    for r in records:
        if r["generator"] == "condition1" and (r["success"] or r["phase"] == "success"):
            outcome.fail(f"condition1 trial with seed {r['seed']} reported success")
    with open(str(base) + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(POINTS):
        outcome.fail(f"{len(rows)} summary rows, expected {len(POINTS)}")
    for row, point in zip(rows, POINTS):
        key = (point["n"], point["p"], point["delta_h"], point.get("generator", "random"))
        mine = [r for r in records if (r["n"], r["p"], r["delta_h"], r["generator"]) == key]
        counts = (len(mine), sum(bool(r["success"]) for r in mine))
        if (int(row["trials"]), int(row["successes"])) != counts:
            outcome.fail(f"summary row {key} disagrees with the trial records")
    return sum(bool(r["success"]) for r in records)


def _walls(result, key="scaled"):
    return [one[key] for one in result["rounds"]]


def run(seed, seconds, trace, work):
    outcome = Outcome()
    per_round = len(POINTS) * TRIALS
    if not trace:
        setup_s, raw_setup_s, spec_path, _ = timed_setup(lambda: _setup(seed, work, outcome), SETUP_REPS)
        result, rss, successes, _ = _run_worker(spec_path, seconds, work, outcome)
        if result is None:
            return {}, {}, outcome, {}
        walls = _walls(result)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "solve_s.p50": statistics.median(walls) / per_round,
            "peak_rss_mb": rss,
            "ops_per_s": per_round / statistics.median(walls),
            "success_rate": successes / per_round,
        }
        samples = {"setup_s": SETUP_REPS, "wall_s": len(walls), "solve_s.p50": len(walls)}
        raw = {"setup_s": raw_setup_s, "wall_s": statistics.median(_walls(result, "wall"))}
        return metrics, samples, outcome, {"raw": raw}

    spec_path = _setup(seed, work, outcome)
    untraced, _, _, digests = _run_worker(spec_path, seconds / 2, work, outcome)
    trace_file = work / "trace-grid.json"
    traced, _, _, traced_digests = _run_worker(spec_path, seconds / 2, work, outcome, trace_file)
    if untraced is None or traced is None:
        return {}, {}, outcome, {}
    if traced_digests != digests:
        outcome.fail("traced grid run wrote different .csv/.records.json bytes than the untraced run")
    # the trace also covers the worker's warm-up round
    metrics, wrapped, absent = layer_metrics([], [load_trace(trace_file)], len(traced["rounds"]) + 1)
    metrics.update(overhead_metrics(_walls(untraced), _walls(traced)))
    return metrics, {"trace.overhead_s": len(traced["rounds"])}, outcome, {"wrapped": wrapped, "absent": absent}
