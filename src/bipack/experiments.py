"""Monte Carlo trial runner with fully reproducible outputs.

Each trial is seeded as seed_base + trial index, so results are
independent of execution order. Timing lives in a separate metadata file;
the CSV summary and the JSON trial records are byte-identical across
reruns of the same spec.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .embedder import EmbedConfig, EmbedFailure, embed
from .generators import gen_condition1_counterexample, gen_random_bipartite, gen_star_forest

GENERATORS = ("random", "condition1")

SUMMARY_COLUMNS = ["n", "p", "deltaH", "eps", "mode", "trials", "successes"]


@dataclass(frozen=True)
class GridPoint:
    n: int
    p: float
    delta_h: int
    eps: float
    generator: str = "random"
    demand_total: Optional[int] = None  # default: 3n/4 for random hosts

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.delta_h < 1:
            raise ValueError("hub degree delta_h must be at least 1")
        if self.demand_total is not None and not 0 <= self.demand_total <= self.n:
            raise ValueError("demand total must lie in [0, n]")


@dataclass(frozen=True)
class ExperimentSpec:
    grid: tuple
    trials: int
    seed_base: int = 0
    mode: str = "relaxed"
    retries: int = 5
    out: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    n: int
    p: float
    delta_h: int
    eps: float
    mode: str
    generator: str
    phase: str  # "success" or the failing phase
    success: bool
    millis: float = field(compare=False)

    def payload_dict(self) -> dict:
        """Record fields minus timing, for the deterministic output."""
        d = asdict(self)
        d.pop("millis")
        return d


def _make_instance(point: GridPoint, rng: random.Random):
    if point.generator == "condition1":
        host = gen_condition1_counterexample(point.n)
        target = gen_star_forest(point.n, [1] * point.n)
        return host, target
    host = gen_random_bipartite(point.n, point.p, rng)
    total = point.demand_total
    if total is None:
        total = 3 * point.n // 4
    hubs = [point.delta_h] * (total // point.delta_h)
    if total % point.delta_h:
        hubs.append(total % point.delta_h)
    target = gen_star_forest(point.n, hubs)
    return host, target


def run_trial(point: GridPoint, seed: int, mode: str, retries: int) -> TrialRecord:
    rng = random.Random(seed)
    host, target = _make_instance(point, rng)
    cfg = EmbedConfig(
        eps=point.eps,
        mode=mode,
        cap_override=None if mode == "strict" else float(point.delta_h),
        retries=retries,
        seed=seed,
    )
    start = time.perf_counter()
    result = embed(host, target, cfg)
    millis = (time.perf_counter() - start) * 1000.0
    failed = isinstance(result, EmbedFailure)
    return TrialRecord(
        seed=seed,
        n=point.n,
        p=point.p,
        delta_h=point.delta_h,
        eps=point.eps,
        mode=mode,
        generator=point.generator,
        phase=result.phase if failed else "success",
        success=not failed,
        millis=millis,
    )


def summarize(spec: ExperimentSpec, records) -> list:
    tally = {}  # (n, p, delta_h, eps, generator) -> [trials, successes]
    for r in records:
        counts = tally.setdefault((r.n, r.p, r.delta_h, r.eps, r.generator), [0, 0])
        counts[0] += 1
        counts[1] += r.success
    rows = []
    for point in spec.grid:
        trials, successes = tally.get(
            (point.n, point.p, point.delta_h, point.eps, point.generator), (0, 0)
        )
        rows.append(
            {
                "n": point.n,
                "p": point.p,
                "deltaH": point.delta_h,
                "eps": point.eps,
                "mode": spec.mode,
                "trials": trials,
                "successes": successes,
            }
        )
    return rows


def summary_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def run_experiment(spec: ExperimentSpec):
    """Run all grid points; returns (records, summary rows).

    When spec.out is set, writes <out>.csv (summary), <out>.records.json
    (per-trial payloads) and <out>.meta.json (timings; the only
    non-reproducible file).
    """
    records = []
    trial_index = 0
    for point in spec.grid:
        for _ in range(spec.trials):
            seed = spec.seed_base + trial_index
            records.append(run_trial(point, seed, spec.mode, spec.retries))
            trial_index += 1
    rows = summarize(spec, records)
    if spec.out is not None:
        base = Path(spec.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        (base.parent / (base.name + ".csv")).write_text(summary_csv(rows))
        (base.parent / (base.name + ".records.json")).write_text(
            json.dumps([r.payload_dict() for r in records], indent=1, sort_keys=True)
            + "\n"
        )
        (base.parent / (base.name + ".meta.json")).write_text(
            json.dumps(
                {
                    "wallMillis": [round(r.millis, 3) for r in records],
                    "generatedAt": time.time(),
                },
                indent=1,
            )
            + "\n"
        )
    return records, rows
