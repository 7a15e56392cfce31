"""bipack benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; inputs, outputs and
traces go to .perfbench_work/ at its root. With --trace 0 the end-to-end
metrics of BENCHMARK.json are measured with nothing traced; with --trace 1
the per-layer metrics come from a traced pass compared with an untraced one.
A readable report goes first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bipack" / "__init__.py").is_file():
        print(f"no bipack sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import wl_embed
    import wl_exact
    import wl_grid
    from common import Outcome, pin_to_one_cpu

    workloads = {"embed-pair": wl_embed, "grid": wl_grid, "exact": wl_exact}
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pin_to_one_cpu()

    try:
        result = workloads[args.workload].run(args.seed, args.seconds, args.trace, work)
    except Exception:  # report a crash as a failed run, with its traceback
        traceback.print_exc()
        result = {}, {}, Outcome(), {}
        result[2].fail("the benchmark raised; traceback on stderr")
    metrics, samples, outcome, info = result

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = info.get("absent", [])
    report, missing = {}, []
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            missing.append(name)
            continue
        report[name] = {"value": metrics[name], "unit": unit}
        count = f"  (n={samples[name]})" if name in samples else ""
        raw = f"  (raw {info['raw'][name]:.6g})" if name in info.get("raw", {}) else ""
        print(f"  {name:42s} {metrics[name]:.6g} {unit}{count}{raw}")
    if args.trace:
        print("  wrapped: " + ", ".join(info.get("wrapped", [])))
        print("  absent from the program: " + (", ".join(absent) or "none"))
    if missing:
        print("  not reported: " + ", ".join(missing))
    attempted = max(1, outcome.attempted)
    print(f"  error_rate {outcome.failed / attempted:.6g} ({outcome.failed} of {attempted} operations)")
    for message in outcome.messages:
        print(f"  error: {message}")
    correct = outcome.failed == 0 and (args.trace or not missing)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": outcome.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
