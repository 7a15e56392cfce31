"""embed-pair: `bipack embed` child processes on a seeded dense host.

Set-up generates one n=1024, p=0.75 host from the seed with bipack's own
generator, plus three star-forest targets, and writes them in the text
format. A round runs the three invocations once, one child at a time (a
closed loop with one client): all-ones (`--cap 1`), 512 hubs of degree 2
(`--cap 2`), and 40 hubs of degree 4 plus 700 leaves (`--cap 4`), all with
eps=0.49, so their large bands go through the Lemma-5 flow. Each child is
timed from start to exit and its peak RSS read with os.wait4. Every emitted
embedding is checked against the host and target files with the benchmark's
own verifier, and outputs must repeat byte for byte across rounds and
between traced and untraced children.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys

from checks import check_embedding, read_graph
from common import (
    Clock, Outcome, launch_argv, layer_metrics, load_trace, overhead_metrics, run_child, run_for, timed_setup,
)
from tracer import Tracer

N = 1024
P = 0.75
EPS = 0.49
SETUP_REPS = 3
# (target name, hub degrees, --cap)
TARGETS = [
    ("ones", [1] * N, 1),
    ("twos", [2] * (N // 2), 2),
    ("mixed", [4] * 40 + [1] * 700, 4),
]


def _make_inputs(seed, work):
    from bipack import generators, graphs

    texts = {"host": graphs.format_graph(generators.gen_random_bipartite(N, P, random.Random(seed)))}
    for name, hubs, _ in TARGETS:
        texts[name] = graphs.format_graph(generators.gen_star_forest(N, hubs))
    for name, text in texts.items():
        (work / f"{name}.txt").write_text(text)
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


class _Rounds:
    """Runs rounds of embed invocations and checks each output."""

    def __init__(self, seed, work, outcome):
        self.work = work
        self.outcome = outcome
        self.invocations = [(name, cap, seed) for name, _, cap in TARGETS]
        m, n, edges = read_graph((work / "host.txt").read_text())
        self.host = (m, n, set(edges))
        self.target_graphs = {name: read_graph((work / f"{name}.txt").read_text()) for name, _, _ in TARGETS}
        self.outputs = {}  # target name -> first output text
        self.children = []  # seconds of each child
        self.scaled_children = []  # the same, scaled by the clock
        self.scaled_rounds = []
        self.peak_rss_mb = 0.0
        self.successes = 0
        self.traces = []
        self.clock = Clock()

    def _args(self, name, cap, embed_seed, out):
        return [
            "embed", "--host", self.work / "host.txt", "--target", self.work / f"{name}.txt",
            "--eps", EPS, "--cap", cap, "--seed", embed_seed, "--out", out,
        ]

    def one_round(self, traced=False):
        wall = scaled = 0.0
        for name, cap, embed_seed in self.invocations:
            out = self.work / f"out-{name}.json"
            out.unlink(missing_ok=True)
            args = self._args(name, cap, embed_seed, out)
            if traced:
                trace_file = self.work / f"trace-{len(self.traces)}.json"
                argv = launch_argv("cli", *args, trace_file=trace_file, instance=len(self.traces) * 1000)
            else:
                argv = [sys.executable, "-m", "bipack.cli"] + [str(a) for a in args]
            child = run_child(argv, self.work)
            wall += child.wall_s
            self.children.append(child.wall_s)
            self.scaled_children.append(self.clock.scale(child.wall_s))
            scaled += self.scaled_children[-1]
            self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)
            self.outcome.attempted += 1
            if self._check(name, child, out):
                self.successes += 1
            if traced and trace_file.is_file():
                self.traces.append(load_trace(trace_file))
            elif traced:
                self.outcome.fail(f"{name}: the traced child wrote no spans")
        self.scaled_rounds.append(scaled)
        return wall

    def _check(self, name, child, out):
        problem = child.problem(allowed_codes=(0, 1))
        if problem is None and not out.is_file():
            problem = "no output file"
        if problem is not None:
            self.outcome.fail(f"{name}: {problem}")
            return False
        text = out.read_text()
        if self.outputs.setdefault(name, text) != text:
            self.outcome.fail(f"{name}: output differs from the first run of the same invocation")
            return False
        data = json.loads(text)
        if child.code == 1:  # a reported EmbedFailure: a valid answer, but no embedding
            if "phase" not in data:
                self.outcome.fail(f"{name}: exit code 1 without a failure report")
            return False
        problem = check_embedding(self.host, self.target_graphs[name], data)
        if problem is not None:
            self.outcome.fail(f"{name}: {problem}")
            return False
        return True


def run(seed, seconds, trace, work):
    outcome = Outcome()
    if not trace:
        setup_s, raw_setup_s, _, digests = timed_setup(lambda: _make_inputs(seed, work), SETUP_REPS)
        if any(d != digests[0] for d in digests):
            outcome.fail("set-up wrote different inputs for the same seed")
        runner = _Rounds(seed, work, outcome)
        walls = run_for(seconds, runner.one_round)
        children = runner.scaled_children
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(runner.scaled_rounds),
            "solve_s.p50": statistics.median(children),
            "peak_rss_mb": runner.peak_rss_mb,
            "ops_per_s": len(runner.invocations) / statistics.median(runner.scaled_rounds),
            "success_rate": runner.successes / len(children),
        }
        samples = {"setup_s": SETUP_REPS, "wall_s": len(walls), "solve_s.p50": len(children)}
        raw = {
            "setup_s": raw_setup_s,
            "wall_s": statistics.median(walls),
            "solve_s.p50": statistics.median(runner.children),
        }
        return metrics, samples, outcome, {"raw": raw}

    tracer = Tracer()
    tracer.install()
    try:
        _make_inputs(seed, work)
    finally:
        tracer.uninstall()
    runner = _Rounds(seed, work, outcome)
    rounds = len(run_for(seconds / 2, runner.one_round))
    for _ in range(rounds):
        runner.one_round(traced=True)
    untraced, traced = runner.scaled_rounds[:rounds], runner.scaled_rounds[rounds:]
    metrics, wrapped, absent = layer_metrics([tracer.as_dict()], runner.traces, len(traced))
    metrics.update(overhead_metrics(untraced, traced))
    return metrics, {"trace.overhead_s": len(traced)}, outcome, {"wrapped": wrapped, "absent": absent}
