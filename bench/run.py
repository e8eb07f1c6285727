"""pairgate benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 bench/run.py --workload cli_oneshot|sweep_bulk|oracle_scan \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; it imports pairgate from ./src and
needs nothing beyond the standard library and pairgate's own dependencies.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
measured with tracing off and given in units of a yardstick, fixed work run
next to every operation that tracks the shared host's speed; with --trace 1
they are the per-layer ones from a traced run (see layers.py). The line
before it holds details: the seed, the same timings in plain seconds,
failure reasons, the known-defect probes and their failures, the machine.
See bench/README.md for what each metric means and why the workloads are
what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MEASURE_BUDGET_S = 100.0  # nominal measuring time is capped here, whatever --seconds asks
DEADLINE_FACTOR = 1.3  # a run stops after the round that ends past this many times --seconds
TAIL_BEYOND = 10
WORK_DIR = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_oneshot", "sweep_bulk", "oracle_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many operations (self-test sizes)")
    return parser.parse_args(argv)


def tail(values: list[float]) -> dict:
    """Highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    n = len(ordered)
    return {"value": ordered[n - beyond - 1], "percentile": 100.0 * (n - beyond) / n,
            "samples_beyond": beyond}


# --------------------------------------------------------------------------
# running operations
# --------------------------------------------------------------------------

class Runner:
    """Runs one workload's operations, untraced or traced."""

    def __init__(self, workload, workdir: Path):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.workdir = workdir
        self.env = workloads.child_env()
        self.tracer = None
        if workload.in_process:
            import pairgate.cli

            self.cli = pairgate.cli

    def yardstick(self) -> tuple[float, float]:
        """(wall s, CPU s) of the workload's yardstick, run now."""
        if self.workload.in_process:
            return self.workloads.yardstick_loop()
        return self.workloads.yardstick_process(self.workdir, self.env)

    def _call(self, op, command):
        w = self.workloads
        if op.kind == "oracle_call":
            return w.run_oracle_call(op)
        if self.workload.in_process:
            return w.run_cli_in_process(op, self.cli)
        return w.run_cli_process(op, self.workdir, self.env, command)

    def run(self, op, op_id=None):
        if self.tracer is None:
            return self._call(op, [sys.executable, "-m", "pairgate.cli"])
        root = self.tracer.new_id()
        self.tracer.begin(op_id, root)
        spans_file = self.workdir / "child-spans.jsonl"
        sample = self._call(op, [sys.executable, str(BENCH_DIR / "tracechild.py"), str(spans_file),
                                 str(op_id), root, "--"])
        if spans_file.exists():
            self.child_spans += [json.loads(line) for line in spans_file.read_text().splitlines()]
            spans_file.unlink()
        self.tracer.record("bench.op", sample.start, sample.end, parent=None, span_id=root)
        return sample

    def traced_pass(self, ops, pass_index):
        from tracer import Tracer, instrument

        self.tracer, self.child_spans = Tracer(prefix=f"p{pass_index}."), []
        restore = instrument(self.tracer) if self.workload.in_process else (lambda: None)
        try:
            samples = [self.run(op, pass_index * len(ops) + i) for i, op in enumerate(ops)]
        finally:
            restore()
        spans = self.tracer.spans() + self.child_spans
        self.tracer = None
        return samples, spans


class Timed:
    """A measured operation and the yardstick around it: the mean of the
    yardstick runs just before and just after it, wall and CPU."""

    __slots__ = ("sample", "yard_wall", "yard_cpu")

    def __init__(self, sample, before, after):
        self.sample = sample
        self.yard_wall = (before[0] + after[0]) / 2
        self.yard_cpu = (before[1] + after[1]) / 2


def timed_rounds(runner, seconds, max_ops, setup_probe):
    """Whole rounds, as many as the workload's nominal round time fits in
    `seconds`. The count depends only on `seconds`, so every run of a
    workload measures the same composition and its median always falls on
    the same kind of operation; only a host more than DEADLINE_FACTOR times
    slower than nominal cuts a run short (set-up probe time does not count
    against that). Every operation is bracketed by yardstick runs. The
    SETUP_REPEATS set-up probes are spread evenly over the run's rounds, so
    their median spans the run as the operations do.

    Returns the Timed operations and the number of rounds."""
    workload = runner.workload
    budget = min(seconds, MEASURE_BUDGET_S)
    rounds = max(1, round(budget / workload.round_seconds))
    deadline = time.perf_counter() + DEADLINE_FACTOR * budget
    probes = 0
    timed = []
    for index in range(rounds):
        while probes < SETUP_REPEATS * (index + 1) // rounds:
            probe_start = time.perf_counter()
            setup_probe()
            deadline += time.perf_counter() - probe_start
            probes += 1
        before = runner.yardstick()
        for op in workload.round(index)[:max_ops]:
            sample = runner.run(op)
            after = runner.yardstick()
            timed.append(Timed(sample, before, after))
            before = after
        if max_ops or time.perf_counter() > deadline:
            break
    while probes < SETUP_REPEATS:
        setup_probe()
        probes += 1
    return timed, index + 1


def traced_passes(runner, seconds, max_ops):
    """Round 0 untraced and traced in ABBA order until `seconds` have passed."""
    ops = runner.workload.round(0)[:max_ops]
    plain, traced = [], []
    started, pair = time.perf_counter(), 0
    while pair == 0 or time.perf_counter() - started < min(seconds, MEASURE_BUDGET_S):
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(runner.traced_pass(ops, len(plain) + len(traced)))
            else:
                plain.append([runner.run(op) for op in ops])
        pair += 1
    return plain, traced


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

class SetupProbe:
    """Wall time of a fresh interpreter that imports pairgate.cli and builds
    the workload's inputs, the set-up every run of this workload pays. Each
    call runs one probe and appends its time to `times`; one uncounted probe
    at construction warms the file cache."""

    def __init__(self, name, seed, workdir):
        import workloads

        self.wait_child, self.env = workloads.wait_child, workloads.child_env()
        self.dir = workdir / "setup-probe"
        self.dir.mkdir()
        self.command = [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed), str(self.dir)]
        self.times = []
        self()
        self.times.clear()

    def __call__(self):
        code, start, end, _ = self.wait_child(self.command, self.env, self.dir,
                                              self.dir / "out.txt", self.dir / "err.txt")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {(self.dir / 'err.txt').read_text()[-500:]}")
        self.times.append((end - start) / 1e9)


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def end_to_end(timed, setup_times) -> tuple[dict, dict]:
    """Gated metrics: each operation's wall time in units of the yardstick
    run next to it. The detail holds the tail and CPU time in the same
    units, which the host's load moves by more than the bounds (see
    README.md), and all timings in plain seconds."""
    samples = [t.sample for t in timed]
    walls = [s.wall for s in samples]
    cost = [t.sample.wall / t.yard_wall for t in timed]
    points = sum(s.outcome.points for s in samples if s.outcome)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "call_cost.p50": statistics.median(cost),
        "call_cost.mean": statistics.fmean(cost),
        "points_per_yardstick": points / sum(cost),
        "peak_rss_mib": max(s.rss_kib for s in samples) / 1024.0,
    }
    detail = {
        "operations": len(samples),
        "call_cost.tail": tail(cost),
        "cpu_cost.p50": statistics.median(t.sample.cpu / t.yard_cpu for t in timed),
        "setup_s.samples": setup_times,
        "yardstick_ms.p50": statistics.median(t.yard_wall for t in timed) * 1e3,
        "call_ms.p50": statistics.median(walls) * 1e3,
        "call_ms.tail": tail([w * 1e3 for w in walls]),
        "cpu_ms.p50": statistics.median(s.cpu for s in samples) * 1e3,
        "ops_per_s": len(samples) / sum(walls),
        "points_per_s": points / sum(walls),
        "rk4_steps_per_s": sum(s.outcome.rk4_steps for s in samples if s.outcome) / sum(walls),
        "fail_ratio": sum(not s.ok for s in samples) / len(samples),
    }
    return metrics, detail


def per_layer(plain, traced, probes, workdir) -> tuple[dict, dict]:
    import layers

    metrics = layers.import_layer(workdir)
    metrics.update(layers.src_lines())
    metrics.update(layers.kernel_ns())
    metrics.update(layers.span_metrics(traced))
    # the oracle's accuracy: one traced pass plus the known-defect probes,
    # which is where it currently fails
    checked = traced[0][0] + probes
    errors = [s.outcome.rel_err for s in checked if s.outcome and s.outcome.rel_err is not None]
    metrics["oracle.rel_err_max"] = min(max(errors, default=0.0), 1e300)
    metrics["oracle.checks_out_of_bound"] = sum(1 for s in checked if s.outcome and s.outcome.out_of_bound)
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.wall for samples, _ in traced for s in samples)
        / statistics.median(s.wall for samples in plain for s in samples))
    return metrics, {"machine": layers.machine()}


def write_spans(name, seed, traced) -> Path:
    spans_dir = WORK_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for _, spans in traced:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    return path


def failure_summary(samples) -> dict:
    reasons = {}
    for sample in samples:
        if not sample.ok:
            out_of_bound = sample.outcome is not None and sample.outcome.out_of_bound
            key = "out of bound" if out_of_bound else sample.reason.split(":")[0][:60]
            entry = reasons.setdefault(f"{sample.op.kind}: {key}", {"count": 0, "example": sample.reason[:300]})
            entry["count"] += 1
    return reasons


def units_of(values, declared) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match exactly."""
    unit_of = {entry["name"]: entry["unit"] for entry in declared}
    if set(values) != set(unit_of):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(unit_of))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit_of[name]} for name in unit_of}


def run(args) -> dict:
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import workloads

    os.environ.pop("PAIRGATE_MATERIALS", None)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, workdir)
        import pairgate

        if not Path(pairgate.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported pairgate from {pairgate.__file__}, not from {SRC}")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            declared = json.load(handle)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            plain, traced = traced_passes(runner, args.seconds, args.max_ops)
            samples = [s for batch in plain for s in batch] + [s for batch, _ in traced for s in batch]
        else:
            setup_probe = SetupProbe(args.workload, args.seed, workdir)
            timed, rounds = timed_rounds(runner, args.seconds, args.max_ops, setup_probe)
            samples = [t.sample for t in timed]
        probes = [runner.run(op) for op in workload.known_defect_probes()]
        if args.trace:
            values, extra = per_layer(plain, traced, probes, workdir)
            metrics = units_of(values, declared["per_layer"])
            extra["spans_file"] = str(write_spans(args.workload, args.seed, traced).relative_to(ROOT))
        else:
            values, extra = end_to_end(timed, setup_probe.times)
            metrics = units_of(values, declared["end_to_end"])
            extra["rounds"] = rounds
        failed = sum(not s.ok for s in samples)
        probes_failed = sum(not s.ok for s in probes)
        detail.update(extra, failures=failure_summary(samples), known_defects={
            "attempted": len(probes), "failed": probes_failed,
            "fail_ratio": probes_failed / len(probes) if probes else 0.0,
            "failures": failure_summary(probes)})
        print(json.dumps({"detail": detail}))
        if probes_failed:
            print(f"bench: {probes_failed} of {len(probes)} known-defect probes failed "
                  "(not counted in the result; see known_defects in the detail line)", file=sys.stderr)
        return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    # on SIGTERM, unwind: kill and reap a running child, remove the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    missing = [p for p in (SRC / "pairgate" / "cli.py", ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"bench: run from a checkout of the repository; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    result = run(args)
    for entry in result["metrics"].values():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"non-finite metric in {result['metrics']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
