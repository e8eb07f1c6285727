"""Per-layer numbers for the traced run.

Layers are pairgate's modules (cli, units, materials, model, oracle; the
constants module is a frozen dataclass and gets none) plus `import`, the
interpreter start and `import pairgate.cli`, measured with `-X importtime`.
Span-derived times are per operation; counts are per round (exact for a
given seed).
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from workloads import ROOT, SRC, child_env, wait_child

PROBE_REPEATS = 5
KERNEL_CALLS = 20000
KERNEL_REPEATS = 7
MODULES = ("cli", "units", "materials", "model", "oracle", "constants")
MODEL_CALLS = ("gain_coefficient", "pairs_per_bandwidth", "pair_flux_reduced",
               "effective_limit_intensity", "classify_regime")
KERNELS = ("gain_coefficient", "classify_regime", "limit_pump_intensity", "pair_flux_reduced")
LAYERS = ("cli", "units", "materials", "model", "oracle")

# per-operation inclusive time of these spans (time their callers wait)
TIMED = {
    "cli.build_parser_ms": ("cli.build_parser",),
    "cli.parse_args_ms": ("cli.parse_args",),
    "cli.assemble_ms": ("cli._build_medium", "cli._build_triplet", "cli._build_pump"),
    "cli.grid_ms": ("cli.SweepSpec.grid",),
    "cli.render_ms": ("cli._render_csv", "cli._render_table"),
    "cli.emit_ms": ("cli._emit",),
    "units.parse_ms": tuple(f"units.parse_{q}" for q in
                            ("length", "area", "intensity", "frequency", "field", "chi2", "chi3")),
    "materials.resolve_catalog_ms": ("materials.resolve_catalog",),
    "materials.lookup_ms": ("materials.lookup",),
    "oracle.integrate_ms": ("oracle.integrate",),
}

_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| *(\S+)$")


# --------------------------------------------------------------------------
# import layer and static counts
# --------------------------------------------------------------------------

def _run(cmd, workdir):
    out, err = workdir / "probe.out", workdir / "probe.err"
    code, start, end, _ = wait_child(cmd, child_env(), workdir, out, err)
    if code != 0:
        raise RuntimeError(f"{cmd} exited {code}: {err.read_text()[-500:]}")
    return (end - start) / 1e6, out.read_text(), err.read_text()


def import_layer(workdir) -> dict:
    python = sys.executable
    start = [_run([python, "-c", "pass"], workdir)[0] for _ in range(PROBE_REPEATS)]
    cli_ms, numpy_ms = [], []
    for _ in range(PROBE_REPEATS):
        cumulative = {}
        for line in _run([python, "-X", "importtime", "-c", "import pairgate.cli"], workdir)[2].splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(2) not in cumulative:
                cumulative[match.group(2)] = int(match.group(1)) / 1e3
        cli_ms.append(cumulative["pairgate.cli"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    loaded = _run([python, "-c", "import sys, pairgate.cli; print(len(sys.modules))"], workdir)[1]
    return {
        "import.python_start_ms": statistics.median(start),
        "import.pairgate_cli_ms": statistics.median(cli_ms),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.modules_loaded": int(loaded),
    }


def src_lines() -> dict:
    def count(path):
        with open(path, encoding="utf-8") as handle:
            return sum(1 for _ in handle)

    package = SRC / "pairgate"
    lines = {f"code.src_lines.{m}": count(package / f"{m}.py") for m in MODULES}
    lines["code.src_lines.total"] = sum(count(p) for p in package.glob("*.py"))
    return lines


def kernel_ns() -> dict:
    """Median per-call time of the scalar kernels on fixed inputs (loop included)."""
    from pairgate import model

    medium = model.Medium(process=model.Process.SPDC, chi_eff=1e-12)
    triplet = model.triplet_from_wavelengths(1e-6, 1e-6, model.Process.SPDC)
    pump = model.PumpDrive.from_intensity(1.35e12)
    calls = {
        "gain_coefficient": (model.gain_coefficient, (medium, triplet, pump)),
        "classify_regime": (model.classify_regime, (0.5,)),
        "limit_pump_intensity": (model.limit_pump_intensity, (medium, 1e-6, 1e-6, 1e-2)),
        "pair_flux_reduced": (model.pair_flux_reduced, (0.5, 1e9)),
    }
    result = {}
    for name in KERNELS:
        fn, args = calls[name]
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter_ns()
            for _ in range(KERNEL_CALLS):
                fn(*args)
            times.append((time.perf_counter_ns() - start) / KERNEL_CALLS)
        result[f"model.kernel_ns.{name}"] = statistics.median(times)
    return result


def machine() -> dict:
    """Where the numbers come from: cores, versions, source revision, cache."""
    package = SRC / "pairgate"
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
        commit = with_git.stdout.strip() or None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "last_level_cache": _last_level_cache(),
    }


def _last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in os.listdir(base):
            if entry.startswith("index"):
                with open(f"{base}/{entry}/level") as level, open(f"{base}/{entry}/size") as size:
                    candidate = (int(level.read()), size.read().strip())
                best = max(best, candidate) if best else candidate
    except OSError:
        return None
    return f"L{best[0]} {best[1]}" if best else None


# --------------------------------------------------------------------------
# span-derived metrics
# --------------------------------------------------------------------------

def span_metrics(passes) -> dict:
    """passes: [(samples, spans)] of the traced passes over the same round."""
    ops = sum(len(samples) for samples, _ in passes)
    per_op = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    integrate_ns = integrate_steps = 0
    for _, spans in passes:
        for span in spans:
            name = span["name"]
            for metric, names in TIMED.items():
                if name in names:
                    per_op[metric] = per_op.get(metric, 0) + span["dur_ns"]
            layer = name.partition(".")[0]
            if layer in self_ns:
                self_ns[layer] += span["self_ns"]
            if name == "oracle.integrate":
                integrate_ns += span["dur_ns"]
                integrate_steps += span["work"]
    metrics = {metric: per_op.get(metric, 0) / ops / 1e6 for metric in TIMED}
    metrics.update({f"{layer}.self_ms": self_ns[layer] / ops / 1e6 for layer in LAYERS})
    metrics["oracle.ns_per_step"] = integrate_ns / integrate_steps if integrate_steps else 0.0

    samples, spans = passes[0]  # counts from one pass: the round is identical in every pass

    def total(field, *names):
        return sum(span[field] for span in spans if span["name"] in names)

    metrics["cli.emit_bytes"] = total("work", "cli._emit")
    metrics["units.parse_calls"] = total("count", *TIMED["units.parse_ms"])
    metrics["materials.catalog_loads"] = total("count", "materials.load_catalog")
    for name in MODEL_CALLS:
        metrics[f"model.calls.{name}"] = total("count", f"model.{name}")
    metrics["oracle.rk4_steps"] = total("work", "oracle.integrate")

    pump_ops = {index for index, sample in enumerate(samples) if sample.op.pump_sweep}
    points = sum(samples[i].outcome.points for i in pump_ops if samples[i].outcome)
    drives = sum(span["count"] for span in spans
                 if span["name"] == "model.PumpDrive" and span["op"] % len(samples) in pump_ops)
    metrics["model.pumpdrive_per_point"] = drives / points if points else 0.0
    return metrics
