"""The benchmark's three workloads: seeded operation generators and runners.

Each workload is a sequence of rounds. A round has a fixed composition (which
subcommands, sweep sizes, step counts) and the seed draws everything else:
physical values, formats, catalogs, output targets and order. A fixed
composition keeps the median and the tail of a run from depending on which
mix the seed happened to draw; the drawn values still differ per seed and
per round.

    cli_oneshot   one `python -m pairgate.cli ARGV` process per operation
    sweep_bulk    one in-process `pairgate.cli.main(["sweep", ...])` per operation
    oracle_scan   one in-process `pairgate.oracle.oracle_pair_flux(...)` per operation

All three are closed loops with one client: the next operation starts when
the previous one has returned and been checked.

Draws that hit a known defect of the program (ROADMAP items 2 and 3) are not
part of the workloads, whose operations must all pass. Each workload lists
them as `known_defect_probes()`: the benchmark runs and checks them once per
run, untimed, and reports their failures next to the result.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 60.0

# sweep_bulk: --count on a log-uniform grid over [1e2, 1e5]. Only the
# pump_intensity sweep, the costliest per point, runs at 1e5: one such call
# per round keeps a round short enough for a run to hold 12 of them, so the
# median (the beta_l sweep of 1585 points) and the tail (inside the 1e5
# group) each rest on a dozen samples of one kind of call.
SWEEP_COUNTS = tuple(round(10 ** (2 + 0.6 * j)) for j in range(6))
SWEEP_VARIABLES = ("beta_l", "length", "pump_intensity")
SWEEP_LARGEST_VARIABLE = "pump_intensity"

# oracle_scan: per process and round, steps 2:2:10 from 1024, 4096 and
# 16384, so the median operation sits well inside the 16384-step group (an
# 11 ms call: long enough that scheduler interruptions average out); one
# 65536-step call per process every ORACLE_LONG_EVERY rounds, so a run holds
# a couple of dozen and its tail (10 samples beyond) lies inside that group
# rather than at its most burst-prone extreme.
ORACLE_STEPS = (1024,) * 2 + (4096,) * 2 + (16384,) * 10
ORACLE_LONG_STEPS = 65536
ORACLE_LONG_EVERY = 6
ORACLE_LOG10_BETA_L = (-3.0, 2.0)
ORACLE_CLI_STRATA = 5  # cli_oneshot: one oracle call per round, beta*L stratum by round

# Known defect (ROADMAP item 2): the oracle subtracts the vacuum seed from the
# total field, so below beta*L ~ 1e-6 at 1024 steps (~1e-4 at 65536) the
# generated part is lost to rounding and the result leaves its RK4 bound.
# At beta*L >= 1e-3 the error stays two orders below the bound at every step
# count drawn. The spontaneous regime under that is probed, not timed.
DEFECT_LOG10_BETA_L = (-12.0, -3.0)

FIGURES = {
    "2": (["beta_l", "pairs_per_bandwidth"], (0.0, 6.0, 121, False), None),
    "3": (["length_m"] + [f"gamma_W_per_m2_chi2_{label}" for label in ("1pm_V", "10pm_V", "100pm_V")],
          (1e-3, 1.0, 61, True), ("spdc", (1e-12, 1e-11, 1e-10))),
    "4": (["length_m"] + [f"gamma_W_per_m2_chi3_{label}"
                          for label in ("1e-22m2_V2", "1e-20m2_V2", "1e-18m2_V2")],
          (1e-3, 1e3, 121, True), ("fwm", (1e-22, 1e-20, 1e-18))),
}
DEFAULT_LAMBDAS = (1e-6, 1e-6)


class Op:
    """One benchmark operation: what to run and how to check its result.

    `check(code, stdout, stderr)` raises checks.CheckFailed or returns an
    Outcome. `kind` names the subcommand, "invalid" or "oracle_call".
    """

    __slots__ = ("kind", "argv", "check", "out", "pump_sweep", "call")

    def __init__(self, kind, check, argv=None, out=None, pump_sweep=False, call=None):
        self.kind, self.check, self.argv, self.out = kind, check, argv, out
        self.pump_sweep, self.call = pump_sweep, call


class Outcome:
    __slots__ = ("points", "rel_err", "out_of_bound", "rk4_steps")

    def __init__(self, points=1, rel_err=None, out_of_bound=False, rk4_steps=0):
        self.points, self.rel_err = points, rel_err
        self.out_of_bound, self.rk4_steps = out_of_bound, rk4_steps


# --------------------------------------------------------------------------
# drawing inputs
# --------------------------------------------------------------------------

def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def quantity(value: float, unit: str, factor: float) -> tuple[str, float]:
    """CLI text for a value in `unit`, and the SI value the CLI will derive from it."""
    return f"{value!r}{unit}", float(repr(value)) * factor


class Medium:
    """A medium as the CLI will resolve it, plus the flags that select it."""

    def __init__(self, process, chi, n, flags):
        self.process, self.chi, self.n, self.flags = process, chi, n, flags


def draw_medium(rng, catalog=None, sources=("chi2", "chi3", "builtin"), overrides=False) -> Medium:
    source = rng.choice(sources)
    if source == "chi2":
        text, chi = quantity(log_uniform(rng, 0.5, 50.0), "pm/V", 1e-12)
        medium = Medium("spdc", chi, (1.0, 1.0, 1.0), ["--chi2", text])
    elif source == "chi3":
        text, chi = quantity(log_uniform(rng, 1e-22, 1e-19), "m2/V2", 1.0)
        medium = Medium("fwm", chi, (1.0, 1.0, 1.0), ["--chi3", text])
    else:
        table = checks.BUILTIN_MATERIALS if source == "builtin" else catalog.materials
        name = rng.choice(sorted(table))
        process, chi, *n = table[name]
        flags = ["--material", name] + ([] if source == "builtin" else ["--materials", catalog.path])
        medium = Medium(process, chi, tuple(n) if n else (1.0, 1.0, 1.0), flags)
    if overrides and rng.random() < 0.4:
        n = [round(rng.uniform(1.0, 2.3), 4) for _ in range(3)]
        medium.n = tuple(n)
        medium.flags += ["--n-p", repr(n[0]), "--n-s", repr(n[1]), "--n-i", repr(n[2])]
    return medium


def draw_lambdas(rng) -> tuple[list[str], tuple[float, float]]:
    choice = rng.randrange(4)
    if choice == 0:
        return [], DEFAULT_LAMBDAS
    pairs = {1: ((1550.0, "nm", 1e-9), (1550.0, "nm", 1e-9)),
             2: ((810.0, "nm", 1e-9), (1620.0, "nm", 1e-9)),
             3: ((0.8, "um", 1e-6), (1.2, "um", 1e-6))}[choice]
    (s_text, s), (i_text, i) = (quantity(*p) for p in pairs)
    return ["--lambda-s", s_text, "--lambda-i", i_text], (s, i)


class Catalog:
    """The --materials file cli_oneshot writes during set-up."""

    def __init__(self, rng, workdir: Path):
        self.path = str(workdir / "materials.txt")
        spdc_chi = round(log_uniform(rng, 1.0, 30.0), 3)
        fwm_chi = float(f"{log_uniform(rng, 1e-22, 1e-20):.3e}")
        n_spdc = [round(rng.uniform(1.5, 2.3), 4) for _ in range(3)]
        n_fwm = [round(rng.uniform(1.4, 1.5), 4) for _ in range(3)]
        self.materials = {
            "bench_ppln": ("spdc", spdc_chi * 1e-12, *n_spdc),
            "bench_hnlf": ("fwm", fwm_chi, *n_fwm),
        }
        blocks = [
            ("bench_ppln", "spdc", f"{spdc_chi!r} pm/V", n_spdc),
            ("bench_hnlf", "fwm", f"{fwm_chi!r} m2/V2", n_fwm),
        ]
        text = "# benchmark catalog\n"
        for name, process, chi_text, n in blocks:
            text += (f"\n[{name}]\nprocess = {process}\nchi_eff = {chi_text}\n"
                     f"n_p = {n[0]!r}\nn_s = {n[1]!r}\nn_i = {n[2]!r}\nnote = benchmark record\n")
        Path(self.path).write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# checks shared by the CLI workloads
# --------------------------------------------------------------------------

def _read_output(op: Op, stdout: str) -> str:
    if op.out is None:
        return stdout
    if stdout:
        raise checks.CheckFailed("output went to stdout despite --out")
    try:
        with open(op.out, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise checks.CheckFailed(f"--out file unreadable: {exc}") from exc


def _valid(op: Op, code, stderr: str) -> None:
    if code != 0:
        raise checks.CheckFailed(f"exit code {code}, expected 0: {stderr.strip()[:200]}")
    if stderr:
        raise checks.CheckFailed(f"unexpected stderr: {stderr.strip()[:200]}")


def scalar_op(command, argv, fmt, out, expect_fn, oracle_case=None) -> Op:
    """A one-row report; expect_fn() builds the expected columns at check time."""
    def check(code, stdout, stderr):
        _valid(op, code, stderr)
        expect = expect_fn()
        result = Outcome()
        if oracle_case is not None:
            beta_l, steps, delta_nu = oracle_case

            def oracle_value(value):
                result.rel_err = checks.oracle_rel_error(value, beta_l, delta_nu)
                result.rk4_steps = steps
                if not result.rel_err <= checks.oracle_tolerance(beta_l, steps):
                    result.out_of_bound = True
                    raise checks.OracleOutOfBound(
                        f"oracle rel err {result.rel_err:.3e} > bound "
                        f"{checks.oracle_tolerance(beta_l, steps):.3e} at beta_l={beta_l:.3e}, steps={steps}",
                        result)

            expect["oracle_pairs_per_s"] = oracle_value
            expect["relative_error"] = lambda value: None  # derived from the two columns above
        checks.check_scalar(command, fmt, _read_output(op, stdout), expect)
        return result

    argv = argv + ["--format", fmt] + (["--out", out] if out else [])
    op = Op(command, check, argv, out)
    return op


def sweep_op(argv, out, header, grid, row_reference, sample, pump_sweep=False) -> Op:
    def check(code, stdout, stderr):
        _valid(op, code, stderr)
        rows = checks.check_sweep(_read_output(op, stdout), header, grid, row_reference, sample)
        return Outcome(points=rows)

    op = Op("sweep", check, argv + (["--out", out] if out else []), out, pump_sweep)
    return op


def invalid_op(argv) -> Op:
    def check(code, stdout, stderr):
        checks.check_one_line_error(code, stdout, stderr)
        return Outcome(points=0)

    return Op("invalid", check, argv)


def figure_op(figure: str, out) -> Op:
    header, grid, media = FIGURES[figure]
    if media is None:
        def row_reference(x):
            return [checks.pairs_per_bandwidth(x)]
    else:
        process, chis = media

        def row_reference(x):
            return [checks.effective_limit(process, chi, (1.0, 1.0, 1.0), DEFAULT_LAMBDAS, x)
                    for chi in chis]
    return sweep_op(["sweep", "--figure", figure], out, header, grid, row_reference, [])


def explicit_sweep_op(rng, variable, count, out, log, with_delta_nu, sample_size=32) -> Op:
    """`sweep --variable ...` with seeded ranges, medium and linewidth."""
    argv = ["sweep", "--variable", variable, "--count", str(count), "--scale", "log" if log else "linear"]
    delta_nu = None
    if with_delta_nu:
        text, delta_nu = quantity(log_uniform(rng, 0.01, 100.0), "GHz", 1e9)
        argv += ["--delta-nu", text]

    def flux_columns(beta_l):
        columns = [checks.pairs_per_bandwidth(beta_l)]
        return columns + ([checks.pair_flux(beta_l, delta_nu)] if delta_nu is not None else [])

    flux_header = ["pairs_per_bandwidth"] + (["pairs_per_s"] if delta_nu is not None else [])
    if variable == "beta_l":
        lo = log_uniform(rng, 1e-12, 1e-3) if log else rng.uniform(0.0, 2.0)
        hi = log_uniform(rng, 1.0, 100.0) if log else lo + log_uniform(rng, 0.5, 50.0)
        (lo_text, lo), (hi_text, hi) = quantity(lo, "", 1.0), quantity(hi, "", 1.0)
        header, row_reference = ["beta_l"] + flux_header, flux_columns
    elif variable == "length":
        medium = draw_medium(rng)
        lambda_flags, lambdas = draw_lambdas(rng)
        argv += medium.flags + lambda_flags
        lo = log_uniform(rng, 0.1, 10.0)
        (lo_text, lo), (hi_text, hi) = (quantity(lo, "mm", 1e-3),
                                        quantity(lo + log_uniform(rng, 1.0, 1000.0), "mm", 1e-3))
        header = ["length_m", "gamma_W_per_m2"]

        def row_reference(x):
            return [checks.effective_limit(medium.process, medium.chi, medium.n, lambdas, x)]
    else:
        medium = draw_medium(rng)
        lambda_flags, lambdas = draw_lambdas(rng)
        length_text, length = quantity(log_uniform(rng, 1.0, 50.0), "mm", 1e-3)
        argv += medium.flags + lambda_flags + ["--length", length_text]
        top = checks.intensity_for_beta_l(medium.process, medium.chi, medium.n, lambdas, length,
                                          log_uniform(rng, 0.1, 30.0))
        bottom = top * (10.0 ** -rng.uniform(1.0, 4.0) if log else rng.uniform(0.0, 0.5))
        (lo_text, lo), (hi_text, hi) = quantity(bottom / 1e10, "MW/cm2", 1e10), \
            quantity(top / 1e10, "MW/cm2", 1e10)
        header = ["pump_intensity_W_per_m2", "beta_l"] + flux_header

        def row_reference(x):
            field = checks.pump_field(x, medium.n[0])
            beta_l = checks.beta_l_from_field(medium.process, medium.chi, medium.n, lambdas, length, field)
            return [beta_l] + flux_columns(beta_l)
    argv += ["--min", lo_text, "--max", hi_text]
    sample = [rng.randrange(count) for _ in range(sample_size)]
    return sweep_op(argv, out, header, (lo, hi, count, log), row_reference, sample,
                    pump_sweep=variable == "pump_intensity")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    name = ""
    in_process = True
    round_seconds = 1.0  # nominal time of one round; a run of S seconds measures S/round_seconds rounds

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self._next_out = 0

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def out_path(self) -> str:
        self._next_out += 1
        return str(self.workdir / f"out-{self._next_out}.txt")

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def known_defect_probes(self) -> list[Op]:
        """Operations that fail because of a known defect of the program."""
        return []


class CliOneshot(Workload):
    """All six subcommands, table and csv, built-in and file catalogs, stdout
    and --out, plus one invalid input of each documented kind per round."""

    name = "cli_oneshot"
    in_process = False
    round_seconds = 5.0
    SLOTS = ("criteria", "classify_chi", "classify_material", "flux_beta", "flux_physical",
             "limit_chi", "limit_material", "sweep_figure", "sweep_beta", "sweep_length",
             "sweep_pump", "oracle", "bad_unit", "unknown_material", "negative_value")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.catalog = Catalog(random.Random(f"{self.name}:{seed}:catalog"), workdir)

    def round(self, index):
        # Choices that change an operation's cost or outcome class (figure,
        # invalid-input shape, oracle steps and beta*L stratum) rotate with
        # the round index, so runs of equal length have equal composition.
        self._round = index
        rng = self.rng(index)
        ops = [getattr(self, f"_{slot}")(rng) for slot in self.SLOTS]
        rng.shuffle(ops)
        return ops

    def _rotate(self, choices):
        return choices[self._round % len(choices)]

    def _fmt_out(self, rng):
        return rng.choice(("table", "csv")), (self.out_path() if rng.random() < 0.5 else None)

    def _medium(self, rng, material):
        sources = ("builtin", "file") if material else ("chi2", "chi3")
        return draw_medium(rng, self.catalog, sources, overrides=True)

    def _criteria(self, rng):
        fmt, out = self._fmt_out(rng)
        names = ("pairs_per_bandwidth_limit", "photons_per_bandwidth_limit", "field_ratio_limit")
        return scalar_op("criteria", ["criteria"], fmt, out, lambda: dict(zip(names, checks.criteria())))

    def _classify(self, rng, material):
        fmt, out = self._fmt_out(rng)
        medium = self._medium(rng, material)
        lambda_flags, lambdas = draw_lambdas(rng)
        length_text, length = quantity(log_uniform(rng, 0.1, 100.0), "mm", 1e-3)
        target = log_uniform(rng, 1e-6, 30.0)
        argv = ["classify"] + medium.flags + lambda_flags + ["--length", length_text]
        if rng.random() < 0.5:
            intensity = checks.intensity_for_beta_l(medium.process, medium.chi, medium.n, lambdas,
                                                    length, target)
            text, intensity = quantity(intensity / 1e10, "MW/cm2", 1e10)
            argv += ["--pump-intensity", text]
            field = checks.pump_field(intensity, medium.n[0])
        else:
            field = checks.field_for_beta_l(medium.process, medium.chi, medium.n, lambdas, length, target)
            text, field = quantity(field / 1e6, "MV/m", 1e6)
            argv += ["--pump-field", text]
        band = checks.AT_LIMIT_BAND
        if rng.random() < 0.3:
            band = round(rng.uniform(0.005, 0.2), 3)
            argv += ["--band", repr(band)]
        section = delta_nu = None
        if rng.random() < 0.5:
            section_text, section = quantity(log_uniform(rng, 1.0, 1e4), "um2", 1e-12)
            nu_text, delta_nu = quantity(log_uniform(rng, 1.0, 1e3), "MHz", 1e6)
            argv += ["--section", section_text, "--delta-nu", nu_text]

        def expect():
            beta_l = checks.beta_l_from_field(medium.process, medium.chi, medium.n, lambdas, length, field)
            result = {"beta_l": beta_l, "regime": checks.regime(beta_l, band),
                      "pairs_per_bandwidth": checks.pairs_per_bandwidth(beta_l),
                      "field_ratio": math.expm1(beta_l)}
            if section is not None:
                vacuum = checks.vacuum_field(lambdas[0], medium.n[1], section, delta_nu)
                result["vacuum_field_V_per_m"] = vacuum
                result["generated_field_V_per_m"] = vacuum * math.expm1(beta_l)
            return result

        return scalar_op("classify", argv, fmt, out, expect)

    def _classify_chi(self, rng):
        return self._classify(rng, material=False)

    def _classify_material(self, rng):
        return self._classify(rng, material=True)

    def _flux_beta(self, rng):
        fmt, out = self._fmt_out(rng)
        beta_l = float(repr(log_uniform(rng, 1e-12, 100.0)))
        nu_text, delta_nu = quantity(log_uniform(rng, 1.0, 1e3), "MHz", 1e6)
        argv = ["flux", "--beta-l", repr(beta_l), "--delta-nu", nu_text]
        return scalar_op("flux", argv, fmt, out, lambda: {
            "beta_l": beta_l, "delta_nu_Hz": delta_nu, "pairs_per_s": checks.pair_flux(beta_l, delta_nu)})

    def _flux_physical(self, rng):
        fmt, out = self._fmt_out(rng)
        medium = self._medium(rng, material=rng.random() < 0.5)
        lambda_flags, lambdas = draw_lambdas(rng)
        length_text, length = quantity(log_uniform(rng, 0.1, 100.0), "mm", 1e-3)
        intensity = checks.intensity_for_beta_l(medium.process, medium.chi, medium.n, lambdas, length,
                                                log_uniform(rng, 1e-6, 30.0))
        text, intensity = quantity(intensity / 1e10, "MW/cm2", 1e10)
        nu_text, delta_nu = quantity(log_uniform(rng, 1.0, 1e3), "MHz", 1e6)
        argv = (["flux"] + medium.flags + lambda_flags
                + ["--length", length_text, "--pump-intensity", text, "--delta-nu", nu_text])

        def expect():
            beta_l = checks.beta_l_from_field(medium.process, medium.chi, medium.n, lambdas, length,
                                              checks.pump_field(intensity, medium.n[0]))
            return {"beta_l": beta_l, "delta_nu_Hz": delta_nu,
                    "pairs_per_s": checks.pair_flux(beta_l, delta_nu)}

        return scalar_op("flux", argv, fmt, out, expect)

    def _limit(self, rng, material):
        fmt, out = self._fmt_out(rng)
        medium = self._medium(rng, material)
        lambda_flags, lambdas = draw_lambdas(rng)
        length_text, length = quantity(log_uniform(rng, 0.1, 1e4), "mm", 1e-3)
        argv = ["limit"] + medium.flags + lambda_flags + ["--length", length_text]
        args = (medium.process, medium.chi, medium.n, lambdas, length)
        return scalar_op("limit", argv, fmt, out, lambda: {
            "process": medium.process, "length_m": length, "lambda_s_m": lambdas[0],
            "lambda_i_m": lambdas[1], "chi_eff_si": medium.chi,
            "limit_intensity_W_per_m2": checks.limit_intensity(*args),
            "effective_limit_W_per_m2": checks.effective_limit(*args)})

    def _limit_chi(self, rng):
        return self._limit(rng, material=False)

    def _limit_material(self, rng):
        return self._limit(rng, material=True)

    def _sweep_figure(self, rng):
        return figure_op(self._rotate(sorted(FIGURES)), self._fmt_out(rng)[1])

    def _sweep(self, rng, variable):
        count = {"beta_l": 200, "length": 50, "pump_intensity": 120}[variable]
        with_delta_nu = variable != "length" and rng.random() < 0.5
        return explicit_sweep_op(rng, variable, count, self._fmt_out(rng)[1], rng.random() < 0.5,
                                 with_delta_nu, sample_size=8)

    def _sweep_beta(self, rng):
        return self._sweep(rng, "beta_l")

    def _sweep_length(self, rng):
        return self._sweep(rng, "length")

    def _sweep_pump(self, rng):
        return self._sweep(rng, "pump_intensity")

    def _oracle(self, rng):
        lo, hi = ORACLE_LOG10_BETA_L
        stratum = self._round % ORACLE_CLI_STRATA
        beta_l = float(repr(10.0 ** (lo + (hi - lo) * (stratum + rng.random()) / ORACLE_CLI_STRATA)))
        return self._oracle_op(rng, beta_l, self._rotate((1024, 4096)))

    def _oracle_op(self, rng, beta_l, steps):
        fmt, out = self._fmt_out(rng)
        argv = ["oracle", "--beta-l", repr(beta_l), "--steps", str(steps)]
        delta_nu = 1.0
        if rng.random() < 0.5:
            nu_text, delta_nu = quantity(log_uniform(rng, 1.0, 1e3), "MHz", 1e6)
            argv += ["--delta-nu", nu_text]
        return scalar_op("oracle", argv, fmt, out, lambda: {
            "beta_l": beta_l, "steps": str(steps),
            "analytic_pairs_per_s": checks.pair_flux(beta_l, delta_nu)},
            oracle_case=(beta_l, steps, delta_nu))

    # invalid inputs the README says must exit 2
    def _bad_unit(self, rng):
        value = repr(round(rng.uniform(1.0, 99.0), 2))
        return invalid_op(self._rotate((
            ["sweep", "--variable", "length", "--min", value + "parsec", "--max", "1m", "--chi2", "1pm/V"],
            ["sweep", "--variable", "length", "--min", "1mm", "--max", value + "furlong", "--chi2", "1pm/V"],
            ["sweep", "--variable", "pump_intensity", "--min", value + "MW/in2", "--max", "5GW/cm2",
             "--chi2", "1pm/V", "--length", "1cm"],
        )))

    def _unknown_material(self, rng):
        name = rng.choice(("Unobtainium", "KTP", "ppktp_class", "silica", "BBO_class"))
        argv = ["limit", "--material", name, "--length", "1cm"]
        return invalid_op(argv + (["--materials", self.catalog.path] if rng.random() < 0.5 else []))

    def _negative_value(self, rng):
        value = repr(round(rng.uniform(0.01, 10.0), 3))
        return invalid_op(self._rotate((
            ["flux", "--beta-l", "-" + value, "--delta-nu", "1GHz"],
            ["limit", "--chi2", "1pm/V", f"--length=-{value}cm"],
            ["classify", "--chi2", "1pm/V", "--length", "1cm", f"--pump-intensity=-{value}MW/cm2"],
            ["oracle", "--beta-l", "-" + value],
        )))

    def known_defect_probes(self):
        """Invalid input that argparse rejects (usage block plus error: 4 to 9
        stderr lines, not one; ROADMAP item 3), and oracle calls in the
        spontaneous regime (ROADMAP item 2)."""
        rng = random.Random(f"{self.name}:{self.seed}:probes")
        value = repr(round(rng.uniform(1.0, 9.0), 2))
        ops = [invalid_op(argv) for argv in (
            ["limit", "--chi2", "1pm/V", "--length", value + "furlong"],
            ["flux", "--beta-l", "1", "--delta-nu", value + "Gbps"],
            ["classify", "--chi2", "1pm/V", "--length", "1cm", "--pump-intensity", value + "MW/in2"],
            ["sweep", "--variable", "beta_l", "--min", "0", "--max", "1", "--count", "-" + value[0]],
            ["oracle", "--beta-l", "1", "--steps", "-" + value[0]],
        )]
        lo, hi = DEFECT_LOG10_BETA_L
        for stratum, steps in enumerate((1024, 4096)):
            beta_l = float(repr(10.0 ** (lo + (hi - lo) * (stratum + rng.random()) / 2)))
            ops.append(self._oracle_op(rng, beta_l, steps))
        return ops


class SweepBulk(Workload):
    """Every (variable, count) pair once per round, plus the three figures.

    Scale and --delta-nu, which change the cost per point, alternate by a
    fixed pattern over the (variable, count) pairs, so every round costs the
    same; the seed draws ranges, media, wavelengths, linewidths and order."""

    name = "sweep_bulk"
    round_seconds = 2.0

    def round(self, index):
        rng = self.rng(index)
        ops = [figure_op(figure, self.out_path()) for figure in sorted(FIGURES)]
        for v, variable in enumerate(SWEEP_VARIABLES):
            for j, count in enumerate(SWEEP_COUNTS):
                if count == SWEEP_COUNTS[-1] and variable != SWEEP_LARGEST_VARIABLE:
                    continue
                log, with_delta_nu = (j + v) % 2 == 1, variable != "length" and (j // 2 + v) % 2 == 0
                ops.append(explicit_sweep_op(rng, variable, count, self.out_path(), log, with_delta_nu))
        rng.shuffle(ops)
        return ops


class OracleScan(Workload):
    """SPDC and FWM, steps from ORACLE_STEPS (and ORACLE_LONG_STEPS every
    ORACLE_LONG_EVERY rounds), beta*L stratified log-uniformly over
    [1e-3, 1e2], one stratum per operation."""

    name = "oracle_scan"
    round_seconds = 0.34

    def round(self, index):
        rng = self.rng(index)
        steps_drawn = ORACLE_STEPS + ((ORACLE_LONG_STEPS,) if index % ORACLE_LONG_EVERY == 0 else ())
        cases = [(process, steps) for process in ("spdc", "fwm") for steps in steps_drawn]
        lo, hi = ORACLE_LOG10_BETA_L
        strata = list(range(len(cases)))
        rng.shuffle(strata)
        ops = []
        for (process, steps), stratum in zip(cases, strata):
            beta_l = 10.0 ** (lo + (hi - lo) * (stratum + rng.random()) / len(cases))
            ops.append(self._case(rng, process, steps, beta_l))
        rng.shuffle(ops)
        return ops

    def known_defect_probes(self):
        """SPDC and FWM at every step count, beta*L stratified over the
        spontaneous regime below the workload's range (ROADMAP item 2)."""
        rng = random.Random(f"{self.name}:{self.seed}:probes")
        cases = [(process, steps) for process in ("spdc", "fwm")
                 for steps in sorted(set(ORACLE_STEPS)) + [ORACLE_LONG_STEPS]]
        lo, hi = DEFECT_LOG10_BETA_L
        return [self._case(rng, process, steps, 10.0 ** (lo + (hi - lo) * (k + rng.random()) / len(cases)))
                for k, (process, steps) in enumerate(cases)]

    @staticmethod
    def _case(rng, process, steps, beta_l) -> Op:
        chi = log_uniform(rng, 1e-12, 1e-10) if process == "spdc" else log_uniform(rng, 1e-22, 1e-19)
        n = tuple(rng.uniform(1.0, 2.3) for _ in range(3))
        lambdas = (rng.uniform(0.7e-6, 1.6e-6), rng.uniform(0.7e-6, 1.6e-6))
        length = log_uniform(rng, 1e-4, 1e-1)
        call = {
            "process": process, "chi": chi, "n": n, "lambdas": lambdas, "length": length,
            "section": log_uniform(rng, 1e-12, 1e-8), "delta_nu": log_uniform(rng, 1e6, 1e12),
            "steps": steps, "beta_l": beta_l,
            "field": checks.field_for_beta_l(process, chi, n, lambdas, length, beta_l),
        }

        def check(code, value, error):
            if error:
                raise checks.CheckFailed(error)
            rel_err = checks.oracle_rel_error(value, beta_l, call["delta_nu"])
            bound = checks.oracle_tolerance(beta_l, steps)
            outcome = Outcome(points=steps, rel_err=rel_err, rk4_steps=steps,
                              out_of_bound=not rel_err <= bound)
            if outcome.out_of_bound:
                raise checks.OracleOutOfBound(
                    f"oracle rel err {rel_err:.3e} > bound {bound:.3e} at beta_l={beta_l:.3e}, "
                    f"steps={steps}", outcome)
            return outcome

        return Op("oracle_call", check, call=call)


WORKLOADS = {w.name: w for w in (CliOneshot, SweepBulk, OracleScan)}


# --------------------------------------------------------------------------
# running one operation
# --------------------------------------------------------------------------

class Sample:
    """A measured operation: start and end (perf_counter ns), CPU time (s),
    peak RSS (KiB), whether its output passed, why not, and its outcome."""

    __slots__ = ("op", "start", "end", "cpu", "rss_kib", "ok", "reason", "outcome")

    def __init__(self, op, start, end, cpu, rss_kib, judged):
        self.op, self.start, self.end, self.cpu, self.rss_kib = op, start, end, cpu, rss_kib
        self.ok, self.reason, self.outcome = judged

    @property
    def wall(self) -> float:
        return (self.end - self.start) / 1e9


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PAIRGATE_MATERIALS", None)
    return env


def wait_child(cmd, env, cwd, stdout_path, stderr_path):
    """Run a process to completion; returns (exit code, start_ns, end_ns, rusage).

    The child is reaped with os.wait4 for its own CPU time and peak RSS. A
    watchdog kills it after CHILD_TIMEOUT_S so a hung child cannot stall the run.
    """
    box = []
    watchdog = threading.Timer(CHILD_TIMEOUT_S, lambda: box and box[0].returncode is None and box[0].kill())
    watchdog.start()
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
            box.append(proc)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage
    finally:
        watchdog.cancel()
        watchdog.join()


def _judge(op, *result) -> tuple[bool, str, Outcome]:
    try:
        return True, "", op.check(*result)
    except checks.OracleOutOfBound as exc:
        return False, str(exc), exc.outcome
    except checks.CheckFailed as exc:
        return False, str(exc), None
    except (ValueError, IndexError, KeyError) as exc:
        return False, f"unparseable output: {type(exc).__name__}: {exc}", None


def run_cli_process(op: Op, workdir: Path, env: dict, command: list[str]) -> Sample:
    stdout_path, stderr_path = workdir / "stdout.txt", workdir / "stderr.txt"
    code, start, end, usage = wait_child(command + op.argv, env, workdir, stdout_path, stderr_path)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    judged = _judge(op, code, stdout, stderr)
    _remove(op.out)
    return Sample(op, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, judged)


def run_cli_in_process(op: Op, cli) -> Sample:
    """Call cli.main (looked up per call, so a traced wrapper takes effect)."""
    gc.collect()  # each sweep starts from the same collector state, whatever ran before
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        cpu = time.process_time()
        start = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        cpu = time.process_time() - cpu
    judged = _judge(op, code, "", stderr.getvalue())
    _remove(op.out)
    return Sample(op, start, end, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, judged)


def build_oracle_call(call: dict):
    from pairgate import model, oracle

    process = model.Process(call["process"])
    n_p, n_s, n_i = call["n"]
    return (
        model.Medium(process=process, chi_eff=call["chi"], n_p=n_p, n_s=n_s, n_i=n_i),
        model.triplet_from_wavelengths(*call["lambdas"], process),
        model.PumpDrive.from_field(call["field"]),
        model.Geometry(length=call["length"], section=call["section"]),
        model.Bandwidth.from_delta_nu(call["delta_nu"]),
        oracle.IntegrationConfig(steps=call["steps"]),
    )


def run_oracle_call(op: Op) -> Sample:
    from pairgate import oracle

    args = build_oracle_call(op.call)
    value, error = math.nan, ""
    cpu = time.process_time()
    start = time.perf_counter_ns()
    try:
        value = oracle.oracle_pair_flux(*args)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    cpu = time.process_time() - cpu
    judged = _judge(op, None, value, error)
    return Sample(op, start, end, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, judged)


# --------------------------------------------------------------------------
# the yardstick: fixed work that tracks the host's speed
# --------------------------------------------------------------------------

YARDSTICK_LOOP = 25_000  # iterations of the in-process yardstick, about 2.5 ms


def yardstick_loop() -> tuple[float, float]:
    """A fixed pure-Python loop: (wall s, CPU s)."""
    cpu = time.process_time()
    start = time.perf_counter_ns()
    total = 0
    for i in range(YARDSTICK_LOOP):
        total += i * i % 7
    end = time.perf_counter_ns()
    return (end - start) / 1e9, time.process_time() - cpu


def yardstick_process(workdir: Path, env: dict) -> tuple[float, float]:
    """A bare interpreter start, `python -c pass`: (wall s, child CPU s)."""
    code, start, end, usage = wait_child([sys.executable, "-c", "pass"], env, workdir,
                                         workdir / "yard-out.txt", workdir / "yard-err.txt")
    if code != 0:
        raise RuntimeError(f"yardstick `{sys.executable} -c pass` exited {code}")
    return (end - start) / 1e9, usage.ru_utime + usage.ru_stime


def _remove(path) -> None:
    if path:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def setup_probe(name: str, seed: str, workdir: str) -> None:
    """What one set-up costs: import the program, then build the first round."""
    import pairgate.cli  # noqa: F401  (the import is the cost being measured)

    WORKLOADS[name](int(seed), Path(workdir)).round(0)


if __name__ == "__main__":
    setup_probe(*sys.argv[1:4])
