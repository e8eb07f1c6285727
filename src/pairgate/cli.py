"""pairgate command line: criteria | classify | flux | limit | sweep | oracle.

Every subcommand is a thin rendering over the library; no physics lives
here. Unit-suffixed quantities (532nm, 40MW/cm2, 1pm/V, ...) are parsed at
this boundary only. Exit codes: 0 success, 2 input validation, 3 I/O.

Scalar reports state each output once, as a column list that `_report`
prints as a table or as CSV; every renderer ends its text with a newline,
so `_emit` writes it unchanged to stdout or --out.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import model, oracle
from .materials import MATERIALS_ENV_VAR, lookup, resolve_catalog
from .model import (
    Arm,
    Bandwidth,
    Geometry,
    Medium,
    Process,
    PumpDrive,
    _check,
    triplet_from_wavelengths,
)
from .units import (
    format_intensity,
    format_sig,
    parse_area,
    parse_chi2,
    parse_chi3,
    parse_field,
    parse_frequency,
    parse_intensity,
    parse_length,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

DEFAULT_WAVELENGTH = 1e-6  # m, degenerate signal/idler default
MAX_SWEEP_POINTS = 10**6  # the grid is built whole (~32 MB at the cap); 10x the largest bench sweep
_MEDIUM_FLAGS = ("--material", "--materials", "--chi2", "--chi3", "--n-p", "--n-s", "--n-i")
_WAVE_FLAGS = ("--lambda-s", "--lambda-i")
ORACLE_REFERENCE = {
    "chi2": 1e-12,       # m/V
    "length": 1e-3,      # m
    "section": 1e-6,     # m^2
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, '<prog>: <message>', exit 2; a flag
    the chosen subcommand does not accept is reported under that subcommand's prog."""

    def error(self, message: str, prog: str | None = None):
        print(f"{prog or self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}",
                       f"{self.prog} {namespace.command}")
        return namespace


class SweepSpec(model._named_tuple("SweepSpec", "start stop count log", (False,))):
    """Axis of a parameter sweep; fixed parameters ride along via flags."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # every swept quantity (beta*L, length, pump intensity) is nonnegative
        if self.log and self.start <= 0:
            raise ValueError("log scale requires min > 0")
        _check("--min", self.start, inclusive=True)
        _check("--max", self.stop, inclusive=True)
        if not self.start < self.stop:
            raise ValueError("sweep requires min < max")
        if self.count < 2:
            raise ValueError("sweep requires at least 2 points")
        if self.count > MAX_SWEEP_POINTS:
            raise ValueError(
                f"--count must be <= MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}, got {self.count}")
        return self

    def grid(self) -> list[float]:
        """numpy.linspace's points, i*step + start with the last one exactly stop;
        a log grid is 10**x over that grid between the log10 endpoints."""
        start, stop = self.start, self.stop
        if self.log:
            start, stop = math.log10(start), math.log10(stop)
        div = self.count - 1
        step = (stop - start) / div
        if step:
            points = [i * step + start for i in range(div)] + [stop]
        else:  # a subnormal span whose step underflows: numpy scales i/div instead
            points = [i / div * (stop - start) + start for i in range(div)] + [stop]
        try:
            return [10.0 ** x for x in points] if self.log else points
        except OverflowError:
            raise ValueError(f"--max {self.stop!r} overflows a log grid") from None


def build_parser() -> argparse.ArgumentParser:
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", metavar="PATH", default=None,
                          help="write output to PATH instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[out_flag])
    common.add_argument("--format", choices=("table", "csv"), default="table",
                        help="output rendering for scalar reports")

    medium_flags = argparse.ArgumentParser(add_help=False)
    medium_flags.add_argument("--materials", metavar="PATH", default=None,
                              help=f"material catalog file for --material "
                                   f"(overrides ${MATERIALS_ENV_VAR} and presets)")
    medium_flags.add_argument("--material", help="material name from the catalog")
    medium_flags.add_argument("--chi2", type=parse_chi2, metavar="CHI",
                              help="second-order susceptibility, e.g. 1pm/V (implies spdc)")
    medium_flags.add_argument("--chi3", type=parse_chi3, metavar="CHI",
                              help="third-order susceptibility, e.g. 1e-22m2/V2 (implies fwm)")
    medium_flags.add_argument("--n-p", type=float, default=None, help="pump refractive index")
    medium_flags.add_argument("--n-s", type=float, default=None, help="signal refractive index")
    medium_flags.add_argument("--n-i", type=float, default=None, help="idler refractive index")

    wave_flags = argparse.ArgumentParser(add_help=False)
    wave_flags.add_argument("--lambda-s", type=parse_length, metavar="LEN",
                            help="signal wavelength (default 1um)")
    wave_flags.add_argument("--lambda-i", type=parse_length, metavar="LEN",
                            help="idler wavelength (default 1um)")

    pump_flags = argparse.ArgumentParser(add_help=False)
    pump_flags.add_argument("--pump-intensity", type=parse_intensity, metavar="I",
                            help="pump intensity, e.g. 40MW/cm2 (FWM: total of both pump waves)")
    pump_flags.add_argument("--pump-field", type=parse_field, metavar="E",
                            help="pump field amplitude, e.g. 5MV/m (alternative to intensity)")

    parser = _Parser(
        prog="pairgate",
        description="Photon-pair generation by SPDC/FWM: gain regimes, "
                    "universal limit criteria, limit pump intensities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("criteria", parents=[common],
                   help="print the universal limit criteria at beta*L = 1")

    p_classify = sub.add_parser("classify", parents=[common, medium_flags, wave_flags, pump_flags],
                                help="classify the operating regime of a configuration")
    p_classify.add_argument("--length", type=parse_length, metavar="LEN",
                            required=True, help="interaction length, e.g. 1cm")
    p_classify.add_argument("--section", type=parse_area, metavar="AREA",
                            default=None, help="overlap section, e.g. 1mm2 (enables field report)")
    p_classify.add_argument("--delta-nu", type=parse_frequency, metavar="BW",
                            default=None, help="pair linewidth, e.g. 1GHz (enables field report)")
    p_classify.add_argument("--band", type=float, default=0.01,
                            help="relative at-limit band on beta*L (default 0.01)")

    p_flux = sub.add_parser("flux", parents=[common, medium_flags, wave_flags, pump_flags],
                            help="absolute pair flux for a configuration or a given beta*L")
    p_flux.add_argument("--beta-l", type=float, default=None,
                        help="gain product beta*L (bypasses the medium/pump flags)")
    p_flux.add_argument("--length", type=parse_length, metavar="LEN", default=None,
                        help="interaction length (required without --beta-l)")
    p_flux.add_argument("--delta-nu", type=parse_frequency, metavar="BW",
                        required=True, help="pair linewidth, e.g. 1GHz")

    p_limit = sub.add_parser("limit", parents=[common, medium_flags, wave_flags],
                             help="limit pump intensity at which beta*L = 1")
    p_limit.add_argument("--length", type=parse_length, metavar="LEN",
                         required=True, help="interaction length, e.g. 1mm")

    p_sweep = sub.add_parser("sweep", parents=[out_flag, medium_flags, wave_flags],
                             help="CSV parameter sweeps, including figure presets")
    p_sweep.add_argument("--figure", choices=("2", "3", "4"), default=None,
                         help="preset sweep reproducing one of the reference figures")
    p_sweep.add_argument("--variable", choices=("beta_l", "length", "pump_intensity"),
                         help="swept variable for an explicit sweep")
    p_sweep.add_argument("--min", default=None,
                         help="sweep start (unit-suffixed for length/intensity)")
    p_sweep.add_argument("--max", default=None,
                         help="sweep stop (unit-suffixed for length/intensity)")
    p_sweep.add_argument("--count", type=int, help="number of points (default 101)")
    p_sweep.add_argument("--scale", choices=("linear", "log"), help="grid spacing (default linear)")
    p_sweep.add_argument("--length", type=parse_length, metavar="LEN", default=None,
                         help="fixed interaction length (pump_intensity sweeps)")
    p_sweep.add_argument("--delta-nu", type=parse_frequency, metavar="BW",
                         default=None, help="pair linewidth for flux columns")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="compare the RK4 coupled-wave oracle against the closed form")
    p_oracle.add_argument("--beta-l", type=float, required=True, help="gain product beta*L")
    p_oracle.add_argument("--steps", type=int, default=1024,
                          help="fixed RK4 step count (default 1024)")
    p_oracle.add_argument("--delta-nu", type=parse_frequency, metavar="BW",
                          default=1.0, help="pair linewidth (default 1Hz)")
    p_oracle.add_argument("--section", type=parse_area, metavar="AREA",
                          default=ORACLE_REFERENCE["section"],
                          help="overlap section of the reference scenario (default 1mm2)")

    return parser


# --------------------------------------------------------------------------
# assembly helpers (flags -> domain objects)
# --------------------------------------------------------------------------

def _build_medium(args) -> Medium:
    flags = {"--material": args.material, "--chi2": args.chi2, "--chi3": args.chi3}
    sources = [flag for flag, value in flags.items() if value is not None]
    if len(sources) != 1:
        raise ValueError(
            "specify exactly one medium source among --material, --chi2, --chi3"
            + (f" (got {', '.join(sources)})" if sources else "")
        )
    if args.material is not None:
        medium = lookup(resolve_catalog(args.materials), args.material).medium
    elif args.materials is not None:
        raise ValueError("--materials applies only with --material")
    elif args.chi2 is not None:
        medium = Medium(process=Process.SPDC, chi_eff=args.chi2)
    else:
        medium = Medium(process=Process.FWM, chi_eff=args.chi3)
    indices = {key: getattr(args, key) for key in ("n_p", "n_s", "n_i")}
    return medium._replace(**{k: v for k, v in indices.items() if v is not None})


def _wavelengths(args) -> tuple[float, float]:
    """--lambda-s and --lambda-i, each DEFAULT_WAVELENGTH when not given."""
    return tuple(DEFAULT_WAVELENGTH if x is None else x for x in (args.lambda_s, args.lambda_i))


def _build_triplet(args, process: Process) -> model.WaveTriplet:
    return triplet_from_wavelengths(*_wavelengths(args), process)


def _reject_unread(args, flags: tuple[str, ...], message: str) -> None:
    """Raises `message` for the first of `flags` given, a flag this path would not read."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(message.format(flag=flag))


def _build_pump(args) -> PumpDrive:
    if (args.pump_intensity is None) == (args.pump_field is None):
        raise ValueError("specify exactly one of --pump-intensity or --pump-field")
    return PumpDrive(intensity=args.pump_intensity, field_amplitude=args.pump_field)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _render_table(rows: list[tuple[str, str]]) -> str:
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key:<{width}}  {value}\n" for key, value in rows)


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)  # str(float) is its shortest repr
    return "\n".join(lines) + "\n"


def _report(args, columns: list[tuple]) -> str:
    """One scalar report in --format; a column is (csv name, value, table text[, table label])."""
    if args.format == "csv":
        return _render_csv([column[0] for column in columns], [[column[1] for column in columns]])
    return _render_table([(label[0] if label else name, text)
                          for name, _, text, *label in columns])


def _emit(text: str, args) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_criteria(args) -> str:
    crit = model.limit_criteria()
    names = ["pairs_per_bandwidth_limit", "photons_per_bandwidth_limit", "field_ratio_limit"]
    if args.format == "csv":
        return _render_csv(names, [list(crit)])
    return _render_table([("quantity", "value   exact")]
                         + [(name, f"{value:.3f}   {value!r}") for name, value in zip(names, crit)])


def cmd_classify(args) -> str:
    medium = _build_medium(args)
    triplet = _build_triplet(args, medium.process)
    pump = _build_pump(args)
    beta = model.gain_coefficient(medium, triplet, pump)
    report = model.classify_regime(beta * args.length, at_limit_band=args.band)

    columns = [
        ("beta_l", report.beta_l, format_sig(report.beta_l)),
        ("regime", report.regime.value, report.regime.value),
        ("pairs_per_bandwidth", report.pairs_per_bandwidth, format_sig(report.pairs_per_bandwidth)),
        ("field_ratio", report.field_ratio, format_sig(report.field_ratio)),
    ]
    if (args.section is None) != (args.delta_nu is None):
        raise ValueError("--section and --delta-nu go together")
    if args.section is not None:
        geometry = Geometry(length=args.length, section=args.section)
        bandwidth = Bandwidth.from_delta_nu(args.delta_nu)
        vac = model.vacuum_fluctuation(
            triplet.omega_s, medium.n_s, geometry.section, bandwidth.delta_omega
        )
        gen = model.generated_field(
            report.beta_l, triplet, medium, geometry, bandwidth, Arm.SIGNAL
        )
        columns += [
            ("vacuum_field_V_per_m", vac, f"{format_sig(vac)} V/m", "vacuum_field"),
            ("generated_field_V_per_m", gen, f"{format_sig(gen)} V/m", "generated_field"),
        ]
    return _report(args, columns)


def cmd_flux(args) -> str:
    if args.beta_l is not None:
        _reject_unread(args, ("--pump-intensity", "--pump-field", "--length") + _MEDIUM_FLAGS,
                       "--beta-l replaces the medium/pump/length flags; drop them")
        _reject_unread(args, _WAVE_FLAGS, "{flag} does not apply to a flux from --beta-l")
        beta_l = args.beta_l
    else:
        if args.length is None:
            raise ValueError("--length is required when --beta-l is not given")
        medium = _build_medium(args)
        triplet = _build_triplet(args, medium.process)
        pump = _build_pump(args)
        beta_l = model.gain_coefficient(medium, triplet, pump) * args.length

    pairs = model.pair_flux_reduced(beta_l, args.delta_nu)
    return _report(args, [
        ("beta_l", beta_l, format_sig(beta_l)),
        ("delta_nu_Hz", args.delta_nu, f"{format_sig(args.delta_nu)} Hz", "delta_nu"),
        ("pairs_per_s", pairs, format_sig(pairs)),
    ])


def cmd_limit(args) -> str:
    medium = _build_medium(args)
    lambda_s, lambda_i = _wavelengths(args)
    i_lim = model.limit_pump_intensity(medium, lambda_s, lambda_i, args.length)
    gamma = model.effective_limit_intensity(medium, lambda_s, lambda_i, args.length)
    chi_unit = "m/V" if medium.process is Process.SPDC else "m2/V2"
    return _report(args, [
        ("process", medium.process.value, medium.process.value),
        ("length_m", args.length, f"{format_sig(args.length)} m", "length"),
        ("lambda_s_m", lambda_s, f"{format_sig(lambda_s)} m", "lambda_s"),
        ("lambda_i_m", lambda_i, f"{format_sig(lambda_i)} m", "lambda_i"),
        ("chi_eff_si", medium.chi_eff, f"{format_sig(medium.chi_eff)} {chi_unit}", "chi_eff"),
        ("limit_intensity_W_per_m2", i_lim, f"{format_intensity(i_lim)}   ({i_lim!r} W/m2)",
         "limit_pump_intensity"),
        ("effective_limit_W_per_m2", gamma, f"{format_intensity(gamma)}   ({gamma!r} W/m2)",
         "effective_limit_gamma"),
    ])


def _flux_csv(header: list[str], rows: list[list[float]], delta_nu: float | None) -> str:
    """Renders rows ending in beta*L with pairs/Hz (and pairs/s given delta_nu) appended."""
    header = header + ["pairs_per_bandwidth"] + (["pairs_per_s"] if delta_nu is not None else [])
    for row in rows:
        beta_l = row[-1]
        row.append(model.pairs_per_bandwidth(beta_l))
        if delta_nu is not None:
            row.append(model.pair_flux_reduced(beta_l, delta_nu))
    return _render_csv(header, rows)


def _length_sweep(sweep: SweepSpec, media: list[Medium], lambda_s: float, lambda_i: float,
                  header: list[str]) -> str:
    """Effective limit intensity against length, one column per medium."""
    rows = [
        [length] + [model.effective_limit_intensity(m, lambda_s, lambda_i, length) for m in media]
        for length in sweep.grid()
    ]
    return _render_csv(header, rows)


def _figure_sweep(figure: str) -> str:
    # reference-figure presets: degenerate 1 um pair, unit indices
    if figure == "2":
        return _flux_csv(["beta_l"], [[x] for x in SweepSpec(0.0, 6.0, 121).grid()], None)
    if figure == "3":
        sweep, process, tag = SweepSpec(1e-3, 1.0, 61, log=True), Process.SPDC, "chi2"
        chis = [(1e-12, "1pm_V"), (1e-11, "10pm_V"), (1e-10, "100pm_V")]
    else:
        sweep, process, tag = SweepSpec(1e-3, 1e3, 121, log=True), Process.FWM, "chi3"
        chis = [(1e-22, "1e-22m2_V2"), (1e-20, "1e-20m2_V2"), (1e-18, "1e-18m2_V2")]
    media = [Medium(process=process, chi_eff=chi) for chi, _ in chis]
    header = ["length_m"] + [f"gamma_W_per_m2_{tag}_{label}" for _, label in chis]
    return _length_sweep(sweep, media, DEFAULT_WAVELENGTH, DEFAULT_WAVELENGTH, header)


def cmd_sweep(args) -> str:
    if (args.figure is None) == (args.variable is None):
        raise ValueError("specify exactly one of --figure or --variable")
    if args.figure is not None:
        _reject_unread(args, ("--min", "--max", "--count", "--scale", "--length", "--delta-nu")
                       + _MEDIUM_FLAGS + _WAVE_FLAGS, "{flag} does not apply to a figure sweep")
        return _figure_sweep(args.figure)
    if args.min is None or args.max is None:
        raise ValueError("explicit sweeps require --min and --max")
    if args.variable == "length":
        _reject_unread(args, ("--delta-nu",), "{flag} does not apply to a length sweep")
    parse = {"beta_l": float, "length": parse_length,
             "pump_intensity": parse_intensity}[args.variable]
    try:
        start, stop = parse(args.min), parse(args.max)
    except ValueError as exc:
        raise ValueError(f"--min/--max: {exc}") from exc
    sweep = SweepSpec(start, stop, 101 if args.count is None else args.count, args.scale == "log")
    if args.variable == "beta_l":
        _reject_unread(args, _MEDIUM_FLAGS + _WAVE_FLAGS + ("--length",),
                       "{flag} does not apply to a beta_l sweep")
        return _flux_csv(["beta_l"], [[x] for x in sweep.grid()], args.delta_nu)
    if args.variable == "length":
        media = [_build_medium(args)]
        _reject_unread(args, ("--length",), "{flag} does not apply to a length sweep")
        return _length_sweep(sweep, media, *_wavelengths(args), ["length_m", "gamma_W_per_m2"])
    if args.length is None:
        raise ValueError("--length is required for a pump_intensity sweep")
    medium = _build_medium(args)
    triplet = _build_triplet(args, medium.process)
    rows = [[i, model.gain_coefficient(medium, triplet, PumpDrive.from_intensity(i)) * args.length]
            for i in sweep.grid()]
    return _flux_csv(["pump_intensity_W_per_m2", "beta_l"], rows, args.delta_nu)


def cmd_oracle(args) -> str:
    medium = Medium(process=Process.SPDC, chi_eff=ORACLE_REFERENCE["chi2"])
    triplet = triplet_from_wavelengths(DEFAULT_WAVELENGTH, DEFAULT_WAVELENGTH, Process.SPDC)
    geometry = Geometry(length=ORACLE_REFERENCE["length"], section=args.section)
    bandwidth = Bandwidth.from_delta_nu(args.delta_nu)
    pump = model.pump_for_gain(medium, triplet, geometry, args.beta_l)
    config = oracle.IntegrationConfig(steps=args.steps)

    analytic = model.pair_flux_reduced(args.beta_l, args.delta_nu)
    numeric = oracle.oracle_pair_flux(medium, triplet, pump, geometry, bandwidth, config)
    error = abs(numeric - analytic) / analytic if analytic > 0 else abs(numeric - analytic)

    return _report(args, [
        ("beta_l", args.beta_l, format_sig(args.beta_l)),
        ("steps", args.steps, str(args.steps)),
        ("analytic_pairs_per_s", analytic, repr(analytic)),
        ("oracle_pairs_per_s", numeric, repr(numeric)),
        ("relative_error", error, format_sig(error)),
    ])


_COMMANDS = {
    "criteria": cmd_criteria,
    "classify": cmd_classify,
    "flux": cmd_flux,
    "limit": cmd_limit,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # OSError here is a failed catalog read, i.e. a bad --materials value
        print(f"pairgate {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _emit(output, args)
    except OSError as exc:
        print(f"pairgate {args.command}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
