"""pairgate command line: criteria | classify | flux | limit | sweep | oracle.

Every subcommand is a thin rendering over the library; no physics lives
here. Unit-suffixed quantities (532nm, 40MW/cm2, 1pm/V, ...) are parsed at
this boundary only. Exit codes: 0 success, 2 input validation, 3 I/O.

Scalar reports state each output once, as a column list that `_report`
prints as a table or as CSV; every renderer ends its text with a newline,
so `_emit` writes it unchanged to stdout or --out. A sweep's text is a
generator of such chunks, each written as soon as it is rendered.

A call imports and builds only what its subcommand runs: the material catalog
on the first --material lookup, the oracle in `oracle`, the sweep module
(pairgate.sweep, which checks, renders and streams a sweep) in `sweep` once its
flags pass their checks, the model's gain, limit-intensity and field kernels
(pairgate.gain, .limit, .fields) where it computes them, and argparse only for
an argv it must read. `_add_flags` is the one list of a subcommand's flags.
`_read_plain` reads a plain argv, FLAG VALUE pairs, from it; argparse, imported
and built by `build_parser` from the same list, reads every other argv (--help,
abbreviations, --flag=value, '-'-leading values, usage errors), so it is the
one source of every help text and usage message.
"""

import atexit
import math
import os
import sys
import types
from collections.abc import Iterator

from . import model
from .constants import DEFAULT_WAVELENGTH, MATERIALS_ENV_VAR
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
    parse_float,
    parse_frequency,
    parse_intensity,
    parse_length,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

MAX_SWEEP_POINTS = 10**6  # 10x the largest bench sweep; at the cap, ~56 MB of CSV, ~17 MiB RSS
_MEDIUM_FLAGS = ("--material", "--materials", "--chi2", "--chi3", "--n-p", "--n-s", "--n-i")
_WAVE_FLAGS = ("--lambda-s", "--lambda-i")
ORACLE_REFERENCE = {
    "chi2": 1e-12,       # m/V
    "length": 1e-3,      # m
    "section": 1e-6,     # m^2
}


def _say(line: str) -> None:
    """Writes a diagnostic line to stderr, or drops it where stderr is closed or refuses it."""
    try:
        sys.stderr.write(line + "\n")  # stderr is line-buffered: this write flushes it
    except (AttributeError, OSError):  # sys.stderr is None where descriptor 2 was closed
        pass


class SweepSpec(model._named_tuple("SweepSpec", "start stop count log", (False,))):
    """Axis of a parameter sweep; its grid is finite, starts at or above +0.0, never decreases."""

    __slots__ = ()

    def __post_init__(self) -> None:
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

    def points(self, lo: int, hi: int) -> list[float]:
        """Grid points lo to hi - 1, numpy.linspace's: i*step + start, with the last one exactly
        stop and none past it; a log grid is 10**x over that grid between the log10 endpoints."""
        start, stop = self.start, self.stop
        if self.log:
            start, stop = math.log10(start), math.log10(stop)
        div = self.count - 1
        step = (stop - start) / div
        inner = range(lo, min(hi, div))
        if step:
            points = [i * step + start for i in inner]
        else:  # a subnormal span whose step underflows: numpy scales i/div instead
            points = [i / div * (stop - start) + start for i in inner]
        if points and points[-1] > stop:  # a subnormal step rounded up: numpy's passes stop
            points = [min(point, stop) for point in points]
        if hi > div:
            points.append(stop)
        try:
            return [10.0 ** x for x in points] if self.log else points
        except OverflowError:
            raise ValueError(f"--max {self.stop!r} overflows a log grid") from None

    def grid(self) -> list[float]:
        """The whole grid, points(0, count)."""
        return self.points(0, self.count)


# subcommand: its line in `pairgate --help`
_SUMMARIES = {
    "criteria": "print the universal limit criteria at beta*L = 1",
    "classify": "classify the operating regime of a configuration",
    "flux": "absolute pair flux for a configuration or a given beta*L",
    "limit": "limit pump intensity at which beta*L = 1",
    "sweep": "CSV parameter sweeps, including figure presets",
    "oracle": "compare the RK4 coupled-wave oracle against the closed form",
}


def _add_flags(command: str, add) -> None:
    """Adds the flags of subcommand `command` by add(flag, **kwargs), an add_argument, in
    --help order. It reads each converter from this module's globals on every call."""
    add("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")
    if command != "sweep":  # sweeps are always CSV
        add("--format", choices=("table", "csv"), default="table",
            help="output rendering for scalar reports")
    if command == "oracle":
        add("--beta-l", type=parse_float, required=True, help="gain product beta*L")
        add("--steps", type=int, default=None,
            help="fixed RK4 step count (default MAX_STEPS = 2^24)")
        add("--delta-nu", type=parse_frequency, metavar="BW", default=1.0,
            help="pair linewidth (default 1Hz)")
    if command in ("criteria", "oracle"):
        return
    add("--materials", metavar="PATH", default=None,
        help=f"material catalog file for --material (overrides ${MATERIALS_ENV_VAR} and presets)")
    add("--material", help="material name from the catalog")
    add("--chi2", type=parse_chi2, metavar="CHI",
        help="second-order susceptibility, e.g. 1pm/V (implies spdc)")
    add("--chi3", type=parse_chi3, metavar="CHI",
        help="third-order susceptibility, e.g. 1e-22m2/V2 (implies fwm)")
    add("--n-p", type=parse_float, default=None, help="pump refractive index")
    add("--n-s", type=parse_float, default=None, help="signal refractive index")
    add("--n-i", type=parse_float, default=None, help="idler refractive index")
    add("--lambda-s", type=parse_length, metavar="LEN", help="signal wavelength (default 1um)")
    add("--lambda-i", type=parse_length, metavar="LEN", help="idler wavelength (default 1um)")
    if command in ("classify", "flux"):
        add("--pump-intensity", type=parse_intensity, metavar="I",
            help="pump intensity, e.g. 40MW/cm2 (FWM: total of both pump waves)")
        add("--pump-field", type=parse_field, metavar="E",
            help="pump field amplitude, e.g. 5MV/m (alternative to intensity)")
    if command == "classify":
        add("--length", type=parse_length, metavar="LEN", required=True,
            help="interaction length, e.g. 1cm")
        add("--section", type=parse_area, metavar="AREA", default=None,
            help="overlap section, e.g. 1mm2 (enables field report)")
        add("--delta-nu", type=parse_frequency, metavar="BW", default=None,
            help="pair linewidth, e.g. 1GHz (enables field report)")
        add("--band", type=parse_float, default=model._AT_LIMIT_BAND,
            help=f"relative at-limit band on beta*L (default {model._AT_LIMIT_BAND:g})")
    elif command == "flux":
        add("--beta-l", type=parse_float, default=None,
            help="gain product beta*L (bypasses the medium/pump flags)")
        add("--length", type=parse_length, metavar="LEN", default=None,
            help="interaction length (required without --beta-l)")
        add("--delta-nu", type=parse_frequency, metavar="BW", required=True,
            help="pair linewidth, e.g. 1GHz")
    elif command == "limit":
        add("--length", type=parse_length, metavar="LEN", required=True,
            help="interaction length, e.g. 1mm")
    else:
        add("--figure", choices=("2", "3", "4"), default=None,
            help="preset sweep reproducing one of the reference figures")
        add("--variable", choices=("beta_l", "length", "pump_intensity"),
            help="swept variable for an explicit sweep")
        add("--min", default=None, help="sweep start (unit-suffixed for length/intensity)")
        add("--max", default=None, help="sweep stop (unit-suffixed for length/intensity)")
        add("--count", type=int, help="number of points (default 101)")
        add("--scale", choices=("linear", "log"), help="grid spacing (default linear)")
        add("--length", type=parse_length, metavar="LEN", default=None,
            help="fixed interaction length (pump_intensity sweeps)")
        add("--delta-nu", type=parse_frequency, metavar="BW", default=None,
            help="pair linewidth for flux columns")


def _read_plain(command: str, argv: list[str]):
    """The namespace that build_parser(command).parse_args(argv) gives, read without argparse,
    or None where argv is not plain. A plain argv is FLAG VALUE pairs: each FLAG an option
    string of `command`, given once; no VALUE starting with '-'; each choice one of its
    choices; each converter without ValueError; every required flag given. argparse reads
    every other argv: --help, an abbreviation, --flag=value, a '-'-leading value (whose rule
    differs between Python releases), a repeat, a missing or unknown flag, a bad value."""
    flags, values = {}, {"command": command}

    def record(flag, type=None, choices=None, required=False, default=None, **_):
        dest = flag[2:].replace("-", "_")
        flags[flag], values[dest] = (dest, type, choices, required), default

    _add_flags(command, record)
    given = dict(zip(argv[::2], argv[1::2]))
    if 2 * len(given) != len(argv):  # a flag without its value, or a repeated flag
        return None
    for flag, (dest, type, choices, required) in flags.items():
        text = given.pop(flag, None)
        if text is None:
            if required:
                return None
            continue
        if text.startswith("-"):
            return None
        try:
            value = text if type is None else type(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return None if given else types.SimpleNamespace(**values)


def build_parser(command: str | None = None):
    """main's argparse parser, built only for an argv that _read_plain declines: the subcommand
    `command`'s own (prog 'pairgate <command>') or, when None, 'pairgate' with every
    subcommand."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error as one stderr line, '<prog>: <message>', exit 2, and writes
        --help by _write, so a refused help raises OSError. A subcommand's own parser has the
        prog 'pairgate <command>', so argparse reports a flag it does not accept under it."""

        def error(self, message: str):
            _say(f"{self.prog}: {message}")
            raise SystemExit(EXIT_INPUT)

        def print_help(self, file=None):
            _write(self.format_help(), None)

    def adder(parser):
        def add(flag, type=None, **kwargs):
            def convert(text):  # a unit converter's ValueError becomes argparse's message
                try:
                    return type(text)
                except ValueError as exc:
                    raise argparse.ArgumentTypeError(str(exc)) from None
            # int keeps argparse's own "invalid int value: '1e3'"
            parser.add_argument(flag, type=type if type in (None, int) else convert, **kwargs)
        return add

    if command:
        parser = _Parser(prog=f"pairgate {command}")
        parser.set_defaults(command=command)
        _add_flags(command, adder(parser))
        return parser
    parser = _Parser(prog="pairgate", description="Photon-pair generation by SPDC/FWM: gain "
                     "regimes, universal limit criteria, limit pump intensities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in _SUMMARIES.items():
        _add_flags(name, adder(sub.add_parser(name, help=summary)))
    return parser


# --------------------------------------------------------------------------
# assembly helpers (flags -> domain objects)
# --------------------------------------------------------------------------

def resolve_catalog(explicit_path):
    """materials.resolve_catalog; the catalog module is imported on the first call."""
    from . import materials
    return materials.resolve_catalog(explicit_path)


def lookup(catalog, name):
    """materials.lookup, imported like resolve_catalog."""
    from . import materials
    return materials.lookup(catalog, name)


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


def _assemble(args) -> tuple[Medium, model.WaveTriplet, float]:
    """The medium, the triplet and beta*L of the medium, wave and pump flags over --length."""
    medium = _build_medium(args)
    triplet = _build_triplet(args, medium.process)
    pump = _build_pump(args)
    from .gain import _gain_product

    return medium, triplet, _gain_product(medium, triplet, pump, args.length)


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


def _emit(text: str, handle) -> None:
    """Writes one chunk of a call's output text to handle, stdout or the --out file."""
    handle.write(text)


def _write(output, path) -> None:
    """Writes output, a str or a generator of str chunks, to the file path or, where path is
    None, to stdout, each chunk by _emit as it comes, then flushes it, so a closed stdout pipe
    raises here too. A generator is closed here, written whole or not, so a sweep has no child
    left when this returns; a failed write leaves the file with what was written."""
    handle = sys.stdout
    try:
        if path is not None:
            handle = open(path, "w", encoding="utf-8", newline="")
        elif handle is None:  # descriptor 1 was closed when the interpreter started
            raise OSError("stdout is closed")
        for chunk in [output] if isinstance(output, str) else output:
            _emit(chunk, handle)
        handle.flush()
    finally:
        if not isinstance(output, str):
            output.close()
        if handle is not sys.stdout:
            handle.close()


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
    if (args.section is None) != (args.delta_nu is None):
        raise ValueError("--section and --delta-nu go together")
    medium, triplet, beta_l = _assemble(args)
    report = model.classify_regime(beta_l, at_limit_band=args.band)

    columns = [
        ("beta_l", report.beta_l, format_sig(report.beta_l)),
        ("regime", report.regime.value, report.regime.value),
        ("pairs_per_bandwidth", report.pairs_per_bandwidth, format_sig(report.pairs_per_bandwidth)),
        ("field_ratio", report.field_ratio, format_sig(report.field_ratio)),
    ]
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
        beta_l = _assemble(args)[2]

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


def cmd_sweep(args) -> Iterator[str]:
    if (args.figure is None) == (args.variable is None):
        raise ValueError("specify exactly one of --figure or --variable")
    if args.figure is not None:
        _reject_unread(args, ("--min", "--max", "--count", "--scale", "--length", "--delta-nu")
                       + _MEDIUM_FLAGS + _WAVE_FLAGS, "{flag} does not apply to a figure sweep")
        from . import sweep
        return sweep.csv(SweepSpec(*sweep.FIGURE_GRIDS[args.figure]), sweep.figure(args.figure))
    unread = {"beta_l": _MEDIUM_FLAGS + _WAVE_FLAGS + ("--length",),
              "length": ("--length", "--delta-nu", "--n-p", "--n-s", "--n-i")}
    _reject_unread(args, unread.get(args.variable, ()),
                   f"{{flag}} does not apply to a {args.variable} sweep")
    if args.min is None or args.max is None:
        raise ValueError("explicit sweeps require --min and --max")
    parse = {"beta_l": parse_float, "length": parse_length,
             "pump_intensity": parse_intensity}[args.variable]
    try:
        start, stop = parse(args.min), parse(args.max)
    except ValueError as exc:
        raise ValueError(f"--min/--max: {exc}") from exc
    spec = SweepSpec(start, stop, 101 if args.count is None else args.count, args.scale == "log")
    if args.variable == "beta_l":
        inputs = (args.delta_nu,)
    elif args.variable == "length":
        inputs = ([_build_medium(args)], *_wavelengths(args))
    else:
        if args.length is None:
            raise ValueError("--length is required for a pump_intensity sweep")
        medium = _build_medium(args)
        inputs = (medium, _build_triplet(args, medium.process), args.length, args.delta_nu)
    from . import sweep  # after the last flag check: no other call compiles the sweep code
    # sweep.beta_l, .length or .pump_intensity; a pump sweep's row checks its length
    return sweep.csv(spec, getattr(sweep, args.variable)(*inputs))


def cmd_oracle(args) -> str:
    from . import oracle

    medium = Medium(process=Process.SPDC, chi_eff=ORACLE_REFERENCE["chi2"])
    triplet = triplet_from_wavelengths(DEFAULT_WAVELENGTH, DEFAULT_WAVELENGTH, Process.SPDC)
    geometry = Geometry(length=ORACLE_REFERENCE["length"], section=ORACLE_REFERENCE["section"])
    bandwidth = Bandwidth.from_delta_nu(args.delta_nu)
    pump = model.pump_for_gain(medium, triplet, geometry, args.beta_l)
    config = (oracle.IntegrationConfig() if args.steps is None
              else oracle.IntegrationConfig(steps=args.steps))

    numeric = oracle.oracle_pair_flux(medium, triplet, pump, geometry, bandwidth, config)
    analytic = model.pair_flux_reduced(args.beta_l, args.delta_nu)
    error = abs(numeric - analytic) / analytic if analytic > 0 else abs(numeric - analytic)

    return _report(args, [
        ("beta_l", args.beta_l, format_sig(args.beta_l)),
        ("steps", config.steps, str(config.steps)),
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
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _read_plain(command, argv[1:]) if command else None
    if args is None:
        try:
            args = build_parser(command).parse_args(argv[1:] if command else argv)
        except SystemExit as exc:  # argparse's, after --help or a usage error
            return exc.code
        except OSError as exc:  # stdout refused --help
            _say(f"pairgate: cannot write output: {exc}")
            return EXIT_IO
    try:
        output = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # OSError here is a failed catalog read, i.e. a bad --materials value
        _say(f"pairgate {args.command}: {exc}")
        return EXIT_INPUT
    try:
        _write(output, args.out)
    except OSError as exc:
        _say(f"pairgate {args.command}: cannot write output: {exc}")
        return EXIT_IO
    return EXIT_OK


def run() -> None:
    """The process entry (`pairgate`, `python -m pairgate.cli`): once main has returned, it ends
    the process as the interpreter would, less its teardown. It runs the atexit callbacks,
    flushes stdout and stderr, where a stream that refuses the flush (a closed pipe, which main
    has reported, or a read-only stderr) drops its bytes, and leaves by os._exit with main's
    code. Ctrl-C and any other exception out of main leave the usual way."""
    try:
        code = main()
    except KeyboardInterrupt:
        import signal  # here, not at start-up, where it would cost every call ~1 ms
        _say("pairgate: interrupted")
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)  # so that a calling shell sees the interrupt
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:  # None where its descriptor was closed at start-up
        try:
            if stream:
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
