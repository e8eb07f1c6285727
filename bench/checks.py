"""Independent references for pairgate's outputs, and the checks that use them.

Every expected value is recomputed here with the standard library from the
closed forms the README and the paper state; nothing is imported from
pairgate. The checks look up the reference functions through this module's
globals at check time, so a test can replace one with a wrong value and see
the failure counted.
"""

from __future__ import annotations

import math

# CODATA 2018, strict SI
C = 299_792_458.0
H = 6.626_070_15e-34
HBAR = H / (2.0 * math.pi)
EPS0 = 8.854_187_8128e-12
MU0 = 1.256_637_062_12e-6

# Full-precision values (CSV cells, repr columns) against an independent
# recomputation whose operations run in another order: a few ulp, amplified
# at most ~2*beta*L <= 200 times by expm1(beta*L)^2.
RTOL = 1e-9

# Fixed rounding floor of the oracle check. A cancellation-free fixed-step
# RK4 in double precision accumulates about steps * 2**-53 ~ 7e-12 relative
# rounding at the largest step count drawn (65536); the closed form and the
# pump round trip add a few ulp times beta*L. 1e-9 leaves over two orders of
# headroom above that and stays far below any error that would mean the
# integration disagrees with the closed form.
ORACLE_ROUNDING_FLOOR = 1e-9

AT_LIMIT_BAND = 0.01  # classify's default relative band around beta*L = 1

# Built-in catalog as documented in the README (unit indices).
BUILTIN_MATERIALS = {
    "KTP_class": ("spdc", 1e-12),
    "PPKTP_class": ("spdc", 1e-11),
    "CSP_class": ("spdc", 1e-10),
    "silica_fiber": ("fwm", 1e-22),
}


class CheckFailed(Exception):
    """An output differs from its reference; the message names the first difference."""


class OracleOutOfBound(CheckFailed):
    """The oracle's result lies outside its error bound; carries the measured outcome."""

    def __init__(self, message: str, outcome) -> None:
        super().__init__(message)
        self.outcome = outcome


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def omega(wavelength: float) -> float:
    return 2.0 * math.pi * C / wavelength


def coupling_root(n: tuple, lambdas: tuple) -> float:
    """sqrt(ks*ki), with k = omega/(2*n*c) the per-arm coupling (1/m)."""
    ks = omega(lambdas[0]) / (2.0 * n[1] * C)
    ki = omega(lambdas[1]) / (2.0 * n[2] * C)
    return math.sqrt(ks * ki)


def beta_l_from_field(process: str, chi: float, n: tuple, lambdas: tuple, length: float,
                      field: float) -> float:
    """beta*L with beta = chi2*E*sqrt(ks*ki) (SPDC) or chi3*E^2/2*sqrt(ks*ki) (FWM)."""
    drive = chi * field if process == "spdc" else 0.5 * chi * field * field
    return drive * coupling_root(n, lambdas) * length


def field_for_beta_l(process, chi, n, lambdas, length, beta_l) -> float:
    drive = beta_l / (length * coupling_root(n, lambdas))
    return drive / chi if process == "spdc" else math.sqrt(2.0 * drive / chi)


def pump_field(intensity: float, n_p: float) -> float:
    """Plane-wave amplitude of an intensity: I = n*E^2/(2*c*mu0)."""
    return math.sqrt(2.0 * intensity * C * MU0 / n_p)


def intensity_for_beta_l(process, chi, n, lambdas, length, beta_l) -> float:
    field = field_for_beta_l(process, chi, n, lambdas, length, beta_l)
    return 0.5 * n[0] * field * field / (C * MU0)


def pairs_per_bandwidth(beta_l: float) -> float:
    """(1/8)*(exp(beta*L) - 1)^2."""
    growth = math.expm1(beta_l)
    return 0.125 * growth * growth


def pair_flux(beta_l: float, delta_nu: float) -> float:
    """(delta_nu/8)*(exp(beta*L) - 1)^2 pairs/s."""
    return delta_nu * pairs_per_bandwidth(beta_l)


def criteria() -> tuple[float, float, float]:
    """(e-1)^2/8, (e-1)^2/4 and e-1."""
    growth = math.e - 1.0
    return growth * growth / 8.0, growth * growth / 4.0, growth


def vacuum_field(wavelength: float, n: float, section: float, delta_nu: float) -> float:
    """sqrt(hbar*omega*delta_omega / (4*pi*c*eps0*n*S))."""
    delta_omega = 2.0 * math.pi * delta_nu
    return math.sqrt(HBAR * omega(wavelength) * delta_omega / (4.0 * math.pi * C * EPS0 * n * section))


def limit_intensity(process, chi, n, lambdas, length) -> float:
    """Pump intensity at beta*L = 1 (SPDC and FWM closed forms)."""
    n_p, n_s, n_i = n
    if process == "spdc":
        return n_p * n_s * n_i * lambdas[0] * lambdas[1] / (
            2.0 * math.pi ** 2 * MU0 * C * (length * chi) ** 2)
    return n_p * math.sqrt(n_s * n_i * lambdas[0] * lambdas[1]) * math.sqrt(EPS0 / MU0) / (
        math.pi * length * chi)


def effective_limit(process, chi, n, lambdas, length) -> float:
    """Index-normalized limit intensity Gamma."""
    n_p, n_s, n_i = n
    norm = n_p * n_s * n_i if process == "spdc" else n_p * math.sqrt(n_s * n_i)
    return limit_intensity(process, chi, n, lambdas, length) / norm


def regime(beta_l: float, band: float) -> str:
    if beta_l < 1.0 - band:
        return "small-signal"
    if beta_l > 1.0 + band:
        return "high-signal"
    return "at-limit"


def oracle_tolerance(beta_l: float, steps: int) -> float:
    """RK4 bound from the oracle's docstring, (beta*L)^5/steps^4, plus the floor."""
    return beta_l ** 5 / steps ** 4 + ORACLE_ROUNDING_FLOOR


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------

def close(name: str, got: float, want: float, rtol: float = RTOL) -> None:
    if want == 0.0 and got == 0.0:
        return
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")


def close_sig3(name: str, shown: float, want: float) -> None:
    """A value rounded to 3 significant digits for display."""
    if want == 0.0:
        if shown != 0.0:
            raise CheckFailed(f"{name}: shown {shown!r}, reference 0")
        return
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 2)
    if not abs(shown - want) <= half_unit * (1.0 + 1e-6):
        raise CheckFailed(f"{name}: shown {shown!r}, reference {want!r} to 3 digits")


def oracle_rel_error(numeric: float, beta_l: float, delta_nu: float) -> float:
    want = pair_flux(beta_l, delta_nu)
    return abs(numeric - want) / want if math.isfinite(numeric) else math.inf


# --------------------------------------------------------------------------
# output parsing
# --------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    if not text.endswith("\n"):
        raise CheckFailed("CSV output lacks a final newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_table(text: str) -> dict[str, str]:
    rows = {}
    for line in text.rstrip("\n").split("\n"):
        key, _, rest = line.partition(" ")
        rows[key] = rest.strip()
    return rows


# Table key and cell style for each CSV column of a scalar report. Styles:
# "sig" 3 significant digits, first token; "repr" full precision, first
# token; "second" full precision, second token; "paren" full precision in
# "(... W/m2)"; "text" exact string.
TABLE_LAYOUT = {
    "criteria": {
        "pairs_per_bandwidth_limit": ("pairs_per_bandwidth_limit", "second"),
        "photons_per_bandwidth_limit": ("photons_per_bandwidth_limit", "second"),
        "field_ratio_limit": ("field_ratio_limit", "second"),
    },
    "classify": {
        "beta_l": ("beta_l", "sig"),
        "regime": ("regime", "text"),
        "pairs_per_bandwidth": ("pairs_per_bandwidth", "sig"),
        "field_ratio": ("field_ratio", "sig"),
        "vacuum_field_V_per_m": ("vacuum_field", "sig"),
        "generated_field_V_per_m": ("generated_field", "sig"),
    },
    "flux": {
        "beta_l": ("beta_l", "sig"),
        "delta_nu_Hz": ("delta_nu", "sig"),
        "pairs_per_s": ("pairs_per_s", "sig"),
    },
    "limit": {
        "process": ("process", "text"),
        "length_m": ("length", "sig"),
        "lambda_s_m": ("lambda_s", "sig"),
        "lambda_i_m": ("lambda_i", "sig"),
        "chi_eff_si": ("chi_eff", "sig"),
        "limit_intensity_W_per_m2": ("limit_pump_intensity", "paren"),
        "effective_limit_W_per_m2": ("effective_limit_gamma", "paren"),
    },
    "oracle": {
        "beta_l": ("beta_l", "sig"),
        "steps": ("steps", "text"),
        "analytic_pairs_per_s": ("analytic_pairs_per_s", "repr"),
        "oracle_pairs_per_s": ("oracle_pairs_per_s", "repr"),
        "relative_error": ("relative_error", "sig"),
    },
}


def _table_cell(style: str, cell: str):
    if style == "text":
        return cell
    if style == "paren":
        return float(cell[cell.index("(") + 1:].split()[0])
    tokens = cell.split()
    return float(tokens[1] if style == "second" else tokens[0])


def check_scalar(command: str, fmt: str, text: str, expect: dict) -> dict:
    """Check a one-row report; expect maps CSV column -> value, or a callable
    taking the printed value for columns checked another way. Returns the
    printed values by CSV column."""
    layout = TABLE_LAYOUT[command]
    if fmt == "csv":
        header, rows = parse_csv(text)
        if header != list(expect) or len(rows) != 1 or len(rows[0]) != len(header):
            raise CheckFailed(f"{command} CSV layout {header} x {len(rows)} rows, expected {list(expect)}")
        cells = dict(zip(header, rows[0]))
        got = {k: (v if layout[k][1] == "text" else float(v)) for k, v in cells.items()}
    else:
        table = parse_table(text)
        wanted_keys = {layout[k][0] for k in expect}
        present = set(table) - {"quantity"}
        if present != wanted_keys:
            raise CheckFailed(f"{command} table keys {sorted(present)}, expected {sorted(wanted_keys)}")
        got = {k: _table_cell(layout[k][1], table[layout[k][0]]) for k in expect}
    for column, want in expect.items():
        value = got[column]
        if callable(want):
            want(value)
        elif isinstance(want, str):
            if value != want:
                raise CheckFailed(f"{command} {column}: got {value!r}, reference {want!r}")
        elif fmt == "table" and layout[column][1] == "sig":
            close_sig3(f"{command} {column}", value, want)
        else:
            close(f"{command} {column}", value, want)
    return got


def check_grid(name: str, values: list[float], indices: list[int], start: float, stop: float,
               count: int, log: bool) -> None:
    """Grid points against linspace(start, stop, count), or its log10 form."""
    lo, hi = (math.log10(start), math.log10(stop)) if log else (start, stop)
    step = (hi - lo) / (count - 1)
    scale = max(abs(start), abs(stop))
    for index, value in zip(indices, values):
        point = lo + index * step if index < count - 1 else hi
        want = 10.0 ** point if log else point
        if log:
            close(f"{name}[{index}]", value, want, 1e-12)
        elif abs(value - want) > 1e-12 * scale:
            raise CheckFailed(f"{name}[{index}]: got {value!r}, reference {want!r}")


def check_sweep(text: str, header: list[str], grid: tuple, row_reference, sample: list[int]) -> int:
    """Check a sweep CSV: layout, the grid column at the sampled rows, and the
    other columns of those rows recomputed from the printed grid value.
    grid is (start, stop, count, log). Returns the number of data rows."""
    count = grid[2]
    if not text.endswith("\n"):
        raise CheckFailed("CSV output lacks a final newline")
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        raise CheckFailed(f"sweep header {lines[0]!r}, expected {header}")
    rows = lines[1:]
    if len(rows) != count:
        raise CheckFailed(f"sweep has {len(rows)} rows, expected {count}")
    picked = sorted({i for i in sample if i < count} | {0, count - 1})
    cells = [rows[i].split(",") for i in picked]
    xs = [float(row[0]) for row in cells]
    check_grid(header[0], xs, picked, *grid)
    for index, x, row in zip(picked, xs, cells):
        want = row_reference(x)
        if len(row) != len(want) + 1:
            raise CheckFailed(f"sweep row {index} has {len(row)} cells, expected {len(want) + 1}")
        for column, cell, value in zip(header[1:], row[1:], want):
            close(f"sweep {column}[{index}]", float(cell), value)
    return count


def check_one_line_error(code: int, stdout: str, stderr: str) -> None:
    """Invalid input: exit 2, nothing on stdout, exactly one line on stderr."""
    if code != 2:
        raise CheckFailed(f"invalid input exited {code}, expected 2")
    if stdout:
        raise CheckFailed("invalid input wrote to stdout")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].strip():
        raise CheckFailed(f"invalid input printed {len(lines)} stderr lines, expected 1")
