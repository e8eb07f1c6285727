"""Material catalog: named media loaded from a line-oriented text format.

Format, one block per material:

    # comment
    [KTP_class]
    process = spdc
    chi_eff = 1 pm/V
    n_p = 1.0
    n_s = 1.0
    n_i = 1.0
    note = chi2 class of KTP and BBO (nominal, order of magnitude)

Keys: process (spdc|fwm), chi_eff (number + unit, pm/V or m/V for spdc,
m2/V2 for fwm), optional indices n_p/n_s/n_i (default 1.0) and an optional
free-text note. The declared chi unit must match the process order. Every
value except the note may carry a trailing '# comment'. chi_eff is read by
units._quantity, the reader of the unit flags, and each index by
units.parse_float, the reader of the index flags, with the same range rule.
A file is UTF-8, with or without a byte-order mark.

Each entry becomes a MaterialRecord (name, medium, note), checked once
while it is built. The four built-in presets are such records written out
in this module, with SI chi and the three indices at the 1.0 default
(effective-gamma mode): limit pump intensities computed from them coincide
with the index-normalized effective values. Real refractive indices are
user configuration; the presets deliberately do not invent any.

Catalog resolution order: explicit path > PAIRGATE_MATERIALS env var >
built-in presets.
"""

import os

from .constants import MATERIALS_ENV_VAR
from .model import Medium, Process, _named_tuple
from .units import CHI2_UNITS, CHI3_UNITS, UnitParseError, _quantity, parse_float

__all__ = [
    "MaterialRecord",
    "MaterialParseError",
    "UnknownMaterialError",
    "load_catalog",
    "builtin_presets",
    "resolve_catalog",
    "lookup",
    "MATERIALS_ENV_VAR",
]

_CHI_UNITS = {**CHI2_UNITS, **CHI3_UNITS}

_PROCESS_NAMES = {p.value: p for p in Process}


class MaterialParseError(ValueError):
    """Catalog text violates the material-file grammar or its invariants."""

    def __init__(self, message: str, origin: str, line: int) -> None:
        super().__init__(f"{origin}:{line}: {message}")


class UnknownMaterialError(ValueError):
    """Lookup of a name not present in the catalog."""


class MaterialRecord(_named_tuple("MaterialRecord", "name medium note")):
    """One named medium of a catalog, with a free-text note on its provenance."""

    __slots__ = ()


# Nominal susceptibility classes; deliberately order-of-magnitude values
# with unit indices (effective-gamma mode), flagged approximate in the note.
_PRESETS = (
    MaterialRecord("KTP_class", Medium(Process.SPDC, 1e-12),
                   "approximate chi2 class of KTP and BBO"),
    MaterialRecord("PPKTP_class", Medium(Process.SPDC, 1e-11),
                   "approximate chi2 class of PPKTP and PPLN"),
    MaterialRecord("CSP_class", Medium(Process.SPDC, 1e-10),
                   "approximate chi2 class of CSP and GaAs"),
    MaterialRecord("silica_fiber", Medium(Process.FWM, 1e-22),
                   "approximate chi3 of fused-silica fiber"),
)

_INDEX_KEYS = ("n_p", "n_s", "n_i")
_BLANKS = " \t\f\v"  # the ASCII blanks a line, header name, key and value lose at their ends


def _build_record(
    name: str, fields: dict[str, tuple[str, int]], origin: str, header_line: int
) -> MaterialRecord:
    """The one check of a catalog entry; an error names the line it is about."""
    for key in ("process", "chi_eff"):
        if key not in fields:
            raise MaterialParseError(f"material {name!r} lacks a {key} key", origin, header_line)

    process_text, process_line = fields["process"]
    process = _PROCESS_NAMES.get(process_text.lower())
    if process is None:
        raise MaterialParseError(f"process must be one of {sorted(_PROCESS_NAMES)}, "
                                 f"got {process_text!r}", origin, process_line)

    chi_text, chi_line = fields["chi_eff"]
    try:
        chi_eff, chi_unit = _quantity(chi_text, _CHI_UNITS, "chi")
    except UnitParseError as exc:
        raise MaterialParseError(str(exc), origin, chi_line) from exc

    indices = {}
    for key in _INDEX_KEYS:
        if key in fields:
            text, line = fields[key]
            try:
                indices[key] = parse_float(text)
            except UnitParseError as exc:
                raise MaterialParseError(f"{key}: {exc}", origin, line) from exc

    if not name:
        raise MaterialParseError("material name must be nonempty", origin, header_line)
    if (chi_unit in CHI2_UNITS) is not (process is Process.SPDC):
        raise MaterialParseError(f"chi_eff unit {chi_unit!r} does not match process "
                                 f"{process.value!r}", origin, chi_line)
    try:
        medium = Medium(process=process, chi_eff=chi_eff, **indices)
    except ValueError as exc:
        # Medium's messages start with the offending key
        key = str(exc).partition(" ")[0]
        raise MaterialParseError(str(exc), origin, fields[key][1]) from exc
    note = fields["note"][0] if "note" in fields else ""
    return MaterialRecord(name, medium, note)


def load_catalog(text: str, origin: str = "<string>") -> list[MaterialRecord]:
    """Parse catalog text into validated records; duplicate names rejected."""
    records: list[MaterialRecord] = []
    seen: dict[str, int] = {}
    name: str | None = None
    header_line = 0
    fields: dict[str, tuple[str, int]] = {}

    def flush() -> None:
        if name is None:
            return
        records.append(_build_record(name, fields, origin, header_line))

    # \n, \r\n and \r end a line, as in a text-mode read; str.splitlines also ends one at \f
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(_BLANKS)
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1].strip(_BLANKS)
            header_line = lineno
            fields = {}
            if name in seen:
                raise MaterialParseError(
                    f"duplicate material {name!r} (first defined at line {seen[name]})",
                    origin,
                    lineno,
                )
            seen[name] = lineno
            continue
        if "=" not in line:
            raise MaterialParseError(
                f"expected 'key = value' or '[name]', got {line!r}", origin, lineno
            )
        if name is None:
            raise MaterialParseError(
                "key/value line before any [material] header", origin, lineno
            )
        key, _, value = line.partition("=")
        key = key.strip(_BLANKS)
        if key != "note":  # the note is free text and may contain '#'
            value = value.partition("#")[0]
        value = value.strip(_BLANKS)
        if key not in ("process", "chi_eff", "note", *_INDEX_KEYS):
            raise MaterialParseError(f"unknown key {key!r}", origin, lineno)
        if key in fields:
            raise MaterialParseError(f"duplicate key {key!r}", origin, lineno)
        fields[key] = (value, lineno)

    flush()
    return records


def builtin_presets() -> list[MaterialRecord]:
    return list(_PRESETS)


def resolve_catalog(explicit_path: str | os.PathLike | None = None) -> list[MaterialRecord]:
    """Load the catalog honoring the explicit-path > env var > presets order."""
    if explicit_path is None and not os.environ.get(MATERIALS_ENV_VAR):
        return builtin_presets()
    path = os.fspath(os.environ[MATERIALS_ENV_VAR] if explicit_path is None else explicit_path)
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return load_catalog(text.removeprefix("\ufeff"), origin=path)


def lookup(catalog: list[MaterialRecord], name: str) -> MaterialRecord:
    """Exact-name lookup; raises with the nearest names on a miss."""
    for rec in catalog:
        if rec.name == name:
            return rec
    import difflib  # only a miss pays for it

    suggestions = difflib.get_close_matches(name, [r.name for r in catalog], n=3, cutoff=0.3)
    hint = f"; closest names: {', '.join(suggestions)}" if suggestions else ""
    raise UnknownMaterialError(f"unknown material {name!r}{hint}")
