"""Material catalog: parsing, validation, presets, lookup, round trip."""

import re
from pathlib import Path

import pytest

from pairgate.materials import (
    MATERIALS_ENV_VAR,
    MaterialParseError,
    MaterialRecord,
    UnknownMaterialError,
    builtin_presets,
    load_catalog,
    lookup,
    resolve_catalog,
)
from pairgate.model import Medium, Process

GOOD_DOC = """\
# test catalog
[crystal_a]
process = spdc
chi_eff = 2.5 pm/V
n_p = 1.8
n_s = 1.75
n_i = 1.7
note = example record

[fiber_b]
process = fwm
chi_eff = 3e-22 m2/V2
"""


def test_empty_document_gives_empty_catalog():
    assert load_catalog("") == []
    assert load_catalog("# only comments\n\n") == []


def test_load_valid_document():
    records = load_catalog(GOOD_DOC)
    assert [r.name for r in records] == ["crystal_a", "fiber_b"]
    crystal = records[0]
    assert crystal.medium == Medium(Process.SPDC, 2.5 * 1e-12, n_p=1.8, n_s=1.75, n_i=1.7)
    assert crystal.note == "example record"

    fiber = records[1]
    assert fiber.medium == Medium(Process.FWM, 3e-22)  # the indices default to 1.0
    assert fiber.note == ""


def test_presets_contain_the_four_classes():
    presets = builtin_presets()
    assert [r.name for r in presets] == ["KTP_class", "PPKTP_class", "CSP_class", "silica_fiber"]
    # SI chi with unit indices, bit-equal to what the same catalog text gives
    media = [(Medium(Process.SPDC, 1e-12), "spdc\nchi_eff = 1 pm/V"),
             (Medium(Process.SPDC, 1e-11), "spdc\nchi_eff = 10 pm/V"),
             (Medium(Process.SPDC, 1e-10), "spdc\nchi_eff = 100 pm/V"),
             (Medium(Process.FWM, 1e-22), "fwm\nchi_eff = 1e-22 m2/V2")]
    for record, (medium, text) in zip(presets, media):
        assert record.medium == medium
        assert record.note  # approximate values are flagged
        assert load_catalog(f"[{record.name}]\nprocess = {text}\nnote = {record.note}\n") == [record]


def test_record_is_name_medium_note():
    assert MaterialRecord._fields == ("name", "medium", "note")
    record = builtin_presets()[0]
    with pytest.raises(AttributeError):
        record.name = "other"


def test_unit_process_mismatch_rejected_with_line():
    doc = "[bad]\nprocess = fwm\nchi_eff = 1 pm/V\n"
    with pytest.raises(MaterialParseError, match=r":3: .*does not match"):
        load_catalog(doc)


def test_nonpositive_chi_rejected():
    doc = "[bad]\nprocess = spdc\nchi_eff = 0 pm/V\n"
    with pytest.raises(MaterialParseError, match="strictly positive"):
        load_catalog(doc)


def test_duplicate_name_rejected():
    doc = "[dup]\nprocess = spdc\nchi_eff = 1 pm/V\n\n[dup]\nprocess = spdc\nchi_eff = 2 pm/V\n"
    with pytest.raises(MaterialParseError, match="duplicate material 'dup'"):
        load_catalog(doc)


def test_malformed_lines_rejected():
    with pytest.raises(MaterialParseError, match="before any"):
        load_catalog("process = spdc\n")
    with pytest.raises(MaterialParseError, match="unknown key"):
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 pm/V\ncolor = blue\n")
    with pytest.raises(MaterialParseError, match="expected 'key = value'"):
        load_catalog("[x]\nnot a kv line\n")
    with pytest.raises(MaterialParseError, match="lacks a chi_eff"):
        load_catalog("[x]\nprocess = spdc\n")
    with pytest.raises(MaterialParseError, match="duplicate key"):
        load_catalog("[x]\nprocess = spdc\nprocess = fwm\nchi_eff = 1 pm/V\n")
    with pytest.raises(MaterialParseError, match="must be >= 1"):
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 pm/V\nn_s = 0.5\n")
    with pytest.raises(MaterialParseError, match="unknown chi unit"):
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 furlong\n")
    with pytest.raises(MaterialParseError, match=r":4: n_p .*finite"):
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 pm/V\nn_p = nan\n")
    for process, chi in (("spdc", "1e400 pm/V"), ("spdc", "1e-400 pm/V"), ("fwm", "1e-330 m2/V2")):
        with pytest.raises(MaterialParseError) as exc:  # the message of a flag out of range
            load_catalog(f"[x]\nprocess = {process}\nchi_eff = {chi}\n")
        assert str(exc.value) == f"<string>:3: chi {chi!r} is out of the floating-point range"
    with pytest.raises(MaterialParseError, match=r":1: .*nonempty"):
        load_catalog("[]\nprocess = spdc\nchi_eff = 1 pm/V\n")
    with pytest.raises(MaterialParseError) as exc:
        load_catalog("[x]\nprocess = shg\nchi_eff = 1 pm/V\n")
    assert str(exc.value) == "<string>:2: process must be one of ['fwm', 'spdc'], got 'shg'"
    with pytest.raises(MaterialParseError) as exc:
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 pm/V\nn_p = abc\n")
    assert str(exc.value) == "<string>:4: n_p: invalid float value: 'abc'"
    with pytest.raises(MaterialParseError) as exc:  # the message of the --n-p flag
        load_catalog("[x]\nprocess = spdc\nchi_eff = 1 pm/V\nn_p = 1e-400\n")
    assert str(exc.value) == ("<string>:4: n_p: number '1e-400' is out of the "
                              "floating-point range")


def test_a_subnormal_chi_eff_loads():
    (record,) = load_catalog("[x]\nprocess = spdc\nchi_eff = 1e-300 pm/V\n")
    assert record.medium.chi_eff == 1e-300 * 1e-12 > 0.0


def test_readme_catalog_example_parses_as_written():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Material catalog", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    (record,) = load_catalog(block)
    medium = record.medium
    assert medium.process is Process.SPDC
    assert medium.chi_eff == 1e-11  # 10 pm/V
    assert (medium.n_p, medium.n_s, medium.n_i) == (1.8, 1.75, 1.75)


def test_trailing_comments_are_stripped_except_from_the_note():
    doc = "[x]  \nprocess = fwm # order\nchi_eff = 2e-22 m2/V2 # typical\nnote = a # b\n"
    (record,) = load_catalog(doc)
    assert record.medium.chi_eff == 2e-22
    assert record.note == "a # b"


def test_lookup_hits_and_misses():
    records = load_catalog(GOOD_DOC)
    assert lookup(records, "crystal_a").name == "crystal_a"
    with pytest.raises(UnknownMaterialError) as err:
        lookup(records, "crystal_b")
    assert "crystal_a" in str(err.value)  # nearest-name suggestion
    with pytest.raises(ValueError, match="unknown material 'x'"):
        lookup(records, "x")
    assert len(records) == 2  # catalog unchanged


def test_lookup_preset_examples():
    presets = builtin_presets()
    assert lookup(presets, "KTP_class").medium.chi_eff == 1e-12
    silica = lookup(presets, "silica_fiber")
    assert silica.medium == Medium(Process.FWM, 1e-22)


def test_resolution_order(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.mat"
    explicit.write_text("[from_flag]\nprocess = spdc\nchi_eff = 1 pm/V\n")
    env_file = tmp_path / "env.mat"
    env_file.write_text("[from_env]\nprocess = spdc\nchi_eff = 1 pm/V\n")

    monkeypatch.delenv(MATERIALS_ENV_VAR, raising=False)
    assert [r.name for r in resolve_catalog()] == [
        "KTP_class", "PPKTP_class", "CSP_class", "silica_fiber"
    ]

    monkeypatch.setenv(MATERIALS_ENV_VAR, str(env_file))
    assert [r.name for r in resolve_catalog()] == ["from_env"]
    assert [r.name for r in resolve_catalog(explicit)] == ["from_flag"]


def test_resolve_catalog_reports_path(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("[x]\nprocess = spdc\nchi_eff = 1 m2/V2\n")
    with pytest.raises(MaterialParseError) as err:
        resolve_catalog(bad)
    assert str(bad) in str(err.value)
    assert ":3:" in str(err.value)


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff# my catalog\n[a]\nprocess = spdc\nchi_eff = 1 pm/V\n".encode())
    assert resolve_catalog(path) == [MaterialRecord("a", Medium(Process.SPDC, 1e-12), "")]


def test_an_undecodable_catalog_names_its_path(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff[a]\n")
    with pytest.raises(ValueError) as exc:
        resolve_catalog(path)
    assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
