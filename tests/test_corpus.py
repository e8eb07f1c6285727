"""The behaviour corpus: every argv of tests/corpus/argv.txt, replayed in one process
through cli.main, gives the exit code, stderr, stdout and --out files recorded in
tests/corpus/expected.txt. A change that alters output regenerates expected.txt with
tests/corpus/regen.py and commits the diff."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "corpus_regen", Path(__file__).parent / "corpus" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_corpus_replays_its_expected_records():
    lines = regen.argv_lines()
    expected = regen.parse_expected(regen.EXPECTED.read_text(encoding="utf-8"))
    assert [record.split("\n", 1)[0] for record in expected] == [f"== {line}" for line in lines]
    changed = [(want, got) for want, got in zip(expected, regen.records(lines)) if want != got]
    assert changed == []
