"""The behaviour corpus: every argv of tests/corpus/argv.txt, replayed in one process
through cli.main, gives the exit code, stderr, stdout and --out files recorded in
tests/corpus/expected.txt, and the records tagged child give them again as
`python -m pairgate.cli` processes. A change that alters output regenerates expected.txt
with tests/corpus/regen.py and commits the diff. Other tests select records by tag; the
head of argv.txt says which. A --help record is compared with its usage lines joined, as
argparse breaks them in other places on other Python versions."""

import os
import subprocess
import sys

from conftest import regen
from pairgate.constants import MATERIALS_ENV_VAR

HELP = set(regen.tagged("help"))


def comparable(line: str, record: str) -> str:
    """The record of an argv line as the corpus compares it: a --help record with its usage
    lines, up to the first blank one, joined into one line with each run of whitespace one
    space, so a usage line broken in another place is the same record."""
    if line not in HELP:
        return record
    lines = record.splitlines(keepends=True)
    start = next(k for k, text in enumerate(lines) if text.startswith("stdout: usage:"))
    end = lines.index("stdout: \n", start)
    usage = " ".join("".join(text.removeprefix("stdout: ") for text in lines[start:end]).split())
    return "".join([*lines[:start], f"stdout: {usage}\n", *lines[end:]])


def test_corpus_replays_its_expected_records():
    lines = regen.argv_lines()
    expected = regen.expected()
    assert list(expected) == lines
    changed = [(want, got) for line, want, got in zip(lines, expected.values(),
                                                      regen.records(lines))
               if comparable(line, want) != comparable(line, got)]
    assert changed == []


def test_a_help_record_compares_equal_wherever_its_usage_lines_break():
    """Python 3.13's argparse breaks the oracle usage line before --beta-l, 3.10-3.12 after
    it: both forms are the one record, and a changed word is not."""
    line = "oracle --help"
    record = regen.expected()[line]
    py313 = record.replace("[--format {table,csv}] --beta-l\nstdout:                        BETA_L",
                           "[--format {table,csv}]\nstdout:                        --beta-l BETA_L")
    assert py313 != record
    assert comparable(line, py313) == comparable(line, record)
    changed = record.replace("--steps STEPS", "--steps N")
    assert comparable(line, changed) != comparable(line, record)


def test_child_records_replay_as_processes(tmp_path):
    """Start-up, `__main__` and the exit status: each child record, run concurrently as
    `python -m pairgate.cli` with $COLUMNS at 80 and $PAIRGATE_MATERIALS unset."""
    src = str(regen.HERE.parent.parent / "src")
    env = {name: value for name, value in os.environ.items() if name != MATERIALS_ENV_VAR}
    env.update(COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    lines = regen.tagged("child")
    dirs = [tmp_path / str(k) for k in range(len(lines))]
    children = []
    for line, tmp in zip(lines, dirs):
        tmp.mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-m", "pairgate.cli", *regen.split(line, tmp)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, encoding="utf-8"))
    got = []
    for line, tmp, child in zip(lines, dirs, children):
        out, err = child.communicate()
        got.append(regen.render(line, child.returncode, out, err, tmp))
    want = list(map(regen.expected().get, lines))
    assert list(map(comparable, lines, got)) == list(map(comparable, lines, want))
