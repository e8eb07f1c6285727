"""The behaviour corpus: every argv of tests/corpus/argv.txt, replayed in one process
through cli.main, gives the exit code, stderr, stdout and --out files recorded in
tests/corpus/expected.txt, and the records tagged child give them again as
`python -m pairgate.cli` processes. A change that alters output regenerates expected.txt
with tests/corpus/regen.py and commits the diff. Other tests select records by tag; the
head of argv.txt says which."""

import os
import subprocess
import sys

from conftest import regen
from pairgate.constants import MATERIALS_ENV_VAR


def test_corpus_replays_its_expected_records():
    lines = regen.argv_lines()
    expected = regen.expected()
    assert list(expected) == lines
    changed = [(want, got) for want, got in zip(expected.values(), regen.records(lines))
               if want != got]
    assert changed == []


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
    assert got == list(map(regen.expected().get, lines))
