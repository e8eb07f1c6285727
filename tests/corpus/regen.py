"""Write expected.txt: what `pairgate` does on each argv of argv.txt.

Run from the repository root, on the commit whose behaviour is the reference:

    PYTHONPATH=src python tests/corpus/regen.py

Each argv runs in this one process through `pairgate.cli.main`, in order, with
$PAIRGATE_MATERIALS unset, $COLUMNS at 80 (argparse wraps --help to it) and "{tmp}"
replaced by a fresh empty directory. Its record holds the exit code and stderr
verbatim; stdout verbatim, or for a sweep other than --help its sha256 and line
count; and, for an argv that names {tmp}, each file left there with its sha256
and size. tests/test_corpus.py replays the same records; the tests that select
records by tag (a "#@" line of argv.txt) use tagged(), run() and expected().
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from pairgate import cli
from pairgate.constants import MATERIALS_ENV_VAR

HERE = Path(__file__).resolve().parent
ARGV = HERE / "argv.txt"
EXPECTED = HERE / "expected.txt"


def cases() -> list[tuple[str, frozenset[str]]]:
    """Each argv line of the corpus, in order, with the tags of the last "#@" line above it."""
    tags, found = frozenset(), []
    for line in ARGV.read_text(encoding="utf-8").splitlines():
        if line.startswith("#@"):
            tags = frozenset(line[2:].split())
        elif line.strip() and not line.startswith("#"):
            found.append((line, tags))
    return found


def argv_lines() -> list[str]:
    """The argv lines of the corpus, comments and blank lines dropped."""
    return [line for line, _ in cases()]


def tagged(tag: str) -> list[str]:
    """The argv lines that carry tag, in corpus order; a tag that no line carries is an
    error, so that a test reading it cannot pass on no case."""
    lines = [line for line, tags in cases() if tag in tags]
    if not lines:
        raise LookupError(f"no argv line of {ARGV.name} carries the tag {tag!r}")
    return lines


def split(line: str, tmp: Path) -> list[str]:
    """The argv of an argv line, with {tmp} standing for the directory tmp."""
    return shlex.split(line.replace("{tmp}", str(tmp)))


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main on argv in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render(line: str, code: int, stdout: str, stderr: str, tmp: Path) -> str:
    """The record of an argv line, given what its run gave and the directory that stood
    for {tmp}."""
    lines = [f"== {line}", f"exit: {code}"]
    lines += [f"stderr: {text}" for text in stderr.replace(str(tmp), "{tmp}").splitlines()]
    argv = shlex.split(line)
    if argv[0] == "sweep" and "--help" not in argv and stdout:
        rows = stdout.count("\n")
        lines.append(f"stdout-sha256: {_digest(stdout.encode())} lines={rows}")
    else:
        lines += [f"stdout: {text}" for text in stdout.splitlines()]
    if "{tmp}" in line:
        files = sorted(path for path in tmp.rglob("*") if path.is_file())
        lines += [f"file: {path.relative_to(tmp)} sha256={_digest(path.read_bytes())} "
                  f"bytes={path.stat().st_size}" for path in files] or ["file: none"]
    return "\n".join(lines) + "\n"


def record(line: str, tmp: Path) -> str:
    """One case: its argv run through cli.main, rendered as the lines of its record."""
    for entry in tmp.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    return render(line, *run(split(line, tmp)), tmp)


def records(lines: list[str]) -> list[str]:
    """The record of each argv line, all run in this process, in order."""
    saved = {name: os.environ.pop(name, None) for name in (MATERIALS_ENV_VAR, "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return [record(line, Path(tmp)) for line in lines]
    finally:
        os.environ.pop("COLUMNS")
        os.environ.update({name: value for name, value in saved.items() if value is not None})


def expected() -> dict[str, str]:
    """expected.txt as {argv line: its record}; each record starts at a line "== <argv>"."""
    found: dict[str, str] = {}
    for text in EXPECTED.read_text(encoding="utf-8").splitlines(keepends=True):
        if text.startswith("== "):
            line = text[3:].rstrip("\n")
            found[line] = ""
        found[line] += text
    return found


if __name__ == "__main__":
    EXPECTED.write_text("".join(records(argv_lines())), encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)
