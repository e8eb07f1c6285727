"""Write expected.txt: what `pairgate` does on each argv of argv.txt.

Run from the repository root, on the commit whose behaviour is the reference:

    PYTHONPATH=src python tests/corpus/regen.py

Each argv runs in this one process through `pairgate.cli.main`, in order, with
$PAIRGATE_MATERIALS unset, $COLUMNS at 80 (argparse wraps --help to it) and "{tmp}"
replaced by a fresh empty directory. Its record holds the exit code and stderr
verbatim; stdout verbatim, or for a sweep other than --help its sha256 and line
count; and, for an argv that names {tmp}, each file left there with its sha256
and size. tests/test_corpus.py replays the same records.
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
from pairgate.materials import MATERIALS_ENV_VAR

HERE = Path(__file__).resolve().parent
ARGV = HERE / "argv.txt"
EXPECTED = HERE / "expected.txt"


def argv_lines() -> list[str]:
    """The argv lines of the corpus, comments and blank lines dropped."""
    lines = ARGV.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(line: str, tmp: Path) -> str:
    """One case: its argv run through cli.main, rendered as the lines of its record."""
    for entry in tmp.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    argv = shlex.split(line.replace("{tmp}", str(tmp)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own rejections
            code = exc.code
    lines = [f"== {line}", f"exit: {code}"]
    lines += [f"stderr: {text}" for text in err.getvalue().replace(str(tmp), "{tmp}").splitlines()]
    stdout = out.getvalue()
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


def parse_expected(text: str) -> list[str]:
    """expected.txt split back into its records; each starts at a line "== <argv>"."""
    chunks: list[str] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            chunks.append("")
        chunks[-1] += line
    return chunks


if __name__ == "__main__":
    EXPECTED.write_text("".join(records(argv_lines())), encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)
