"""One pairgate CLI call under the span tracer, for traced cli_oneshot runs.

    python3 bench/tracechild.py SPANS_FILE OP_ID PARENT_SPAN -- ARGV...

Behaves like `python -m pairgate.cli ARGV` (same output, same exit code)
and writes the call's spans, import included, to SPANS_FILE as JSON lines.
"""

import sys
import time

from tracer import Tracer, instrument


def main() -> int:
    spans_file, op_id, parent = sys.argv[1:4]
    argv = sys.argv[5:]
    tracer = Tracer(prefix=f"c{op_id}.")
    tracer.begin(int(op_id), parent)
    start = time.perf_counter_ns()
    import pairgate.cli as cli

    tracer.record("import.pairgate_cli", start, time.perf_counter_ns(), parent=parent)
    instrument(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
