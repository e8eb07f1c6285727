"""In-memory span tracer, attached to pairgate from outside its source.

`instrument` rebinds the names through which each pairgate module's callers
reach the layer below (the `cli` module's imported names, the `model` and
`oracle` module attributes, a few class attributes) to wrappers that record
a span per call. pairgate's files are not modified, and `restore` puts the
original objects back.

A span is (op, id, parent, name, start_ns, end_ns, dur_ns, self_ns, count,
work). All spans of one benchmark operation share `op`. Self time is the
span's duration minus the time covered by its traced children. Functions
called once per sweep point are aggregated: one record per (op, parent,
name) carrying the call count and summed durations, so a 100k-point sweep
keeps a handful of records instead of 300k spans. `work` counts what the
function handled (rows rendered, bytes emitted, grid points, RK4 steps).
"""

from __future__ import annotations

import functools
import json
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, prefix: str = "p") -> None:
        self.prefix = prefix
        self.op = None
        self.root = None
        self._records: list[tuple] = []
        self._aggregates: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._next = 0

    def begin(self, op, root=None) -> None:
        """Start attributing spans to operation `op`, under span `root`."""
        self.op, self.root = op, root

    def new_id(self) -> str:
        self._next += 1
        return f"{self.prefix}{self._next}"

    def call(self, name, fn, args, kwargs, aggregate=False, work=None):
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0] if top[0] is not None else top[1]
        else:
            parent = self.root
        frame = [None if aggregate else self.new_id(), parent, 0]
        stack.append(frame)
        result, done = None, False
        start = _now()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = _now()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][2] += dur
            amount = work(args, kwargs, result) if done and work is not None else 0
            if aggregate:
                key = (self.op, parent, name)
                agg = self._aggregates.get(key)
                if agg is None:
                    self._aggregates[key] = [start, end, dur, dur - frame[2], 1, amount]
                else:
                    agg[1] = end
                    agg[2] += dur
                    agg[3] += dur - frame[2]
                    agg[4] += 1
                    agg[5] += amount
            else:
                self._records.append(
                    (self.op, frame[0], parent, name, start, end, dur, dur - frame[2], 1, amount))

    def record(self, name, start, end, parent, span_id=None) -> str:
        """Add a span timed by the caller (a whole operation, an import).
        Its self time is left as its duration; readers subtract children."""
        span_id = span_id or self.new_id()
        self._records.append((self.op, span_id, parent, name, start, end, end - start, end - start, 1, 0))
        return span_id

    def spans(self) -> list[dict]:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "dur_ns", "self_ns", "count",
                "work")
        rows = list(self._records)
        rows += [(op, None, parent, name, *agg) for (op, parent, name), agg in self._aggregates.items()]
        return [dict(zip(keys, row)) for row in rows]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------
# attaching to pairgate
# --------------------------------------------------------------------------

def _rows(args, kwargs, result):
    return len(args[1])


def _bytes(args, kwargs, result):
    text = args[0]
    return len(text.encode("utf-8")) + (0 if text.endswith("\n") else 1)


def _points(args, kwargs, result):
    return len(result)


def _call_command(tracer, name, fn, args):
    return tracer.call(name, fn, (args,), {})


# Once-per-point model functions are aggregated; everything else is a span.
MODEL_FUNCTIONS = (
    "gain_coefficient", "pairs_per_bandwidth", "pair_flux_reduced", "effective_limit_intensity",
    "classify_regime", "limit_pump_intensity", "limit_criteria", "vacuum_fluctuation",
    "generated_field", "pump_for_gain", "field_ratio",
)
UNIT_PARSERS = (
    "parse_length", "parse_area", "parse_intensity", "parse_frequency", "parse_field",
    "parse_chi2", "parse_chi3",
)


def instrument(tracer: Tracer):
    """Wrap pairgate's layer boundaries; returns a function that undoes it."""
    from pairgate import cli, materials, model, oracle

    undo = []

    def wrap(owner, attr, name, aggregate=False, work=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, aggregate, work)

        setattr(owner, attr, traced)
        undo.append(lambda: setattr(owner, attr, original))

    build_parser = cli.build_parser

    @functools.wraps(build_parser)
    def traced_build_parser(*args, **kwargs):
        parser = tracer.call("cli.build_parser", build_parser, args, kwargs)
        parse = parser.parse_args
        parser.parse_args = lambda *a, **k: tracer.call("cli.parse_args", parse, a, k)
        return parser

    cli.build_parser = traced_build_parser
    undo.append(lambda: setattr(cli, "build_parser", build_parser))

    wrap(cli, "main", "cli.main")
    for attr in ("_build_medium", "_build_triplet", "_build_pump", "_render_table"):
        wrap(cli, attr, f"cli.{attr}")
    wrap(cli, "_render_csv", "cli._render_csv", work=_rows)
    wrap(cli, "_emit", "cli._emit", work=_bytes)
    wrap(cli.SweepSpec, "grid", "cli.SweepSpec.grid", work=_points)
    commands = dict(cli._COMMANDS)
    for command, fn in commands.items():
        cli._COMMANDS[command] = functools.partial(_call_command, tracer, f"cli.cmd_{command}", fn)
    undo.append(lambda: cli._COMMANDS.update(commands))

    for attr in UNIT_PARSERS:
        wrap(cli, attr, f"units.{attr}")
    for attr in ("format_sig", "format_intensity"):
        wrap(cli, attr, f"units.{attr}", aggregate=True)

    wrap(cli, "resolve_catalog", "materials.resolve_catalog")
    wrap(cli, "lookup", "materials.lookup")
    wrap(materials, "load_catalog", "materials.load_catalog")

    for attr in MODEL_FUNCTIONS:
        wrap(model, attr, f"model.{attr}", aggregate=True)
    wrap(cli, "triplet_from_wavelengths", "model.triplet_from_wavelengths", aggregate=True)
    wrap(model.PumpDrive, "__post_init__", "model.PumpDrive", aggregate=True)

    wrap(oracle, "oracle_pair_flux", "oracle.oracle_pair_flux")
    default_config = oracle.integrate.__defaults__[-1]

    def steps(args, kwargs, result):
        return (args[5] if len(args) > 5 else kwargs.get("config", default_config)).steps

    wrap(oracle, "integrate", "oracle.integrate", work=steps)

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
