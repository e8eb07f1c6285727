"""Parameter sweeps: the CSV text of `pairgate sweep`, checked whole, then streamed.

Only `cli.cmd_sweep` imports this module, after its last flag check, so no
other call, and no sweep that its flags reject, compiles it. It imports the
model, the gain and limit modules (each only in the sweep that runs it) and the
stdlib, never `pairgate.cli`: under `python -m pairgate.cli` the CLI runs as
`__main__`, and importing `pairgate.cli` would compile it again.
`cli` builds each sweep's `SweepSpec`, the grid, and passes it to csv() with
the model sweep of its swept quantity.

Each swept quantity has one model sweep, named after it: beta_l, pump_intensity
and length, and figure() picks a figure's. It computes the model's factors
constant along a sweep once (gain._gain_factors, limit._limit_factors) and
returns (header, columns, row): header names the CSV columns, the point's
first; columns, the package's only column loop, evaluates a block unchecked, by
comprehensions that repeat the scalar kernels' expressions in their order, as
tests pin bit for bit; and row is the scalar kernels at one point. _check_block,
the one place a block is checked, runs the row at its first, first nonzero and
last points, and walks a block they reject with the row, which raises at the
first offending point.

A sweep is checked, then rendered, SWEEP_BLOCK grid points at a time. The check
pass builds each block's points (SweepSpec.points) and checks them before any
block is rendered, so a failing sweep raises the scalar kernels' message at its
first offending point in grid order and renders, forks and writes nothing. No
point is kept: the process that renders a block builds its points by that same
call, and the rows are streamed in grid order, so memory does not grow with the
count. Block i is rendered by process i % cpus, over the CPUs the process may
run on: process 0 is the caller, and each other is an os.fork child that writes
its blocks to a pipe, each after its length. Where a pipe or fork fails, or a
child's block comes short because it died, the caller renders it, so the text
never depends on the path.
"""

import math
import os
import threading
from collections.abc import Iterator

from . import model
from .constants import CODATA2018, DEFAULT_WAVELENGTH

SWEEP_BLOCK = 4096  # grid points per block: a sweep of up to 4096 points never forks

# the reference-figure presets: each figure's grid (start, stop, count[, log]), of which cli
# builds the SweepSpec that csv() takes with figure(), and for a Gamma figure its process, the
# tag of its susceptibility and each column's (chi_eff, label), over a degenerate pair at
# DEFAULT_WAVELENGTH and unit indices
FIGURE_GRIDS = {"2": (0.0, 6.0, 121), "3": (1e-3, 1.0, 61, True), "4": (1e-3, 1e3, 121, True)}
_FIGURE_MEDIA = {
    "3": (model.Process.SPDC, "chi2", [(1e-12, "1pm_V"), (1e-11, "10pm_V"), (1e-10, "100pm_V")]),
    "4": (model.Process.FWM, "chi3",
          [(1e-22, "1e-22m2_V2"), (1e-20, "1e-20m2_V2"), (1e-18, "1e-18m2_V2")]),
}


# --------------------------------------------------------------------------
# the block check, and the model sweep, (header, columns, row), of each swept quantity
# --------------------------------------------------------------------------

def _check_block(points: list[float], row) -> None:
    """Raises what row, the scalar kernels of a sweep, raises at the first offending point of
    a block, or nothing. A block is a run of a SweepSpec grid, finite, from +0.0 up and never
    decreasing: row runs at its first, first nonzero and last points, its smallest, smallest
    nonzero and largest, and walks every point in order if one of them fails. Each value and
    partial product of a sweep is a rounded chain of products, quotients, sqrt and expm1 of the
    point, monotone in it, so the range rule holds at every point once it holds at those three.
    Columns repeat the row's expressions in their order: a passing block's columns are the
    walk's bits."""
    try:
        for point in (points[0], next(filter(None, points), 0.0), points[-1]):
            row(point)
        return
    except ValueError:
        pass
    for point in points:
        row(point)


def beta_l(delta_nu: float | None):
    """The model sweep of `sweep --variable beta_l` and figure 2: pairs_per_bandwidth and,
    given delta_nu, pair_flux_reduced."""
    per_hz = [0.125] if delta_nu is None else [0.125, 0.125 * delta_nu]

    def columns(beta_ls: list[float]) -> list[list[float]]:
        growths = list(map(math.expm1, beta_ls))
        return [[factor * g * g for g in growths] for factor in per_hz]

    def row(beta_l: float) -> list[float]:
        pairs = model.pairs_per_bandwidth(beta_l)
        return [pairs] if delta_nu is None else [pairs, model.pair_flux_reduced(beta_l, delta_nu)]

    return ["beta_l", "pairs_per_bandwidth", "pairs_per_s"][:len(per_hz) + 1], columns, row


def pump_intensity(medium: model.Medium, triplet: model.WaveTriplet, length: float,
                   delta_nu: float | None):
    """The model sweep of `sweep --variable pump_intensity` over length: beta*L, then the
    beta_l columns; the row is _gain_product, which checks length, and the flux kernels, as
    classify and flux run."""
    from .gain import _gain_factors, _gain_product

    chi, root = _gain_factors(medium, triplet)
    c, mu0, n_p, sqrt = CODATA2018.c, CODATA2018.mu0, medium.n_p, math.sqrt
    spdc = medium.process is model.Process.SPDC
    flux_header, flux_columns, flux_row = beta_l(delta_nu)

    def columns(intensities: list[float]) -> list[list[float]]:
        fields = [sqrt(2.0 * i * c * mu0 / n_p) for i in intensities]
        beta_ls = ([chi * e * root * length for e in fields] if spdc
                   else [chi * e * e * root * length for e in fields])
        return [beta_ls, *flux_columns(beta_ls)]

    def row(intensity: float) -> list[float]:
        beta_l = _gain_product(medium, triplet, model.PumpDrive(intensity=intensity), length)
        return [beta_l, *flux_row(beta_l)]

    return ["pump_intensity_W_per_m2", *flux_header], columns, row


def length(media: list[model.Medium], lambda_s: float, lambda_i: float,
           labels=("gamma_W_per_m2",)):
    """The model sweep of `sweep --variable length` and figures 3-4: Gamma, the
    effective_limit_intensity, of each medium of media, in the column of its label."""
    from .limit import _SPDC_LIMIT_SCALE, _limit_factors, _limit_intensity

    factors = [_limit_factors(medium, lambda_s, lambda_i, gamma=True) for medium in media]
    scale, pi, spdc = _SPDC_LIMIT_SCALE, math.pi, model.Process.SPDC

    def columns(lengths: list[float]) -> list[list[float]]:
        return [[numer / (scale * (x * chi) ** 2) for x in lengths] if process is spdc
                else [numer / (pi * x * chi) for x in lengths] for numer, chi, process in factors]

    return (["length_m", *labels], columns,
            lambda point: [_limit_intensity(point, *f, gamma=True) for f in factors])


def figure(number: str):
    """The model sweep of `sweep --figure number`, over the grid FIGURE_GRIDS[number]."""
    if number == "2":
        return beta_l(None)
    process, tag, chis = _FIGURE_MEDIA[number]
    return length([model.Medium(process=process, chi_eff=chi) for chi, _ in chis],
                  DEFAULT_WAVELENGTH, DEFAULT_WAVELENGTH,
                  [f"gamma_W_per_m2_{tag}_{label}" for _, label in chis])


# --------------------------------------------------------------------------
# checking, rendering and streaming the blocks
# --------------------------------------------------------------------------

def _render_block(points: list[float], columns) -> str:
    """The CSV rows of one block, each ending in a newline: the point, then the values of
    columns(points) at it. Each column is rendered by one C-level repr pass (str(float) is its
    shortest repr) and each row by one join."""
    cells = [list(map(repr, column)) for column in (points, *columns(points))]
    return "\n".join([*map(",".join, zip(*cells)), ""])


def _spawn(block, columns, indices: range):
    """(pid, pipe) of an os.fork child that writes the ASCII rows of block(i), for each i of
    indices, to pipe, each after its 8-byte length, and leaves by os._exit, so no exit handler
    or stdio flush runs; None where pipe or fork fails."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:  # room for a few blocks, so that a child renders ahead instead of waiting on a read
        import fcntl
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):  # F_SETPIPE_SZ is Linux's; the limit may be lower
        pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                for i in indices:
                    data = _render_block(block(i), columns).encode("ascii")
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
        finally:  # the caller reads no exit status: a block that comes short is its signal
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _receive(pipe) -> str | None:
    """The next block a child wrote to pipe, or None where it comes short: the child died."""
    head = pipe.read(8)
    if len(head) == 8:
        data = pipe.read(int.from_bytes(head, "little"))
        if len(data) == int.from_bytes(head, "little"):
            return data.decode("ascii")
    return None


def csv(spec, model_sweep) -> Iterator[str]:
    """The CSV text of a model sweep, its (header, columns, row), over spec, its SweepSpec, as
    chunks: every block of spec's grid is checked here, before the returned generator starts.
    It yields the header line, then the rows of each block in grid order."""
    header, columns, row = model_sweep

    def block(i: int) -> list[float]:
        return spec.points(i * SWEEP_BLOCK, (i + 1) * SWEEP_BLOCK)

    blocks = -(-spec.count // SWEEP_BLOCK)
    for i in range(blocks):
        _check_block(block(i), row)
    return _stream(",".join(header) + "\n", blocks, block, columns)


def _stream(header: str, blocks: int, block, columns) -> Iterator[str]:
    """header, then the rows of block(i) for each i < blocks, block i rendered by process
    i % cpus: 0 is this one, and the others are forked when the first chunk is asked for."""
    cpus = 1  # one process where threads are alive: a fork copies only the calling thread
    if blocks > 1 and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        cpus = min(blocks, len(os.sched_getaffinity(0)))
    children = [None]  # (pid, pipe) of each process, None for this one and a failed fork
    try:
        for k in range(1, cpus):
            children.append(_spawn(block, columns, range(k, blocks, cpus)))
        yield header
        for i in range(blocks):
            child = children[i % cpus]
            yield (child and _receive(child[1])) or _render_block(block(i), columns)
    finally:  # kill and reap every child, done or not, also where an exception ends the stream
        for pid, pipe in filter(None, children):
            import signal  # here, where a child was forked: at import it would cost ~1 ms
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
