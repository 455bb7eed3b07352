"""Scenario runner: JSON scenarios in, CSV trajectories and JSON summaries out.

A scenario file selects exactly one command and supplies its parameters::

    {
      "command": "hazard",
      "state":    {"a": [x, y, z] | null, "q": number | "pi/4" | null,
                   "c1": number, "c2": number},
      "schedule": {"t": number | "pi/4", "steps": [number | string, ...]},
      "grid":     {"axis": "t|s|q|a2|c1", "start": ..., "stop": ..., "count": int},
      "n": int, "tol": number, "seed": int
    }

"grid" may be one object or a list of them.  Angle-valued fields (q, t,
steps, grid start/stop) accept rational multiples of pi as strings such as
"pi/4", "2pi/3" or "-pi/6"; all angles are radians.  `FIELDS` (how each
field is read) and `COMMANDS` (what each command accepts) are the one
statement of the schema.  Anything else -- an unknown field or one the
command does not use, a wrongly typed or out-of-range value -- exits with
status 1 and writes nothing; the message starts with the field path.  Exit
status 2 flags an internal validation failure (oracle disagreement above
tolerance) after the report files are written.

Each CSV's columns are documented in the README.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
import pickle
import re
import shutil
import sys
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import checks
from .conjunction import _fold, _greedy_rows, conjunct, first_unphysical_n
from .dynamics import rotate
from .dynamics import evolve_mean_values  # noqa: F401  no longer called; perfbench traces this binding
from .floatrepr import float_reprs
from .pauli import _norms
from .slippage import max_safe_repetitions, slip_state, slipped_domain_check
from .tolerances import DEFAULT_TOL, exceeds, inside

# most CSV rows one run may write; checked before any compute (the largest
# benchmark workload writes 200,200)
ROW_BUDGET = 10**7

# largest |value| of any number in a scenario: every square and norm the
# commands take (up to (n + 1) c1^2 within the row budget) and every angle
# sum stays finite, so no run writes inf or nan
MAX_MAGNITUDE = 1e150

_PI_PATTERN = re.compile(r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


class ScenarioError(Exception):
    """Raised for any malformed scenario file; reported with exit status 1."""


def parse_angle(value: Any, where: str) -> float:
    """Accept a bounded finite number or a rational-multiple-of-pi string."""
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number or pi-string, got {value!r}")
    if isinstance(value, (int, float)):
        return _require_number(value, where)
    if isinstance(value, str):
        m = _PI_PATTERN.match(value)
        if not m:
            raise ScenarioError(f"{where}: cannot parse angle {value!r} (use e.g. \"pi/4\")")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        divisor = float(m.group(3)) if m.group(3) else 1.0
        if divisor == 0.0:
            raise ScenarioError(f"{where}: zero divisor in angle {value!r}")
        return _require_number(sign * coeff * math.pi / divisor, where)
    raise ScenarioError(f"{where}: expected a number or pi-string, got {type(value).__name__}")


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number")
    if abs(value) > MAX_MAGNITUDE:
        raise ScenarioError(f"{where}: magnitude above {MAX_MAGNITUDE:g}")
    return value


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _at_least_0(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """`read`, with a value below 0 rejected."""
    def require(value: Any, where: str):
        value = read(value, where)
        if value < 0:
            raise ScenarioError(f"{where}: must be >= 0")
        return value
    return require


_require_tol, _require_seed = _at_least_0(_require_number), _at_least_0(_require_int)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}.{key}: not accepted here (allowed: {', '.join(allowed)})")


class Grid(NamedTuple):
    axis: str
    start: float
    stop: float
    count: int

    def at(self, index) -> np.ndarray:
        """np.linspace(start, stop, count)[index], bit for bit, from the
        indices alone; a grid of count 1 is the one value `start`."""
        y = np.asarray(index, dtype=float)
        if self.count == 1:
            return np.full(y.shape, self.start)
        div = self.count - 1
        delta = self.stop - self.start
        step = delta / div
        # as linspace: a step that underflows to 0 scales by delta after dividing
        y = y / div * delta if step == 0 else y * step
        y += self.start
        y[np.asarray(index) == div] = self.stop
        return y


class Scenario(NamedTuple):
    """A checked scenario, built once from its final fields: the q
    shorthand already expanded to a, c1 and c2."""

    command: str
    a: Optional[np.ndarray] = None
    q: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    t: Optional[float] = None
    steps: Optional[tuple[float, ...]] = None
    grids: tuple[Grid, ...] = ()
    n: Optional[int] = None
    tol: float = DEFAULT_TOL
    seed: int = 0

    def grid(self, axis: str) -> Optional[Grid]:
        return next((g for g in self.grids if g.axis == axis), None)


def _or_null(read: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """`read`, with a null value read as absent (None)."""
    return lambda value, where: None if value is None else read(value, where)


def _require_vector(value: Any, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"{where}: expected a list of three numbers")
    return np.array([_require_number(x, f"{where}[{i}]") for i, x in enumerate(value)])


def _require_steps(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where}: expected a non-empty list")
    return tuple(parse_angle(s, f"{where}[{i}]") for i, s in enumerate(value))


def _parse_grids(raw: Any, _where: str) -> tuple[Grid, ...]:
    # a message starts with its entry's own path, grid[i]
    entries = raw if isinstance(raw, list) else [raw]
    grids: list[Grid] = []
    for i, g in enumerate(entries):
        where = f"grid[{i}]"
        if not isinstance(g, dict):
            raise ScenarioError(f"{where}: expected an object")
        _check_keys(g, ("axis", "start", "stop", "count"), where)
        for key in ("axis", "start", "stop", "count"):
            if key not in g:
                raise ScenarioError(f"{where}.{key}: required")
        axis = g["axis"]
        if not isinstance(axis, str) or axis not in ("t", "s", "q", "a2", "c1"):
            raise ScenarioError(f"{where}.axis: expected one of t, s, q, a2, c1")
        if any(prev.axis == axis for prev in grids):
            raise ScenarioError(f"{where}.axis: duplicate axis {axis!r}")
        start = parse_angle(g["start"], f"{where}.start")
        stop = parse_angle(g["stop"], f"{where}.stop")
        count = _require_int(g["count"], f"{where}.count")
        if count < 2:
            raise ScenarioError(f"{where}.count: must be >= 2, got {count}")
        if not start < stop:
            raise ScenarioError(f"{where}: start must be < stop")
        grids.append(Grid(axis=axis, start=start, stop=stop, count=count))
    return tuple(grids)


# the reader of each field path a command may accept: (value, where) -> the
# value read, or None for a null read as absent; `where` starts each message
FIELDS = {
    "state.a": _or_null(_require_vector),
    "state.q": _or_null(parse_angle),
    "state.c1": _require_number,
    "state.c2": _require_number,
    "schedule.t": parse_angle,
    "schedule.steps": _require_steps,
    "grid": _parse_grids,
    "n": _require_int,
    "tol": _require_tol,
    "seed": _require_seed,
}


def _read(raw: Any, paths: tuple[str, ...], values: dict, group: str = "") -> None:
    """Read the level `group` ("" for the top, "state" or "schedule") of a
    scenario into `values`.  Its keys must be those of the accepted `paths`
    (and "command" at the top), listed in spec order, and its fields are read
    in that order: a field by its `FIELDS` entry, a group by this walk."""
    where, prefix = (group, f"{group}.") if group else ("scenario", "")
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object")
    keys = tuple(dict.fromkeys(path[len(prefix):].partition(".")[0]
                               for path in paths if path.startswith(prefix)))
    _check_keys(raw, keys if group else ("command",) + keys, where)
    for key in (key for key in keys if key in raw):
        if prefix + key not in FIELDS:  # a group
            _read(raw[key], paths, values, key)
        elif (value := FIELDS[prefix + key](raw[key], f"{where}.{key}")) is not None:
            values[key] = value


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file and check it against its command's spec in `COMMANDS`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"scenario: cannot read file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ScenarioError(f"scenario: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: expected a JSON object")
    command = raw.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ScenarioError(f"scenario.command: expected one of {', '.join(COMMANDS)}")
    spec = COMMANDS[command]
    values: dict = {}
    _read(raw, spec.fields, values)

    if "state.a" in spec.fields:  # the state in full, or as the edge-state shorthand q
        if ("a" in values) == ("q" in values):
            raise ScenarioError("state: give exactly one of 'a' or 'q'")
        if "q" in values:
            for key in ("c1", "c2"):
                if key in values:
                    raise ScenarioError(f"state.{key}: the q shorthand fixes c1 = sin q and c2 = 0")
            q = values["q"]
            values.update(a=np.array([0.0, math.cos(q), 0.0]), c1=math.sin(q), c2=0.0)
        else:
            values.setdefault("c1", 0.0)
            values.setdefault("c2", 0.0)
    sc = Scenario(command, grids=values.pop("grid", ()), **values)
    for field in spec.required:
        if field.rpartition(".")[2] not in values:
            raise ScenarioError(f"{field}: required")
    if spec.either:
        field, axis = spec.either
        if (field.rpartition(".")[2] in values) == (sc.grid(axis) is not None):
            raise ScenarioError(f"{field}: give exactly one of {field} or a grid with axis "
                                f"{axis!r}")
    for axis in spec.axes:
        if sc.grid(axis) is None:
            raise ScenarioError(f"grid: axis {axis!r} is required")
    for i, g in enumerate(sc.grids):
        if g.axis not in spec.axes + spec.either[1:]:
            raise ScenarioError(f"grid[{i}].axis: {command} takes no {g.axis!r} axis")
    if spec.n_min is not None and (sc.n is None or sc.n < spec.n_min):
        raise ScenarioError(f"scenario.n: {command} requires an integer n >= {spec.n_min}")
    if spec.on_slice:
        if sc.c2:
            raise ScenarioError(f"state.c2: {command} runs on the slice c2 = 0")
        if sc.a is not None and (sc.a[0] != 0.0 or sc.a[2] != 0.0):
            raise ScenarioError(f"state.a: {command} runs on the slice a = [0, a2, 0]")

    factors = [(f"grid[{i}].count", g.count) for i, g in enumerate(sc.grids)]
    if spec.n_min is not None:
        factors.append(("scenario.n", sc.n - spec.n_min + 1))
    if sc.steps is not None:  # a trajectory: one row per leg
        factors.append(("schedule.steps", len(sc.steps) + 1))
    rows = math.prod(count for _, count in factors)
    if rows > ROW_BUDGET:
        where = max(factors, key=lambda factor: factor[1])[0]
        raise ScenarioError(f"{where}: the run would write {rows} rows, over the budget "
                            f"of {ROW_BUDGET}")
    return sc


class Body:
    """A CSV body of `rows` rows computed on demand: `chunk(lo, hi)` returns
    rows [lo, hi) as a tuple of columns (per column a float or bool ndarray,
    or a list of formatted cells) and that range's partial summary, and
    `fold(left, right)` merges the partials of two adjacent ranges, the left
    one first, so the partials fold in row order."""

    __slots__ = ("rows", "chunk", "fold")

    def __init__(self, rows: int, chunk: Callable[[int, int], tuple[tuple, Any]],
                 fold: Callable[[Any, Any], Any] = lambda left, right: None):
        self.rows, self.chunk, self.fold = rows, chunk, fold

    def __len__(self) -> int:
        return self.rows

    @classmethod
    def up_front(cls, *columns) -> "Body":
        """Rows computed before the emit, served by slicing, with no partial
        summary: for bodies no longer than what the scenario itself holds,
        the `conjunct` trajectory (one row per leg of its `steps` list) and
        `validate` (one row per check), which streaming would not bound."""
        return cls(len(columns[0]), lambda lo, hi: (tuple(c[lo:hi] for c in columns), None))


# rows computed, formatted and written per chunk, so no run holds more than
# one chunk of its body; a longer body is computed half in a forked child
_CHUNK_ROWS = 1 << 12


def _text(values) -> np.ndarray:
    """repr of each value's Python int or float, as an object array."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return np.array(float_reprs(values), dtype=object)
    return np.array(list(map(repr, values.tolist())), dtype=object)


def _lookup(table: Callable[[np.ndarray], np.ndarray], count: int) -> Callable[[np.ndarray], Any]:
    """`table(indices)` of an axis of `count` values, looked up by index along
    its last axis.  An axis that fits in one chunk is tabled once per run; a
    longer one once per chunk, each distinct index once."""
    if count <= _CHUNK_ROWS:
        whole = table(np.arange(count))
        return lambda index: whole[..., index]

    def lookup(index: np.ndarray):
        # sorted, not np.unique: its first call imports numpy.ma
        distinct = np.array(sorted(set(index.tolist())))
        return table(distinct)[..., np.searchsorted(distinct, index)]

    return lookup


def _axis(at: Callable[[np.ndarray], np.ndarray], count: int) -> Callable[[np.ndarray], list]:
    """The cells of a grid axis of `count` values, `at(indices)`, looked up by
    index (`_lookup`), so each distinct value is formatted once."""
    text = _lookup(lambda index: _text(at(index)), count)
    return lambda index: text(index).tolist()


# a bool column's cells, looked up by index: no str is built per cell.  The
# index is intp, numpy's own index type; a uint8 index is as fast but is
# cast through numpy's buffers, which raises the peak RSS
_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _cells(columns: tuple) -> list[list[str]]:
    """The cells of a chunk's columns: a list column as it is, a bool column
    looked up, and every float column from one `float_reprs` call over all
    of them, so a short body's columns reach its array path together."""
    floats = [column for column in columns
              if isinstance(column, np.ndarray) and column.dtype != bool]
    text = float_reprs(np.concatenate(floats)) if floats else []
    cells, at = [], 0
    for column in columns:
        if not isinstance(column, np.ndarray):
            cells.append(column)
        elif column.dtype == bool:
            cells.append(_BOOL_TEXT[column.astype(np.intp)].tolist())
        else:
            cells.append(text[at:at + column.size])
            at += column.size
    return cells


def _write_rows(fh, rows, lo: int, hi: int):
    """Compute and write rows [lo, hi) one chunk at a time; returns their
    partial summary folded in row order (None for no rows)."""
    partial = None
    for start in range(lo, hi, _CHUNK_ROWS):
        columns, part = rows.chunk(start, min(start + _CHUNK_ROWS, hi))
        cells = _cells(columns)
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        partial = part if start == lo else rows.fold(partial, part)
    return partial


def _fork_is_quiet() -> bool:
    """os.fork exists and does not warn: from Python 3.12 on it warns
    (DeprecationWarning) in a process with more than one OS thread, counted
    here as the kernel counts them, in the task list of /proc."""
    if not hasattr(os, "fork"):
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no procfs: the thread count is unknown
        return False


def _child(rows, lo: int, hi: int, part: str, pipe: int) -> None:
    """The forked child: rows [lo, hi) into `part`, then (partial summary,
    None) or (None, the exception that stopped it) pickled into `pipe`.
    Leaves through os._exit, status 0 only once both are written."""
    status = 1
    try:
        try:
            with open(part, "w", encoding="utf-8", newline="\n") as fh:
                result = _write_rows(fh, rows, lo, hi), None
        except Exception as exc:  # raised again in the parent
            result = None, exc
        try:
            blob = pickle.dumps(result)
        except Exception:  # an exception that does not pickle
            blob = pickle.dumps((None, RuntimeError(repr(result[1]))))
        with os.fdopen(pipe, "wb") as fh:
            fh.write(blob)
        status = 0
    finally:
        os._exit(status)


def emit_csv(header: list[str], rows: Body, path: str):
    """Compute the body `rows` and stream it to `path` as UTF-8,
    LF-terminated CSV, `_CHUNK_ROWS` rows at a time.  Returns the rows'
    partial summary, folded in row order.

    A float cell is exactly `float.__repr__` of its value, written by one
    `floatrepr.float_reprs` call over all the float columns of a chunk:
    from exact integer arithmetic for 1e-4 <= |x| < 1e16, where repr writes
    fixed notation, and by repr itself for zero, values outside that range,
    ties between two shortest decimals and chunks of fewer than
    `floatrepr.CROSSOVER` float cells.

    A body of more than one chunk is computed and formatted on two cores:
    one forked child computes rows [n//2, n) into `<path>.part` and hands
    its partial summary back through a pipe, while this process writes the
    header and rows [0, n//2); then the part is appended and the child's
    partial folded after this process's own.  An exception in the child is
    raised again here, so an OSError still means the output could not be
    written and a compute error stays what it was.  The child leaves through
    os._exit, so no atexit handler or inherited buffer runs twice; a child
    that dies without a result raises ChildProcessError.  An interrupt kills
    and reaps the child, and the part file never outlives the call.

    The split is taken only where `os.fork` exists and does not warn:
    Python 3.12 and later warn when the process runs other OS threads, so
    there it needs a single-threaded process.  Before 3.12 it forks beside
    an OpenBLAS thread pool, and the child calls numpy kernels that reach
    BLAS and LAPACK (`pauli._norms`' matmul, and `eigvalsh` on `domain-map`).
    That relies on OpenBLAS's own fork handler: it registers
    `blas_thread_shutdown` with pthread_atfork, so the pool is stopped
    before the fork and restarted on the next call in either process, and
    the child inherits no pool lock (OpenBLAS's pthreads build, which numpy
    ships).  Otherwise, or if the fork fails, one process writes every row.
    """
    n = len(rows)
    mid = n // 2 if n > _CHUNK_ROWS and _fork_is_quiet() else n
    part = f"{path}.part"
    pid = pipe = None
    if mid < n:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            mid = n
        if pid == 0:
            os.close(read_end)
            _child(rows, mid, n, part, write_end)
        os.close(write_end)
        pipe = os.fdopen(read_end, "rb")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            partial = _write_rows(fh, rows, 0, mid)
        if pid is not None:
            blob = pipe.read()
            _, status = os.waitpid(pid, 0)
            pid = None
            if status or not blob:
                raise ChildProcessError(f"the child computing rows {mid} to {n} exited with "
                                        f"status {os.waitstatus_to_exitcode(status)}")
            right, exc = pickle.loads(blob)
            if exc is not None:
                raise exc
            partial = rows.fold(partial, right)
            with open(part, "rb") as src, open(path, "ab") as dst:
                shutil.copyfileobj(src, dst)
    finally:
        if pid is not None:  # interrupted before the child was reaped
            import signal  # here only: no other path of a run needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe is not None:
            pipe.close()
        if mid < n:
            with contextlib.suppress(OSError):
                os.remove(part)
    return partial


def _run_evolve(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    t_grid = sc.grids[0]

    def chunk(lo: int, hi: int) -> tuple[tuple, None]:
        t = t_grid.at(np.arange(lo, hi))
        a1, a2, a3, c1, c2 = rotate(sc.a, sc.c1, sc.c2, t)
        return (t, a1, a2, [repr(float(a3))] * t.size, c1, c2, _norms(a1, a2, a3)), None

    header = ["t", "a1", "a2", "a3", "c1", "c2", "norm_a"]
    return header, Body(t_grid.count, chunk), lambda _: {}


def _first_maximum(left: tuple, right: tuple) -> tuple:
    """Fold of (maximum, its s, first hazard s): the left maximum wins a
    tie, so the first maximiser stays; the first hazard is the left one."""
    best = left if left[0] >= right[0] else right
    return best[0], best[1], right[2] if left[2] is None else left[2]


def _first_hazard(magnitudes: np.ndarray, tol: float) -> Optional[int]:
    """Index of the first magnitude that `tolerances.exceeds` 1 + tol, or
    None: the first hazard of both `conjunct` modes."""
    hazards = np.flatnonzero(exceeds(magnitudes, tol))
    return int(hazards[0]) if hazards.size else None


def _run_conjunct(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    a, c1, c2 = sc.a, sc.c1, sc.c2
    s_grid = sc.grid("s")
    if s_grid is None:
        # trajectory mode: explicit schedule, frozen-map vs exact side by side
        durations = (sc.t, *sc.steps)
        magnitudes, trajectory = conjunct(c1, c2, a, durations)
        header = [
            "step", "duration", "cumulative_time",
            "conj_a1", "conj_a2", "conj_a3", "conj_norm",
            "exact_a1", "exact_a2", "exact_a3", "exact_norm",
        ]
        # the exact state after leg k: one rotation by the durations summed left to right
        cumulative = np.array(list(itertools.accumulate(durations)))
        exact = rotate(a, c1, c2, cumulative)[:3]
        rows = Body.up_front(list(map(repr, range(cumulative.size))), np.array(durations),
                             cumulative, *trajectory.T, magnitudes,
                             exact[0], exact[1], [repr(float(exact[2]))] * cumulative.size,
                             _norms(*exact))
        peak = float(magnitudes.max())
        summary = {
            "first_unphysical_step": _first_hazard(magnitudes, tol),
            "worst_margin": 1.0 - peak,
            "max_magnitude": peak,
        }
        return header, rows, lambda _: summary

    # sweep mode: one reuse of duration s over a grid, after the first leg t
    first_leg = conjunct(c1, c2, a, [sc.t])[1][0]

    def chunk(lo: int, hi: int) -> tuple[tuple, tuple]:
        s = s_grid.at(np.arange(lo, hi))
        magnitudes, trajectory = conjunct(c1, c2, first_leg, s[None])
        conj, norm_conj = trajectory[0], magnitudes[0]
        exact = rotate(a, c1, c2, sc.t + s)[:3]
        norm_exact = _norms(*exact)
        rows = (s, exact[1], conj[1], norm_exact, norm_conj, 1.0 - norm_exact, 1.0 - norm_conj)
        argmax, hazard = int(np.argmax(conj[1])), _first_hazard(norm_conj, tol)
        return rows, (float(conj[1][argmax]), float(s[argmax]),
                      None if hazard is None else float(s[hazard]))

    header = ["s", "sigma2_exact", "sigma2_conjunction",
              "norm_exact", "norm_conjunction", "margin_exact", "margin_conjunction"]
    keys = ("max_sigma2_conjunction", "argmax_s", "first_hazard_s")
    return header, Body(s_grid.count, chunk, _first_maximum), lambda p: dict(zip(keys, p))


def _each(op: Callable[[Any, Any], Any]) -> Callable[[tuple, tuple], tuple]:
    """The fold of two partials that merges them entry by entry with `op`."""
    return lambda left, right: tuple(map(op, left, right))


def _run_hazard(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    q_grid = sc.grid("q") or Grid("q", sc.q, sc.q, 1)
    s_grid = sc.grid("s")
    q_cells = _axis(q_grid.at, q_grid.count)

    def by_s(index: np.ndarray) -> np.ndarray:
        """The cells of s, then of sigma2_exact = cos s and its margin: the
        exact edge state turns rigidly to cos s for every q, so these cells
        go by s alone."""
        s = s_grid.at(index)
        cos_s = np.cos(s)
        return np.stack([_text(column) for column in (s, cos_s, 1.0 - np.abs(cos_s))])

    s_cells = _lookup(by_s, s_grid.count)

    def turns(grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
        """(cos, sin) of the axis' values, taken once per value (`_lookup`)."""
        def table(index: np.ndarray) -> np.ndarray:
            angle = grid.at(index)
            return np.stack((np.cos(angle), np.sin(angle)))

        return _lookup(table, grid.count)

    q_turn, s_turn = turns(q_grid), turns(s_grid)

    def chunk(lo: int, hi: int) -> tuple[tuple, tuple]:
        # rows run over s within each q
        qi, si = np.unravel_index(np.arange(lo, hi), (q_grid.count, s_grid.count))
        # the edge state a2 = cos q, c1 = sin q, frozen over the legs q and s
        cos_q, sin_q = q_turn(qi)
        conj = _fold(cos_q, sin_q, ((cos_q, sin_q), s_turn(si)))
        size = np.abs(conj)
        s, exact, margin = s_cells(si).tolist()
        rows = (q_cells(qi), s, exact, conj, margin, 1.0 - size)
        return rows, (float(conj.max()), float(size.max()))

    def summary(partial: tuple) -> dict:
        # |sigma2| past 1 + tol either way leaves the Bloch ball on this slice
        return {"max_sigma2_conjunction": partial[0], "hazard": exceeds(partial[1], tol)}

    header = ["q", "s", "sigma2_exact", "sigma2_conjunction", "margin_exact", "margin_conjunction"]
    return header, Body(q_grid.count * s_grid.count, chunk, _each(max)), summary


def _run_growth(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    a2, c1 = float(sc.a[1]), sc.c1

    def chunk(lo: int, hi: int) -> tuple[tuple, float]:
        durations, magnitudes = _greedy_rows(a2, c1, np.arange(lo, hi))
        rows = (list(map(repr, range(lo, hi))), durations, magnitudes, exceeds(magnitudes, tol))
        return rows, float(magnitudes[-1])  # a range's partial: its last magnitude

    def summary(final: float) -> dict:
        safe = max_safe_repetitions(a2, c1)
        return {
            "first_unphysical_n": first_unphysical_n(a2, c1),
            "max_safe_repetitions": str(safe) if safe == math.inf else safe,  # JSON has no inf
            "final_magnitude": final,
        }

    header = ["k", "duration", "magnitude", "exceeds_unit"]
    # the right partial wins the fold: the body's is its final magnitude
    return header, Body(sc.n + 1, chunk, lambda left, right: right), summary


def _run_domain_map(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    a2_grid, c1_grid = sc.grid("a2"), sc.grid("c1")
    a2_cells, c1_cells = _axis(a2_grid.at, a2_grid.count), _axis(c1_grid.at, c1_grid.count)
    points = a2_grid.count * c1_grid.count

    def chunk(lo: int, hi: int) -> tuple[tuple, tuple]:
        # rows run over c1 within each a2
        ai, ci = np.unravel_index(np.arange(lo, hi), (a2_grid.count, c1_grid.count))
        sl, sup, best, near, agree = checks.three_way_agreement(a2_grid.at(ai), c1_grid.at(ci),
                                                                tol)
        rows = (a2_cells(ai), c1_cells(ci), sl, sup, best, near, agree)
        return rows, (int(near.sum()), int((~near & ~agree).sum()))

    def summary(partial: tuple) -> dict:
        return {"points": points, "near_boundary": partial[0], "disagreements": partial[1]}

    header = ["a2", "c1", "slice_margin", "supnorm_margin", "oracle_margin",
              "near_boundary", "agree"]
    return header, Body(points, chunk, _each(operator.add)), summary


def _run_slippage(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    a2_grid = sc.grid("a2")
    c1_grid = sc.grid("c1") or Grid("c1", sc.c1, sc.c1, 1)
    shape = (sc.n, a2_grid.count, c1_grid.count)
    n_cells = _axis(lambda index: index + 1, sc.n)
    a2_cells, c1_cells = _axis(a2_grid.at, a2_grid.count), _axis(c1_grid.at, c1_grid.count)

    def chunk(lo: int, hi: int) -> tuple[tuple, None]:
        # rows run over c1 within a2 within n = 1 .. sc.n
        ni, ai, ci = np.unravel_index(np.arange(lo, hi), shape)
        n, a2, c1 = ni + 1, a2_grid.at(ai), c1_grid.at(ci)
        margin = slipped_domain_check(a2, c1, n)
        return (n_cells(ni), a2_cells(ai), c1_cells(ci),
                inside(margin, tol), margin, slip_state(a2, c1, n)), None

    header = ["n", "a2", "c1", "inside", "margin", "a2_slipped"]
    return header, Body(math.prod(shape), chunk), lambda _: {"max_n": sc.n}


def _run_validate(sc: Scenario, tol: float, seed: int) -> tuple[list, Body, Callable]:
    """Oracle cross-check suites; any failed check flips the exit status to 2."""
    names, metrics, values, bounds = zip(*checks.validate_suite(np.random.default_rng(seed), tol))
    # compared as Python numbers: an integer count stays exact
    passed = [value < bound for value, bound in zip(values, bounds)]
    details = [f"{metric}={value:.3e}" if isinstance(value, float) else f"{metric}={value}"
               for metric, value in zip(metrics, values)]
    rows = Body.up_front(list(names), np.array(passed), details)
    failed = passed.count(False)
    summary = {"passed": len(rows) - failed, "failed": failed}
    return ["check", "passed", "detail"], rows, lambda _: summary


class _Spec(NamedTuple):
    """What one command accepts; `load_scenario` checks each scenario against it.

    A spec accepting "state.a" takes the state in full (a, c1, c2) or as
    the edge-state shorthand q, exactly one; `load_scenario` expands q to
    a = [0, cos q, 0], c1 = sin q, c2 = 0 and defaults c1 and c2 to 0, so
    its runner reads a, c1 and c2 only.  `either` is (field path, grid
    axis): one value given at the path or as the axis, exactly one.  With
    `n_min`, n is required, at least n_min, and the run writes n - n_min + 1
    rows per grid point.  `on_slice` restricts the state to c2 = 0 and
    a = [0, a2, 0].
    """

    # (header, the rows as a `Body`, summary from the folded partial)
    runner: Callable[[Scenario, float, int], tuple[list, Body, Callable[[Any], dict]]]
    fields: tuple[str, ...]  # the `FIELDS` paths it accepts, in reading order
    axes: tuple[str, ...] = ()  # the grid axes it requires
    either: tuple[str, ...] = ()
    required: tuple[str, ...] = ()  # field paths that must be given
    n_min: Optional[int] = None
    on_slice: bool = False


_FULL_STATE = ("state.a", "state.q", "state.c1", "state.c2")

# with `FIELDS`, the one statement of what each command accepts
COMMANDS = {
    "evolve": _Spec(_run_evolve, (*_FULL_STATE, "grid", "tol", "seed"), axes=("t",)),
    "conjunct": _Spec(_run_conjunct, (*_FULL_STATE, "schedule.t", "schedule.steps", "grid", "tol",
                                      "seed"),
                      either=("schedule.steps", "s"), required=("schedule.t",)),
    "hazard": _Spec(_run_hazard, ("state.q", "grid", "tol", "seed"), axes=("s",),
                    either=("state.q", "q")),
    "growth": _Spec(_run_growth, (*_FULL_STATE, "n", "tol", "seed"), n_min=0, on_slice=True),
    "domain-map": _Spec(_run_domain_map, ("grid", "tol", "seed"), axes=("a2", "c1")),
    "slippage": _Spec(_run_slippage, ("state.c1", "state.c2", "grid", "n", "tol", "seed"),
                      axes=("a2",), either=("state.c1", "c1"), n_min=1, on_slice=True),
    "validate": _Spec(_run_validate, ("tol", "seed")),
}


def run(scenario_path: str, out_dir: str = ".", seed: Optional[int] = None,
        tol: Optional[float] = None, *, command: Optional[str] = None) -> int:
    """Execute a scenario file; returns the process exit status.

    Flag values win over scenario fields; defaults are seed 0, tol `DEFAULT_TOL`.
    With `command`, the scenario must be of that command.  Both files are
    written to temporary names in `out_dir` and moved into place with
    os.replace once both are complete: a failing run (exit 1) leaves nothing.
    """
    try:
        sc = load_scenario(scenario_path)
        if command is not None and sc.command != command:
            raise ScenarioError(f"scenario.command: {sc.command!r}, but the {command!r} "
                                f"subcommand was invoked")
        tol = sc.tol if tol is None else FIELDS["tol"](tol, "--tol")
        seed = sc.seed if seed is None else FIELDS["seed"](seed, "--seed")
        header, rows, finish = COMMANDS[sc.command].runner(sc, tol, seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_name = sc.command.replace("-", "_") + ".csv"
    # the summary moves last: once it is in place, the CSV is complete
    targets = [os.path.join(out_dir, name) for name in (csv_name, "summary.json")]
    temps = [f"{path}.{os.getpid()}.tmp" for path in targets]
    moved = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary = {
            "command": sc.command,
            "csv": csv_name,
            "seed": seed,
            "tol": tol,
            "rows": len(rows),
            **finish(emit_csv(header, rows, temps[0])),
        }
        with open(temps[1], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, path in zip(temps, targets):
            os.replace(temp, path)
            moved.append(path)
    except BaseException as exc:
        for path in temps + moved:
            with contextlib.suppress(OSError):
                os.remove(path)
        if not isinstance(exc, OSError):
            raise
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    if sc.command == "validate" and summary["failed"] > 0:
        print(f"validate: {summary['failed']} check(s) failed", file=sys.stderr)
        return 2
    if sc.command == "domain-map" and summary["disagreements"] > 0:
        print(f"domain-map: {summary['disagreements']} oracle disagreement(s) outside "
              f"the boundary band", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    import argparse  # here only: `run` and a library import do not parse flags

    parser = argparse.ArgumentParser(
        prog="qmaplab",
        description="Reduced-map reuse stress lab: run a JSON scenario and emit CSV + summary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run a '{command}' scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    args = parser.parse_args(argv)
    return run(args.scenario, out_dir=args.out, seed=args.seed, tol=args.tol,
               command=args.command)


if __name__ == "__main__":
    sys.exit(main())
