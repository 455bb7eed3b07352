"""Outside-in tracing: wrap the program's public functions from the outside.

`Tracer` replaces each traced function at every module binding the program
looks it up through (``cli`` imports its layers by name, ``feasibility``
binds ``nelder_mead_max``, ``eigvalsh`` is reached through ``numpy.linalg``)
and puts the originals back on exit.  A span stack gives every call its
self time (its duration minus the time of the traced calls it made).  Spans
are aggregated in memory by call path, e.g.
``cli.run/feasibility.feasibility_search/numpy.linalg.eigvalsh``, and handed
out per pass by `take`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

TRACED = (
    "cli.run", "cli.load_scenario", "cli.emit_csv",
    "dynamics.evolve_mean_values", "dynamics.crosscheck",
    "reduced.ReducedMap.apply", "reduced.compat_slice_check", "reduced.in_compatibility_domain",
    "reduced.sup_norm_over_time", "reduced.sup_norm_grid",
    "conjunction.sigma2_conjunction", "conjunction.conjunct", "conjunction.greedy_extremal_growth",
    "conjunction.brute_force_max", "conjunction.first_unphysical_n",
    "slippage.slipped_domain_check", "slippage.slip_state", "slippage.max_safe_repetitions",
    "feasibility.feasibility_search",
    "optimize.nelder_mead_max", "optimize.golden_section_max",
    "pauli.density_from_params", "pauli.min_eigenvalue",
)
EIGVALSH = "numpy.linalg.eigvalsh"
PACKAGE = "qmaplab"


class Tracer:
    """Context manager that traces the functions in `TRACED` plus `eigvalsh`."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [call path, time of traced children]
        self._bindings: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = {}  # call path -> [calls, total_s, self_s]
        self.counters = {"emit_rows": 0, "emit_bytes": 0, "grid_points": 0}

    def take(self) -> dict:
        """Spans and counters gathered since the last call; resets both."""
        out = {"spans": self.spans, "counters": self.counters}
        self.spans = {}
        self.counters = dict.fromkeys(self.counters, 0)
        return out

    def __enter__(self) -> "Tracer":
        for name in TRACED:
            importlib.import_module(f"{PACKAGE}.{name.split('.')[0]}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        targets = []
        for name in TRACED:
            module, _, attr = name.partition(".")
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:  # a method: its only binding is the class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets.append((name, owner.__dict__[attr], [(owner, attr)]))
                continue
            targets.append((name, getattr(owner, attr), None))
        import numpy.linalg
        targets.append((EIGVALSH, numpy.linalg.eigvalsh, None))
        modules.append(numpy.linalg)
        for name, original, owners in targets:
            if owners is None:
                owners = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            wrapper = self._wrap(name, original)
            for owner, attr in owners:
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        after = {"cli.emit_csv": self._count_emit,
                 "conjunction.brute_force_max": self._count_grid}.get(name)
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = f"{stack[-1][0]}/{name}" if stack else name
            frame = [path, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span = self.spans.get(path)
                if span is None:
                    span = self.spans[path] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
                if after:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments)

        return wrapper

    def _count_emit(self, args: dict) -> None:
        self.counters["emit_rows"] += len(args["rows"])
        if os.path.exists(args["path"]):
            self.counters["emit_bytes"] += os.path.getsize(args["path"])

    def _count_grid(self, args: dict) -> None:
        self.counters["grid_points"] += args["grid_points"] ** (args["n"] + 1)


LAYERS = ("cli", "dynamics", "reduced", "conjunction", "slippage", "feasibility", "optimize",
          "pauli")


def _layer(name: str) -> str:
    return "pauli" if name == EIGVALSH else name.split(".")[0]


def pass_metrics(taken: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the output of `Tracer.take`.

    ``layer.<name>.s`` charges each call that ``cli.run`` makes into a layer,
    with everything below it, to that layer; ``cli.run``'s own self time
    goes to ``cli``.  The largest of them names the pass's dominant layer.
    """
    spans, counters = taken["spans"], taken["counters"]
    per_fn = {name: [0, 0.0, 0.0] for name in TRACED + (EIGVALSH,)}
    layer = dict.fromkeys(LAYERS, 0.0)
    evals = 0
    for path, (calls, total, self_s) in spans.items():
        parts = path.split("/")
        fn = per_fn[parts[-1]]
        fn[0] += calls
        fn[1] += total
        fn[2] += self_s
        if parts[-1] == EIGVALSH and "feasibility.feasibility_search" in parts:
            evals += calls
        if parts == ["cli.run"]:
            layer["cli"] += self_s
        elif len(parts) == 2 and parts[0] == "cli.run":
            layer[_layer(parts[1])] += total
    m: dict[str, float] = {}
    for name in TRACED[1:]:
        m[f"{name}.calls"] = per_fn[name][0]
        m[f"{name}.self_s"] = per_fn[name][2]
    emit_rows = counters["emit_rows"]
    search_calls, search_total = per_fn["feasibility.feasibility_search"][:2]
    m.update({
        "cli.self_s": per_fn["cli.run"][2],
        "cli.emit_bytes": counters["emit_bytes"],
        "cli.emit_us_per_row": per_fn["cli.emit_csv"][2] / emit_rows * 1e6 if emit_rows else 0.0,
        "pauli.eigvalsh_calls": per_fn[EIGVALSH][0],
        "pauli.eigvalsh_self_s": per_fn[EIGVALSH][2],
        "feasibility.evals": evals,
        "feasibility.evals_per_point": evals / search_calls if search_calls else 0.0,
        "feasibility.us_per_eval": search_total / evals * 1e6 if evals else 0.0,
        "conjunction.brute_force_max.grid_points": counters["grid_points"],
    })
    m.update({f"layer.{name}.s": layer[name] for name in LAYERS})
    return m
