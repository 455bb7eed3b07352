"""qmaplab benchmark: seeded scenarios through ``qmaplab.cli.run``, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-200k --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``sweep-200k``,
``domain-map``, ``validate`` and ``small-scenarios``.  All are single-process,
closed-loop and single-threaded: each ``cli.run`` starts after the previous
one returns.  The scenario files are generated from ``--seed``; the program
is imported from ``src/`` of the checkout in a fresh worker interpreter with
BLAS pinned to one thread.  Every output is checked against closed forms
recomputed by ``check.py``.

Pass and invocation timings are reported in reference seconds: wall seconds
scaled by the calibration kernel timed next to each pass (``calibrate.py``),
which cancels the shared machine's slow phases; their wall-clock median is
kept in the result file.  ``setup_s`` is scaled instead by the import time
of numpy alone, measured in the same fresh interpreter.  The invocation
tail (p99, or the highest percentile with ten samples beyond it) is printed
and kept in the result file but is not a bounded metric: on a shared machine
it measures the machine's hiccups more than the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (medians over
traced passes).  Provenance, per-pass timings, output sha256 digests and the
traced spans are written to
``perfbench/out/<workload>-s<seed>-t<trace>/result.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# pin BLAS before numpy loads, here and in every interpreter started below
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, after one uncounted warm-up
DEADLINE_S = 170  # the worker is stopped if the run would last longer than this
SETUP_CODE = ("import json, time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import qmaplab.cli; t2 = time.perf_counter(); "
              "print(json.dumps([t1 - t0, t2 - t0, qmaplab.cli.__file__]))")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB",
                    "invocation_p50_ms": "ms"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def provenance(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "qmaplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "blas_env": BLAS_ENV,
        "loadavg_start": os.getloadavg(),
    }


def time_setup() -> list[dict]:
    """Import times of qmaplab.cli in fresh interpreters: numpy alone first,
    then the rest, each sample with the wall seconds of both."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        numpy_s, total_s, path = json.loads(proc.stdout)
        if not os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep):
            raise RuntimeError(f"imported {path}, not the checkout's package")
        if i:  # the first one also compiles bytecode and fills the page cache
            samples.append({"numpy_s": numpy_s, "total_s": total_s})
    return samples


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or the highest percentile with at least ten
    samples beyond it, never below the median (nearest rank)."""
    n = len(values)
    p = max(0.5, min(0.99, (n - 10) / n))
    if p == 0.5:
        return p, statistics.median(values)
    return p, sorted(values)[math.ceil(p * n) - 1]


def tally(result: dict, scenarios: list[dict]) -> tuple[int, dict, dict]:
    """Check each distinct output once and count the invocations that failed:
    a non-zero exit status, missing outputs, or any problem the checker finds.

    Returns (failed invocations, CSV rows per scenario, problems per output)."""
    by_name = {sc["name"]: sc["scenario"] for sc in scenarios}
    rows, verdicts = {}, {}
    for key, kept in result["outputs"].items():
        n, problems = check.check(by_name[kept["scenario"]], kept["dir"])
        verdicts[key] = problems
        rows.setdefault(kept["scenario"], n)
    names = [sc["name"] for sc in scenarios]
    failed = sum(1 for _, i, status, _, digest in result["invocations"]
                 if status != 0 or digest is None or verdicts[f"{names[i]}/{digest}"])
    return failed, rows, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "qmaplab", "cli.py")):
        print(f"error: no program to benchmark at {SRC}/qmaplab", file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "kept"))
    prov = provenance(args.seed)
    scenarios = [{"name": name, "path": path, "scenario": sc}
                 for name, sc, path in workloads.write(args.workload, args.seed,
                                                       os.path.join(out, "scenarios"))]
    setup = [] if args.trace else time_setup()

    config = {"src": SRC, "trace": args.trace, "seconds": args.seconds,
              "scenarios": [{"name": s["name"], "path": s["path"]} for s in scenarios],
              "runs_dir": os.path.join(out, "runs"), "keep_dir": os.path.join(out, "kept"),
              "result": os.path.join(out, "worker.json")}
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    budget = DEADLINE_S - (time.monotonic() - began)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           os.path.join(out, "config.json")], env=child_env(), timeout=budget,
                          check=False)
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    with open(config["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    prov.update({k: result[k] for k in ("python", "numpy", "blas_config", "blas_threads")})
    prov["loadavg_end"] = os.getloadavg()

    failed, rows_by_name, verdicts = tally(result, scenarios)
    attempted = len(result["invocations"])
    rows_per_pass = sum(rows_by_name.get(s["name"], 0) for s in scenarios)

    # timings in reference seconds: wall time scaled by the pass's calibration factor
    passes = {p["index"]: p for p in result["passes"] if p["measured"]}
    untraced = [p["seconds"] * p["factor"] for p in passes.values() if not p["traced"]]
    latencies = [seconds * passes[i]["factor"] for i, _, _, seconds, _ in result["invocations"]
                 if i in passes and not passes[i]["traced"]]
    tail_p, tail_value = tail_percentile(latencies)
    report = {
        "provenance": prov,
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "rows_per_pass": rows_per_pass,
        "invocation_samples": len(latencies),
        "invocation_tail_percentile": tail_p,
        "invocation_p99_ms": tail_value * 1e3,
        "setup_samples_s": setup,
        "wall_run_s": statistics.median(p["seconds"] for p in passes.values() if not p["traced"]),
        "problems": {k: v for k, v in verdicts.items() if v},
        "errors": result["errors"],
        "outputs_sha256": {k: v["sha256"] for k, v in result["outputs"].items()},
        "passes": result["passes"],
        "spans": result["spans"],
    }
    if args.trace:
        factors = [passes[taken["pass"]]["factor"] for taken in result["spans"]]
        per_pass = [{n: v * f if per_layer_unit(n) in ("s", "us") else v
                     for n, v in tracing.pass_metrics(taken).items()}
                    for taken, f in zip(result["spans"], factors)]
        traced = [p["seconds"] * p["factor"] for p in passes.values() if p["traced"]]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
        layers = {n: values[f"layer.{n}.s"] for n in tracing.LAYERS}
        report["dominant_layer"] = max(layers, key=layers.get)
        summary = (f"dominant layer: {report['dominant_layer']} "
                   f"({layers[report['dominant_layer']]:.3f} s of "
                   f"{statistics.median(traced):.3f} s per traced pass)")
    else:
        values = {
            "setup_s": calibrate.REFERENCE_NUMPY_IMPORT_S
                       * statistics.median(x["total_s"] / x["numpy_s"] for x in setup),
            "run_s": statistics.median(untraced),
            "rows_per_s": statistics.median(rows_per_pass / s for s in untraced),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "invocation_p50_ms": statistics.median(latencies) * 1e3,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        summary = (f"{len(untraced)} timed passes of {rows_per_pass} rows, median "
                   f"{report['wall_run_s']:.3f} wall s; invocation_p99_ms "
                   f"{tail_value * 1e3:.4g} ms (p{tail_p * 100:g} of {len(latencies)} "
                   f"invocations, reported only: the shared machine's hiccups set it)")
    report["metrics"] = metrics
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"provenance: {json.dumps(prov)}")
    print(f"{args.workload}: {summary}; failed_ratio {failed}/{attempted}")
    for key, problems in report["problems"].items():
        print(f"check failed for {key}: {'; '.join(problems[:3])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_us_per_row") or name.endswith("us_per_eval"):
        return "us"
    if name.endswith("emit_bytes"):
        return "bytes"
    if name.endswith("evals_per_point"):
        return "evals/point"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
