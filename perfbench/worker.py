"""Benchmark worker: runs workload passes through ``qmaplab.cli.run``.

Started by ``run.py`` in a fresh interpreter as ``python3 worker.py CONFIG``,
so its peak resident memory is the program's.  It runs one untimed warm-up
pass, then timed passes until the next would end past the measuring window,
with the calibration kernel timed between passes (see calibrate.py).
Every invocation is timed alone; its exit status and the sha256 of each
output file are recorded after the clock stops, and each distinct output is
kept once for the checker.  With tracing on, passes alternate untraced and
traced.  The result goes to the JSON file named in the config.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import calibrate
from tracing import Tracer

# calibration time after each pass, as a share of the pass's wall time, so a
# long pass is scaled by the machine speed over a longer stretch
CALIBRATION_SHARE = 0.15


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    info = {"numpy": np.__version__, "blas_config": None, "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no procfs: leave the BLAS fields unknown
        return info
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                info["blas_threads"] = get_threads()
                info["blas_config"] = get_config().decode()
                return info
    return info


class Runner:
    def __init__(self, cfg: dict, cli):
        self.cfg = cfg
        self.cli = cli
        self.passes: list[dict] = []
        self.invocations: list[list] = []  # [pass, scenario index, exit status, seconds, digest]
        self.outputs: dict[str, dict] = {}  # "<scenario>/<digest>" -> kept copy and file hashes
        self.errors: list[str] = []
        self.spans: list[dict] = []

    def run_pass(self, measured: bool, tracer=None) -> float:
        """One pass over every scenario; returns its wall time."""
        index = len(self.passes)
        wall0 = time.perf_counter()
        busy = 0.0
        for i, sc in enumerate(self.cfg["scenarios"]):
            out = os.path.join(self.cfg["runs_dir"], sc["name"])
            shutil.rmtree(out, ignore_errors=True)  # no stale file may pass for this run's
            t0 = time.perf_counter()
            try:
                status = self.cli.run(sc["path"], out)
            except Exception:  # a traceback is a failed invocation, not a crashed benchmark
                status = -1
                self.errors.append(f"{sc['name']}: {traceback.format_exc()}")
            elapsed = time.perf_counter() - t0
            busy += elapsed
            self.invocations.append([index, i, status, elapsed, self._keep(sc["name"], out)])
        if tracer is not None:
            self.spans.append({"pass": index, **tracer.take()})
        self.passes.append({"index": index, "measured": measured, "traced": tracer is not None,
                            "seconds": busy})
        return time.perf_counter() - wall0

    def _keep(self, name: str, out: str):
        """Digest the run's outputs; keep the first copy of each distinct set."""
        if not os.path.isdir(out):
            return None
        files = {f: _sha256(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()[:20]
        key = f"{name}/{digest}"
        if key not in self.outputs:
            kept = os.path.join(self.cfg["keep_dir"], f"{name}-{digest}")
            shutil.copytree(out, kept)
            self.outputs[key] = {"scenario": name, "dir": kept, "sha256": files}
        return digest


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    from qmaplab import cli

    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"worker: imported {cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    runner = Runner(cfg, cli)
    # warm-up: page cache, allocator, first-call costs
    walls = [runner.run_pass(measured=False)]
    min_passes = 4 if cfg["trace"] else 3
    start = time.perf_counter()
    kernel = calibrate.kernel_seconds(CALIBRATION_SHARE * walls[-1])
    while True:
        traced = cfg["trace"] and len(walls) % 2 == 0
        if traced:
            with Tracer() as tracer:
                walls.append(runner.run_pass(measured=True, tracer=tracer))
        else:
            walls.append(runner.run_pass(measured=True))
        after = calibrate.kernel_seconds(CALIBRATION_SHARE * walls[-1])
        runner.passes[-1]["factor"] = calibrate.factor(kernel, after)
        kernel = after
        elapsed = time.perf_counter() - start
        if len(walls) > min_passes and elapsed + max(walls[-2:]) > cfg["seconds"]:
            break
    result = {
        "qmaplab_file": cli.__file__,
        "python": sys.version.split()[0],
        **blas_info(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": runner.passes,
        "invocations": runner.invocations,
        "outputs": runner.outputs,
        "errors": runner.errors,
        "spans": runner.spans,
    }
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
