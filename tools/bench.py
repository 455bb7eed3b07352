"""Before/after pairs of the benchmark: a base revision against this checkout.

Run from the repository root::

    python3 tools/bench.py --base REV --out BENCH_<n>.json [--seed 1 ...]

The base revision is unpacked with ``git archive`` into ``<tmp>/base``,
and the checkout's files (tracked and untracked, less what ``.gitignore``
excludes) are copied into ``<tmp>/head``, paths of equal length, so both
sides run from a fresh tree without bytecode caches, as a clean checkout
would, and no repository state changes.  For each workload and seed the two trees'
``perfbench/run.py --trace 0`` runs alternate over 10 pairs, base first in
even pairs and change first in odd ones, so a drift of the machine falls on
both sides.
``PYTHONDONTWRITEBYTECODE=1`` is set, as in the benchmark's own runs.
After the pairs, Tier-1 runs once in the change's tree; its wall time,
outcome counts and the 10 slowest tests (``--durations=10``, set in
``pyproject.toml``) go under the output's ``tier1`` key.

Each run's last line of standard output (its end-to-end metrics, ``failed``
and ``attempted``) and its ``result.json`` (``wall_run_s`` and provenance)
are read.  The output file holds, per workload and seed and for every
metric, both medians, the base's quartiles and IQR, the number of pairs
the change won, the metric's relative bound with whether the change's
median is worse than the base's by more than it, and whether a claimed
gain holds (9 pairs in 10 won and the base's IQR beaten), with the runs
themselves.  The workloads (all of them), the run length
(``run_seconds``), which way each metric is better and its bound come
from the checkout's ``BENCHMARK.json``; ``wall_run_s`` is better lower
and has no bound.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
# each side's directory under the temporary one: names of equal length, as a
# run's RSS and time move with the length of the path it runs from
TREES = {"base": "base", "change": "head"}


def unpack_revision(rev: str, dest: str) -> str:
    """`git archive` of `rev` unpacked into `dest`; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def copy_checkout(dest: str) -> None:
    """The checkout's tracked and untracked files, less the ignored ones."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True, check=True)
    for name in listed.stdout.decode().split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a deleted, still tracked file is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def read_run(stdout: str, result: dict) -> dict:
    """One run from its standard output and its result.json: the metric
    values (with ``wall_run_s``), the operation counts and the provenance."""
    printed = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in printed["metrics"].items()}
    metrics["wall_run_s"] = result["wall_run_s"]
    return {"metrics": metrics, "correct": printed["correct"], "failed": printed["failed"],
            "attempted": printed["attempted"], "provenance": result["provenance"]}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with status "
                           f"{proc.returncode}:\n{proc.stderr}")
    path = os.path.join(tree, "perfbench", "out", f"{workload}-s{seed}-t0", "result.json")
    with open(path, encoding="utf-8") as fh:
        return read_run(proc.stdout, json.load(fh))


def read_tier1(stdout: str) -> dict:
    """pytest's outcome counts, its own time and the slowest tests from the
    output of a ``-q --durations=10`` run."""
    lines = stdout.strip().splitlines() or [""]
    summary = re.fullmatch(r"=* ?(.*?) in ([\d.]+)s.*", lines[-1])
    if summary is None:
        raise ValueError(f"no pytest summary line: {lines[-1]!r}")
    counts = {name: int(count) for count, name in re.findall(r"(\d+) (\w+)", summary[1])}
    # the durations section runs from its header to the summary line
    start = next((i for i, line in enumerate(lines) if re.search(r"slowest \d+ durations", line)),
                 len(lines))
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(re.compile(r"([\d.]+)s (\w+) +(\S+)").fullmatch, lines[start:])
               if m]
    return {"counts": counts, "pytest_s": float(summary[2]), "slowest": slowest}


def run_tier1(tree: str) -> dict:
    """Tier-1 once in `tree`, without bytecode or pytest caches."""
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - start
    try:
        parsed = read_tier1(proc.stdout)
    except ValueError:  # pytest stopped before its summary: keep what it said
        parsed = {"output_tail": (proc.stdout + proc.stderr)[-4000:]}
    return {"command": " ".join(command[1:]), "exit_status": proc.returncode, "wall_s": wall,
            **parsed}


def compare(base: list[dict], change: list[dict], better: dict[str, str],
            bounds: dict[str, float] | None = None) -> dict:
    """Per metric of `better` ("lower" or "higher"), over the pairs
    (base[i], change[i]): both medians, the base's quartiles and IQR, the
    pairs the change won outright, and whether the change's median beats
    the base's by more than the base's IQR.  Then the metric's relative
    bound in `bounds` (None if it has none) and whether the change's median
    is worse than the base's by more than it, and whether a claimed gain
    holds: at least 9 pairs in 10 won and the base's IQR beaten."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("compare needs at least two pairs of runs")
    out = {}
    for name, way in better.items():
        before = [run["metrics"][name] for run in base]
        after = [run["metrics"][name] for run in change]
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        b, a = statistics.median(before), statistics.median(after)
        sign = 1 if way == "lower" else -1
        won = sum(sign * (y - x) < 0 for x, y in zip(before, after))
        beats, bound = sign * (b - a) > q3 - q1, (bounds or {}).get(name)
        out[name] = {
            "better": way,
            "base_median": b,
            "change_median": a,
            "change_vs_base": a / b - 1 if b else None,
            "base_q1": q1,
            "base_q3": q3,
            "base_iqr": q3 - q1,
            "pairs_won": won,
            "pairs": len(before),
            "beats_base_iqr": beats,
            "bound": bound,
            "worse_than_bound": None if bound is None else sign * (a - b) > bound * abs(b),
            "claim_met": 10 * won >= 9 * len(before) and beats,
        }
    return out


def directions(declared: dict) -> dict[str, str]:
    """Each end-to-end metric's better way in BENCHMARK.json, then
    wall_run_s."""
    return {**{m["name"]: m["better"] for m in declared["end_to_end"]}, "wall_run_s": "lower"}


def bounds(declared: dict) -> dict[str, float]:
    """Each end-to-end metric's relative bound in BENCHMARK.json;
    wall_run_s has none."""
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: os.path.join(tmp, name) for side, name in TREES.items()}
        commit = unpack_revision(args.base, trees["base"])
        copy_checkout(trees["change"])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        better, limits = directions(declared), bounds(declared)
        seconds = declared["run_seconds"]
        results = []
        for workload in (w["name"] for w in declared["workloads"]):
            for seed in args.seed:
                runs = {"base": [], "change": []}
                for i in range(PAIRS):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    for side in order:
                        runs[side].append(run_once(trees[side], workload, seed, seconds))
                    pair = {side: runs[side][-1]["metrics"] for side in order}
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: "
                          f"{json.dumps(pair)}", flush=True)
                results.append({
                    "workload": workload,
                    "seed": seed,
                    "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                    "attempted": {side: sum(r["attempted"] for r in rs)
                                  for side, rs in runs.items()},
                    "metrics": compare(runs["base"], runs["change"], better, limits),
                    "runs": {side: [r["metrics"] for r in rs] for side, rs in runs.items()},
                })
        tier1 = run_tier1(trees["change"])
        report = {
            "base": {"rev": args.base, "commit": commit},
            "change": "the checkout's files, tracked and untracked, less the ignored ones",
            "settings": {"pairs": PAIRS, "seconds": seconds, "seeds": args.seed,
                         "order": "alternating: base first in even pairs, change first in odd"},
            "provenance": runs["change"][0]["provenance"],
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "results": results,
            "tier1": tier1,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for res in results:
        for name, m in res["metrics"].items():
            print(f"{res['workload']} s{res['seed']} {name}: {m['base_median']:.4g} -> "
                  f"{m['change_median']:.4g} (base IQR {m['base_iqr']:.3g}), change won "
                  f"{m['pairs_won']}/{m['pairs']}, worse than bound: {m['worse_than_bound']}, "
                  f"claim met: {m['claim_met']}")
    print(f"tier1: {tier1.get('counts')} in {tier1['wall_s']:.1f} s wall "
          f"(exit status {tier1['exit_status']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
