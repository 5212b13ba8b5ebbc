"""Benchmark entry point for the freemoments package.

    python3 perfbench/run.py --workload {exact,series,density,montecarlo}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree that holds ``src/freemoments``.  Every
child interpreter gets the tree's ``src`` on ``PYTHONPATH`` and BLAS and
OpenMP pinned to one thread.  The script

* times a fresh-interpreter import of ``freemoments`` and ``freemoments.cli``
  several times, each right after a control import of ``numpy`` alone, and
  reports the median of the import times, each scaled by its control's
  (``setup_s``, as at the reference machine's speed; see ``controls``).
  With ``--trace 1`` it runs the imports under ``-X importtime`` instead and
  reports where the time goes;
* runs the workload in one more fresh interpreter (``worker.py``);
* prints the run discipline as one JSON line, then the result as the last
  line: ``{"correct", "attempted", "failed", "metrics"}``;
* writes the full record to ``perfbench/out/``.

It exits 2 without a result when the source tree is missing and 1 when a
child fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact", "series", "density", "montecarlo")
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
IMPORT = "import freemoments, freemoments.cli"
CONTROL_IMPORT = "import numpy"
# median time of CONTROL_IMPORT in a fresh interpreter on the reference machine
CONTROL_IMPORT_NOMINAL_S = 0.1038
BUDGET_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def setup_seconds(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Wall times of the package import and of the control import, interleaved."""
    samples: dict[str, list[float]] = {IMPORT: [], CONTROL_IMPORT: []}
    for _ in range(SETUP_REPEATS):
        for code, times in samples.items():
            start = time.perf_counter()
            run_child(["-c", code], env, 60)
            times.append(time.perf_counter() - start)
    return samples[IMPORT], samples[CONTROL_IMPORT]


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Milliseconds in scipy and in freemoments from ``-X importtime`` output.

    Lines come children first; read backwards, each line's parent is the
    nearest earlier-read line one level up.  scipy time is the cumulative time
    of every scipy subtree whose parent is not scipy, wherever it was
    imported from; freemoments time is that of the top-level imports.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    scipy_us = freemoments_us = 0
    ancestors: dict[int, str] = {}
    for depth, name, cumulative in reversed(entries):
        ancestors[depth] = name
        parent = ancestors.get(depth - 1, "") if depth > 0 else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
        if depth == 0 and name.split(".")[0] == "freemoments":
            freemoments_us += cumulative
    return scipy_us / 1e3, freemoments_us / 1e3


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "freemoments").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="freemoments benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "freemoments" / "__init__.py").is_file():
        print(f"no source tree: {SRC / 'freemoments'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            scipy_ms, freemoments_ms = [], []
            for _ in range(SETUP_REPEATS):
                done = run_child(["-X", "importtime", "-c", IMPORT], env, 60)
                s_ms, f_ms = parse_importtime(done.stderr)
                scipy_ms.append(s_ms)
                freemoments_ms.append(f_ms)
            setup = {
                "setup.scipy_import_ms": (statistics.median(scipy_ms), "ms"),
                "setup.freemoments_import_ms": (statistics.median(freemoments_ms), "ms"),
            }
        else:
            samples, control = setup_seconds(env)
            # each import is scaled by the control import made just before it
            scaled = [s / c * CONTROL_IMPORT_NOMINAL_S for s, c in zip(samples, control)]
            record.update(setup_samples_s=samples, setup_control_s=control)
            setup = {"setup_s": (statistics.median(scaled), "s")}
        worker = [
            str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        remaining = BUDGET_S - (time.perf_counter() - started)
        done = run_child(worker, env, remaining)
        summary = json.loads(done.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {**setup, **summary.pop("metrics")}
    discipline = summary.pop("discipline")
    discipline.update(git_sha=git_sha(), source_digest=source_digest())
    record.update(summary, discipline=discipline, metrics=metrics, wall_s=time.perf_counter() - started)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({"run": discipline}))
    if not summary["correct"]:
        print(f"incorrect results: {summary['failures']} {summary['oracle_problems']}", file=sys.stderr)
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
