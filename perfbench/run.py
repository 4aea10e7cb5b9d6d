"""Benchmark command for the kcb canonical-basis oracle.

    python3 perfbench/run.py --workload allg_a2 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Every sample is a fresh,
single-threaded worker process (worker.py) with ``PYTHONPATH=src`` and
without ``KCB_CACHE_DIR``.  Samples start until ``--seconds`` have
passed, so the last one may end after it.  Before them,
SETUP_PROBES workers only set up, so setup_s is a median of several
start-ups even for the longest workload.

With ``--trace 0`` the result reports the end-to-end metrics.  With
``--trace 1`` the same untraced samples are taken, then one more worker
runs with every kcb layer wrapped in spans; the result reports the
per-layer metrics, and the span file is written to
perfbench/out/trace-<workload>-<seed>.json.gz.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is an informational summary with quartiles, sample
counts, fail_frac and the line count of src/kcb.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the keys of workloads.WORKLOADS; run.py itself imports no kcb code, so it
# can refuse a checkout without src/kcb before starting anything
WORKLOADS = ("allg_a2", "allg_e3", "cache_a2", "verify_cli")
SETUP_PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, tmp: str, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    env.pop("KCB_CACHE_DIR", None)  # a cache would turn computing into reading
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--tmp", tmp, "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "kcb")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: int, trace: bool, tmp: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, tmp, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        samples.append(spawn(workload, seed, tmp, deadline))
    setups += [s["setup_s"] for s in samples]
    walls = [s["wall_s"] for s in samples]
    traced = None
    if trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.json.gz")
        traced = spawn(workload, seed, tmp, deadline, "--trace-out", path)
        samples.append(traced)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        want = json.load(fh)[workload]["digest"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    summary = {
        "workload": workload,
        "seed": seed,
        "wall_s": quartiles(walls),
        "raw_wall_s": quartiles([s["raw_wall_s"] for s in samples[: len(walls)]]),
        "probe_s": quartiles([s["probe_s"] for s in samples[: len(walls)]]),
        "peak_rss_mb": quartiles([s["peak_rss_mb"] for s in samples[: len(walls)]]),
        "setup_s": quartiles(setups),
        "fail_frac": failed / attempted,
        "digest": sorted({s["digest"] for s in samples}),
        "reference_digest": want,
        "mismatched": sorted({k for s in samples for k in s["mismatched"]})[:10],
        "src_kcb_lines": src_lines(),
    }
    if traced:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - summary["wall_s"]["median"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": summary["wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
        }
    result = {
        "correct": failed == 0 and summary["digest"] == [want],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return summary, result


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kcb", "__init__.py")):
        print(f"run.py: no kcb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    tmp_root = os.path.join(HERE, "out")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        summary, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
