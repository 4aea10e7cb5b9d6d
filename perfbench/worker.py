"""One iteration of one workload, in a fresh process.

run.py starts this once per sample, so the process-wide memos in kcb
(``_BASES``, ``CanonicalBasis._monomials``, the ``lru_cache``s) start
empty every time.  It prints one JSON line:

    setup_s      process start (``--spawned-at``, a time.monotonic()
                 reading taken by the parent just before the start),
                 imports and input generation, up to the first operation
    wall_s       summed time of the operations themselves, rescaled to a
                 nominal machine speed (see SpeedProbe); the digests
                 and checks between them and the speed probes are not
                 timed
    raw_wall_s   the same time as measured, not rescaled
    peak_rss_mb  peak resident memory of this process
    attempted, failed, digest, mismatched
                 the check against reference.json
    layers       per-layer metrics, with --trace-out only

    python3 perfbench/worker.py --workload allg_e3 --seed 1 \\
        --spawned-at 0 --tmp perfbench/out/tmp [--setup-only | --trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import kcb  # noqa: E402  (PYTHONPATH is set by run.py)

from workloads import WORKLOADS, outputs_digest  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


# the pure-Python kernel SpeedProbe times: dict copies, tuple keys and
# small-int arithmetic, like FockVector.add_scaled, on a cache-sized table
_PROBE_KEYS = [((i * 7919) % 4096, i % 13, (i // 13) % 5) for i in range(3000)]


def _probe_kernel() -> int:
    base = {k: i for i, k in enumerate(_PROBE_KEYS)}
    for r in range(6):
        t = dict(base)
        for k, c in base.items():
            p = c * (r + 3)
            prev = t.get(k)
            n = p if prev is None else prev + p
            if n:
                t[k] = n
        base = {k: v % 1000003 for k, v in t.items()}
    return len(base)


class SpeedProbe:
    """Measures how fast the host runs Python while the operations run.

    The shared host's speed drifts by 10-20% over minutes, which no number
    of samples averages away.  So while the probe is entered, a SIGALRM
    every INTERVAL_S of wall time runs and times a fixed kernel that
    touches no kcb code, with the cyclic GC off so the kcb heap is not
    collected on its clock.  ``spent`` is the time taken by the handler,
    which run_ops subtracts from the operation it interrupted.
    ``scale()`` is NOMINAL_S over the kernel's mean time: multiplying an
    operation time by it gives the time at a fixed speed, one at which
    the kernel takes NOMINAL_S.
    """

    INTERVAL_S = 0.1
    NOMINAL_S = 0.0075  # the kernel's time on a 2-vCPU Xeon KVM guest, Python 3.11

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._handler = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe_kernel()
            self.times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - entered
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scale(self) -> float:
        return self.NOMINAL_S * len(self.times) / sum(self.times)


def run_ops(ops, probe: SpeedProbe | None = None) -> tuple[float, dict[str, str]]:
    """Time each operation's call alone; its output check runs untimed.

    With a probe, the host's speed is sampled throughout, and the time its
    samples take is left out of the operations' time.
    """
    wall = 0.0
    outputs: dict[str, str] = {}
    clock = time.perf_counter
    spent = (lambda: probe.spent) if probe else (lambda: 0.0)
    with probe or contextlib.nullcontext():
        for key, call, finish in ops:
            s0, t0 = spent(), clock()
            try:
                result = call()
            except Exception as exc:  # a failing operation is counted, not fatal
                wall += clock() - t0 - (spent() - s0)
                outputs[key] = f"error {type(exc).__name__}: {exc}"
                continue
            wall += clock() - t0 - (spent() - s0)
            outputs[key] = finish(result)
    return wall, outputs


def check(outputs: dict[str, str], expected: dict[str, str]) -> tuple[int, list[str]]:
    """Operations attempted, and the keys whose output differs (or is missing)."""
    keys = sorted(set(outputs) | set(expected))
    return len(keys), [k for k in keys if outputs.get(k) != expected.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    if os.path.dirname(os.path.abspath(kcb.__file__)) != os.path.join(SRC, "kcb"):
        print(f"worker: kcb imported from {kcb.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.tmp)
    setup_s = time.monotonic() - args.spawned_at
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        stats: Counter = Counter()
        probe = SpeedProbe()
        if args.trace_out:
            import spans

            rec = spans.Recorder()
            stats = rec.counts
            with spans.tracing(rec):
                wall, outputs = run_ops(wl.ops(state, stats), probe)
        else:
            wall, outputs = run_ops(wl.ops(state, stats), probe)
    finally:
        wl.cleanup(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]["outputs"]
    attempted, bad = check(outputs, expected)
    result = {
        "setup_s": setup_s,
        "wall_s": wall * probe.scale(),
        "raw_wall_s": wall,
        "probe_s": sum(probe.times) / len(probe.times),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(bad),
        "mismatched": bad[:5],
        "digest": outputs_digest(outputs),
    }
    if args.trace_out:
        result["layers"] = spans.layer_metrics(rec)
        rec.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
