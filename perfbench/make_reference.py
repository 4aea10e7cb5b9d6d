"""Write reference.json: every operation's output for every workload.

Run it only on a commit whose outputs are trusted; the benchmark then
counts any later difference as a failed operation.  Seed 0 is used;
the digests do not depend on the seed.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import Counter

from worker import HERE, REFERENCE, run_ops
from workloads import WORKLOADS, outputs_digest


def main() -> None:
    tmp_root = os.path.join(HERE, "out")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=tmp_root)
    doc = {}
    try:
        for name, wl in WORKLOADS.items():
            state = wl.setup(0, tmp)
            try:
                _, outputs = run_ops(wl.ops(state, Counter()))
            finally:
                wl.cleanup(state)
            errors = [k for k, v in outputs.items() if v.startswith("error ")]
            if errors:
                raise SystemExit(f"{name}: operations raised: {errors[:5]}")
            doc[name] = {"digest": outputs_digest(outputs), "outputs": outputs}
            print(name, len(outputs), doc[name]["digest"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
