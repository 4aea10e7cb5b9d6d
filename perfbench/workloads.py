"""The four workloads, their inputs and the digests their outputs are checked by.

Every kcb name is looked up through its module at call time
(``canonical.element_to_json``, ``cli.main``), so a traced run sees the
wrapped names and an untraced run the plain ones.

The seed only permutes the order of requests.  All orders must give the
same elements, so the per-workload digest sorts outputs by key and does
not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from kcb import canonical, cli, crystal, fock, partitions

# One operation: a key, the call that is timed, and what turns its
# result into the string compared against the reference (run untimed).
Op = tuple[str, Callable[[], object], Callable[[object], str]]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def outputs_digest(outputs: dict[str, str]) -> str:
    """Order-free digest of every (key, output) pair."""
    return digest("".join(f"{k}\t{outputs[k]}\n" for k in sorted(outputs)).encode())


def label_key(mp) -> str:
    return json.dumps(partitions.mp_to_json(mp), separators=(",", ":"))


def _element_json(elem) -> str:
    return json.dumps(canonical.element_to_json(elem))


@dataclass(frozen=True)
class AllElements:
    """G(mu) for every vertex up to a degree, from one fresh basis with no
    disk cache, each serialised with element_to_json."""

    e: int
    charges: tuple[int, ...]
    degree: int

    def setup(self, seed: int, tmp_root: str) -> dict:
        ctx = fock.FockContext(self.e, self.charges)
        labels = sorted(crystal.generate_crystal(ctx, self.degree).degrees)
        random.Random(seed).shuffle(labels)
        return {"ctx": ctx, "labels": labels}

    def ops(self, state: dict, stats: Counter) -> Iterator[Op]:
        basis = canonical.CanonicalBasis(state["ctx"])
        finish = _json_out(stats)
        for mp in state["labels"]:
            yield label_key(mp), lambda mp=mp: _element_json(basis.element(mp)), finish

    def cleanup(self, state: dict) -> None:
        pass


def _json_out(stats: Counter) -> Callable[[str], str]:
    def finish(text: str) -> str:
        data = text.encode()
        stats["canonical.json_bytes"] += len(data)
        return digest(data)

    return finish


@dataclass(frozen=True)
class CacheRoundTrip:
    """One basis computes every element up to a degree and writes each to an
    empty cache directory; a second fresh basis on that directory reads
    each back and serialises it."""

    e: int
    charges: tuple[int, ...]
    degree: int

    def setup(self, seed: int, tmp_root: str) -> dict:
        state = AllElements(self.e, self.charges, self.degree).setup(seed, tmp_root)
        reads = list(state["labels"])
        random.Random(seed + 1).shuffle(reads)
        state["reads"] = reads
        state["cache_dir"] = tempfile.mkdtemp(prefix="cache-", dir=tmp_root)
        return state

    def ops(self, state: dict, stats: Counter) -> Iterator[Op]:
        ctx, cache_dir = state["ctx"], state["cache_dir"]
        writer = canonical.CanonicalBasis(ctx, cache_dir)
        for mp in state["labels"]:
            yield "fill " + label_key(mp), lambda mp=mp: writer.element(mp), _stored
        names = os.listdir(cache_dir)
        stats["canonical.disk_writes"] = len(names)
        stats["canonical.cache_bytes"] = sum(
            os.path.getsize(os.path.join(cache_dir, n)) for n in names
        )
        reader = canonical.CanonicalBasis(ctx, cache_dir)
        finish = _json_out(stats)
        for mp in state["reads"]:
            yield "read " + label_key(mp), lambda mp=mp: _element_json(reader.element(mp)), finish

    def cleanup(self, state: dict) -> None:
        shutil.rmtree(state["cache_dir"], ignore_errors=True)


def _stored(_elem) -> str:
    # a fill is checked through the element read back from disk
    return "stored"


_WALL_TIME = re.compile(rb'\n *"wall_time": [^,\n]*,')


def strip_wall_time(data: bytes) -> bytes:
    """Drop the report's timing line, the only bytes that vary run to run."""
    return _WALL_TIME.sub(b"", data)


def _verify_argvs() -> list[list[str]]:
    argvs = [
        ["--suite", "duality", "--a", "2", "--max-degree", "8"],
        ["--suite", "duality", "--e", "3", "--charges", "0,1,2", "--max-degree", "9"],
        ["--suite", "conjecture", "--a", "3", "--max-degree", "13"],
    ]
    for a in (2, 3):
        for family, kmin in (("p0k1", 1), ("p10k", 1), ("p010k", 2)):
            for k in range(kmin, a + 1):
                argvs.append(["--suite", "families", "--a", str(a), "--family", family,
                              "--k", str(k), "--n", "2"])
    for a in (1, 2, 3):
        for i in (0, 1):
            for k in range(a + 1):
                argvs.append(["--suite", "weyl", "--a", str(a), "--i", str(i),
                              "--k", str(k), "--n", "3"])
    argvs.append(["--suite", "structural", "--a", "4", "--max-degree", "9"])
    argvs.append(["--suite", "svelte", "--a", "2", "--max-degree", "13"])
    return [["verify", *av] for av in argvs]


@dataclass(frozen=True)
class VerifyCli:
    """`kcb verify` invocations through kcb.cli.main in one process, each
    writing JSON with --out; the output is its exit code and bytes."""

    argvs: tuple[tuple[str, ...], ...]

    def setup(self, seed: int, tmp_root: str) -> dict:
        order = [list(av) for av in self.argvs]
        random.Random(seed).shuffle(order)
        return {"argvs": order, "out_dir": tempfile.mkdtemp(prefix="verify-", dir=tmp_root)}

    def ops(self, state: dict, stats: Counter) -> Iterator[Op]:
        for n, argv in enumerate(state["argvs"]):
            out = os.path.join(state["out_dir"], f"{n}.json")
            call = lambda argv=argv, out=out: cli.main([*argv, "--format", "json", "--out", out])
            yield " ".join(argv), call, _cli_out(out, stats)

    def cleanup(self, state: dict) -> None:
        shutil.rmtree(state["out_dir"], ignore_errors=True)


def _cli_out(path: str, stats: Counter) -> Callable[[int], str]:
    def finish(code: int) -> str:
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        stats["cli.output_bytes"] += len(data)
        return f"exit {code} {digest(strip_wall_time(data))}"

    return finish


WORKLOADS = {
    "allg_a2": AllElements(2, (0, 0, 1, 1), 10),
    "allg_e3": AllElements(3, (0, 1, 2), 11),
    "cache_a2": CacheRoundTrip(2, (0, 0, 1, 1), 9),
    "verify_cli": VerifyCli(tuple(tuple(av) for av in _verify_argvs())),
}
