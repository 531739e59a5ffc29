"""Digests of the benchmark's op results, to show that two source trees
compute the same bits.

    python3 tools/op_digest.py ROOT [--seed N] [--ops N]

``ROOT`` is a source tree of the package (``src/nvk`` beside
``perfbench``).  The script imports that tree's ``perfbench/workloads.py``
against its ``src``, writing nothing into the tree, and runs the first N ops
of each workload at the given seed.  For each workload it prints one line:
the name, the seed, the op count and the sha256 of the ``repr`` of the op
results in order (an op that raises contributes its exception's type and
message).  Two checkouts that print the same lines computed the same values,
error estimates and flags, bit for bit.

Classify gets a second line, ``classify-without-scale``, whose digest drops
``evidence.nevanlinna_scale`` from each report: two trees whose scales
differ in the last bits, and in nothing else, differ on the first classify
line and agree on the second.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path


def digest(workload, ops: int, views=(repr,)) -> list[str]:
    """One sha256 per view of the first ``ops`` op results, each view a
    function from a result to the text that is hashed."""
    hs = [hashlib.sha256() for _ in views]
    for _ in range(ops):
        op = workload.next_op()
        try:
            value = op.call()
        except Exception as exc:  # a failing op is part of what is compared
            value = ("raised", type(exc).__name__, str(exc))
        for h, view in zip(hs, views):
            h.update(view(value).encode())
            h.update(b"\n")
    return [h.hexdigest() for h in hs]


def without_scale(value) -> str:
    """A classify result, (exit code, stdout), with the report's
    ``evidence.nevanlinna_scale`` dropped; any other result as ``repr``."""
    try:
        code, text = value
        doc = json.loads(text)
        doc["evidence"].pop("nevanlinna_scale")
    except (TypeError, ValueError, KeyError):
        return repr(value)
    return repr((code, json.dumps(doc, sort_keys=True)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, help="source tree with src/nvk and perfbench")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--ops", type=int, default=120)
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as workdir:
            w = workloads.WORKLOADS[name](args.seed, workdir)
            names = [name] + ([f"{name}-without-scale"] if name == "classify" else [])
            views = (repr, without_scale)[:len(names)]
            for label, hexdigest in zip(names, digest(w, args.ops, views)):
                print(f"{label} seed={args.seed} ops={args.ops} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
