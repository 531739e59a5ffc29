"""Digests of the benchmark's op results, to show that two source trees
compute the same bits.

    python3 tools/op_digest.py ROOT [--seed N] [--ops N]
    python3 tools/op_digest.py ROOT --suites
    python3 tools/op_digest.py ROOT --descriptors

``ROOT`` is a source tree of the package (``src/nvk`` beside
``perfbench``).  The script imports that tree's ``perfbench/workloads.py``
against its ``src``, writing nothing into the tree, and runs the first N ops
of each workload at the given seed.  For each workload it first prints a line:
the name, the seed, the op count and the sha256 of the ``repr`` of the op
results in order (an op that raises contributes its exception's type and
message).  Two checkouts that print the same lines computed the same values,
error estimates and flags, bit for bit.

Classify gets two more lines.  ``classify-without-scale`` drops
``evidence.nevanlinna_scale`` from each report: two trees whose scales
differ in the last bits, and in nothing else, differ on the first classify
line and agree on this one.  ``classify-verdicts`` keeps only the verdicts:
the exit code, ``case``, ``representing`` and the evidence's
``evidence_representing``, ``trait_conflict`` and ``growth_converged``.
Two trees that solve the evidence to different digits and reach the same
verdicts differ on the first two lines and agree on this one.

Each workload's last line, ``<workload>-results``, hashes the ``repr`` of
every list that ``nvk.measures.integrate_many`` returns during its ops: the
value, error estimate, flags and modulus of every integral, including those
that an op reads and does not return.  For the run the function is wrapped
under every ``nvk`` name bound to it, and put back afterwards.

With ``--suites`` the script prints, instead, one line per ``nvk verify``
configuration in ``SUITE_RUNS``: its arguments and the sha256 of the JSON
report that the tree's ``nvk.cli.main`` writes for them, run in process at
the default seed (``NVK_SEED`` applies), with the report in a temporary
directory.

With ``--descriptors`` it prints, instead, one line per ``nvk transform``
of each base in ``DESCRIPTOR_BASES`` by each k in ``DESCRIPTOR_KS``, and
one line per ``nvk eval`` of that output at the first n coordinates of
``DESCRIPTOR_POINT``: the command, the base, k and the sha256 of the exit
code, stdout and stderr of the tree's ``nvk.cli.main``, run in process.
The eval of the 4-variable density output is left out: it takes about
30 s, at any tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


# The verify configurations whose reports a bit-for-bit change keeps.
SUITE_RUNS = (
    ("--suite", "conditions"),
    ("--suite", "kernels"),
    ("--suite", "ladder", "--n", "2"),
    ("--suite", "ladder", "--n", "3"),
    ("--suite", "main", "--n", "2"),
    ("--suite", "main", "--n", "3"),
)


def suite_lines(cli_main) -> list[str]:
    """``verify ARGS SHA256`` for each of ``SUITE_RUNS``, the report written
    by ``cli_main``."""
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, args in enumerate(SUITE_RUNS):
            out = Path(workdir) / f"{i}.json"  # a run that writes none fails to read it
            cli_main(["verify", *args, "--out", str(out)])
            lines.append(f"verify {' '.join(args)} {hashlib.sha256(out.read_bytes()).hexdigest()}")
    return lines


# The transforms and evals whose output a bit-for-bit change keeps.  Each
# base is the measure of the data a = 0.25, b = (0.5,).
DESCRIPTOR_BASES = {
    "atomic": {"type": "atomic", "atoms": [[0.3, 1.5], [-1.0, 0.5]]},
    "zero": {"type": "atomic", "dimension": 1, "atoms": []},
    "density": {"type": "lebesgue", "dimension": 1, "density": "1/(1+t1^2)"},
}
DESCRIPTOR_KS = ("0.5,0,0.5", "1,0", "0,1", "0.2,0.3,0.5", "0.5,0.5", "0.5,0,0,0.5")
DESCRIPTOR_POINT = ("0.3+1i", "-0.5+0.7i", "1+2i", "0.1+0.4i")
_SLOW_EVALS = {("density", "0.5,0,0,0.5")}


def _run(cli_main, argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``cli_main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(run: tuple) -> str:
    return hashlib.sha256(repr(run).encode()).hexdigest()


def descriptor_lines(cli_main) -> list[str]:
    """``transform BASE K SHA256`` and ``eval BASE K SHA256`` for each base
    and k, the runs made through ``cli_main``."""
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        data, output = Path(workdir) / "data.json", Path(workdir) / "output.json"
        for name, measure in DESCRIPTOR_BASES.items():
            data.write_text(json.dumps({"schema": "nvk-1", "a": 0.25, "b": [0.5],
                                        "measure": measure}))
            for k in DESCRIPTOR_KS:
                run = _run(cli_main, ["transform", str(data), "--k", k])
                lines.append(f"transform {name} {k} {_sha256(run)}")
                if (name, k) in _SLOW_EVALS:
                    continue
                output.write_text(run[1])
                point = ",".join(DESCRIPTOR_POINT[:len(k.split(","))])
                run = _run(cli_main, ["eval", str(output), "--z", point, "--tol", "1e-6"])
                lines.append(f"eval {name} {k} {_sha256(run)}")
    return lines


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


@contextlib.contextmanager
def recording_results(h):
    """Feed the ``repr`` of every list that ``integrate_many`` returns into
    the hash ``h``, while the block runs."""
    import nvk.measures

    original = nvk.measures.integrate_many

    def recorded(*args, **kwargs):
        results = original(*args, **kwargs)
        h.update(repr(results).encode())
        h.update(b"\n")
        return results

    bound = [(mod, attr) for name, mod in list(sys.modules.items())
             if mod is not None and (name == "nvk" or name.startswith("nvk."))
             for attr, obj in list(vars(mod).items()) if obj is original]
    for mod, attr in bound:
        setattr(mod, attr, recorded)
    try:
        yield
    finally:
        for mod, attr in bound:
            setattr(mod, attr, original)


def _classify_view(keep):
    """A view of a classify result, (exit code, stdout), that hashes
    ``keep(code, report)``; any other result as ``repr``."""
    def view(value) -> str:
        try:
            code, text = value
            return repr(keep(code, json.loads(text)))
        except (TypeError, ValueError, KeyError):
            return repr(value)
    return view


def _drop_scale(code, doc):
    doc["evidence"].pop("nevanlinna_scale")
    return code, json.dumps(doc, sort_keys=True)


def _verdicts(code, doc):
    ev = doc["evidence"]
    return (code, doc["case"], doc["representing"], ev["evidence_representing"],
            ev["trait_conflict"], ev["growth_converged"])


# The report without ``evidence.nevanlinna_scale``, and its verdicts alone.
without_scale = _classify_view(_drop_scale)
verdicts = _classify_view(_verdicts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", type=Path, help="source tree with src/nvk and perfbench")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--ops", type=int, default=120)
    p.add_argument("--suites", action="store_true",
                   help="digest the nvk verify reports of SUITE_RUNS instead")
    p.add_argument("--descriptors", action="store_true",
                   help="digest the nvk transform and eval runs of DESCRIPTOR_BASES instead")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    if args.suites or args.descriptors:
        from nvk.cli import main as cli_main

        lines = suite_lines(cli_main) if args.suites else descriptor_lines(cli_main)
        print("\n".join(lines), flush=True)
        return 0
    import workloads

    for name in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as workdir:
            w = workloads.WORKLOADS[name](args.seed, workdir)
            names = [name] + ([f"{name}-without-scale", f"{name}-verdicts"]
                              if name == "classify" else [])
            views = (repr, without_scale, verdicts)[:len(names)]
            results = hashlib.sha256()
            with recording_results(results):
                hexdigests = digest(w, args.ops, views)
            for label, hexdigest in zip(names + [f"{name}-results"],
                                        hexdigests + [results.hexdigest()]):
                print(f"{label} seed={args.seed} ops={args.ops} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
