"""Benchmark of nvk's public API: one seeded, single-process, closed-loop
workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of the package (``src/nvk`` beside
``perfbench``).  One client in one thread calls the API in a closed loop for
``S`` seconds: the next op starts when the previous one returns, and each
op is timed from call to return.  Every op is checked against a reference
the benchmark computes itself (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
fresh interpreters importing ``nvk.cli`` and building the inputs),
``ops_per_s``, ``ok_ratio`` (ops that returned a finite value within
tolerance, over ops attempted) and ``peak_rss_mb``.

The median and tail latency (the latency with exactly ten samples beyond
it) are measured and written to the record, but are not end-to-end
metrics, because they are too unsteady to bound.  A shared 2-vCPU cloud
VM (Intel Xeon) was seen to switch between speed states about 1.5-1.7
times apart, for seconds to minutes at a time, and the share of a run
spent in the slow state varies from run to run.  Over nine sets of 5-10
runs of one workload (20-32 s each) there, the largest spread
(interquartile range over median) of the runs' throughput was 0.19, of
their median latency 0.35, and of their lowest or 10th-percentile latency
of each kind of op 0.31 and 0.35: throughput averages over the whole run,
while a quantile jumps with the state that most of the run, or a brief
part of it, fell in.

``--trace 1`` runs the untraced loop for half the time, then replays its
ops with span wrappers installed on the package's layer boundaries
(``tracing.py``), requires every replayed value to match the untraced one
bit for bit, and prints the per-layer metrics: counts and times per op, the
``import.*`` breakdown of ``python -X importtime -c 'import nvk.cli'``, the
untraced loop's median and tail latency (``loop.*``), the worst relative
error, the failure ratio and the tracing overhead.

The last line of standard output is the result object; the full record
(machine, versions, latencies, failures) is written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("convex_atomic", "classify", "ladder_verify")
SETUP_PROBES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def per_layer_units(names) -> dict[str, str]:
    units = {}
    for name in names:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "count"
    units.update({"accuracy.max_rel_err": "1", "fail_ratio": "1",
                  "trace.overhead_ratio": "1", "trace.ops": "count"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import nvk.cli and build the inputs (timed by the parent run)")
    return p.parse_args(argv)


def machine_record(seed: int) -> dict:
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=30)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
    }


def time_setup(args) -> float:
    """Median wall time of fresh interpreters that import nvk.cli and build
    this workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {r.stderr.strip()[-2000:]}")
    return statistics.median(times)


def import_breakdown() -> dict[str, float]:
    from tracing import parse_importtime

    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nvk.cli"],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise RuntimeError(f"import probe failed: {r.stderr.strip()[-2000:]}")
    return parse_importtime(r.stderr)


def run_op(call):
    """(value, latency in s, error text or None); an exception is a failed op
    whose latency still counts."""
    t0 = time.perf_counter()
    try:
        value = call()
        err = None
    except Exception as e:  # the loop records the failure and keeps running
        value = None
        err = "".join(traceback.format_exception_only(type(e), e)).strip()
    return value, time.perf_counter() - t0, err


def closed_loop(workload, seconds: float):
    """Run ops until ``seconds`` have passed; returns (ops, records, wall)."""
    ops, records = [workload.next_op()], []
    run_op(ops[0].call)  # warm-up, not recorded
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        if len(ops) == len(records):
            ops.append(workload.next_op())
        op = ops[len(records)]
        value, lat, err = run_op(op.call)
        ok, rel = False, None
        if err is None:
            try:
                ok, rel = op.check(value)
            except Exception as e:  # a malformed result fails the op
                err = f"check: {type(e).__name__}: {e}"
        records.append({"label": op.label, "latency_s": lat, "ok": ok, "rel_err": rel,
                        "error": err, "value": repr(value)})
    return ops, records, time.perf_counter() - t_start


def tail(latencies):
    """(value, percentile, samples beyond): the latency with TAIL_BEYOND
    samples above it, i.e. the highest percentile with that many beyond it;
    the maximum when a run has too few ops for that."""
    s = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(s) - 1)
    k = len(s) - 1 - beyond
    return s[k], 100.0 * (k + 1) / len(s), beyond


def traced_replay(ops, records, tag: str):
    import tracing

    tr = tracing.Tracer()
    patched = tracing.install(tr)
    try:
        latencies, mismatches = [], 0
        for i, rec in enumerate(records):
            value, lat, err = run_op(lambda: tr.op(i, ops[i].call))
            latencies.append(lat)
            if repr(value) != rec["value"] or (err is None) != (rec["error"] is None):
                mismatches += 1
    finally:
        tracing.uninstall(patched)
    tr.write(str(OUT / f"spans-{tag}.jsonl.gz"))
    return tr, latencies, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nvk" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nvk'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: str) -> int:
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, workdir).next_op()
        return 0

    setup_s = time_setup(args) if not args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ops, records, wall = closed_loop(workload, args.seconds / 2 if args.trace else args.seconds)

    lat = [r["latency_s"] for r in records]
    failed = sum(1 for r in records if not r["ok"])
    attempted = len(records)
    tail_s, tail_pct, tail_beyond = tail(lat)
    rel_errs = [r["rel_err"] for r in records if r["rel_err"] is not None]
    result = {
        "machine": machine_record(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": tail_beyond,
        "failures": [{"op": i, "label": r["label"], "error": r["error"], "value": r["value"]}
                     for i, r in enumerate(records) if not r["ok"]][:20],
        "latencies_ms": [1000.0 * x for x in lat],
        "labels": [r["label"] for r in records],
    }
    loop = {
        "loop.op_p50_ms": 1000.0 * statistics.median(lat),
        "loop.op_tail_ms": 1000.0 * tail_s,
    }
    result.update(loop)
    correct = failed == 0

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": attempted / wall,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        import tracing

        imports = import_breakdown()
        tag = f"{args.workload}-seed{args.seed}"
        tr, traced_lat, mismatches = traced_replay(ops, records, tag)
        metrics = tracing.layer_metrics(tr, attempted)
        metrics.update(imports)
        metrics.update(loop)
        metrics["accuracy.max_rel_err"] = max(rel_errs, default=0.0)
        metrics["fail_ratio"] = failed / attempted
        metrics["trace.overhead_ratio"] = sum(traced_lat) / sum(lat)
        metrics["trace.ops"] = attempted
        units = per_layer_units(metrics)
        result["trace_mismatches"] = mismatches
        result["spans_kept"] = sum(1 for s in tr.spans if s is not None)
        result["spans_dropped"] = tr.dropped_spans
        correct = correct and mismatches == 0
        if mismatches:
            print(f"error: {mismatches} traced op values differ from the untraced run",
                  file=sys.stderr)

    for f in result["failures"]:
        print(f"failed op {f['op']} ({f['label']}): {f['error'] or f['value']}", file=sys.stderr)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    result.update(out)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"machine": result["machine"], "op_tail_percentile": tail_pct,
                      "op_tail_beyond": result["op_tail_beyond"], "record": f"perfbench/out/{name}"}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
