"""stpanto benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload with no wrapper installed and prints the
end-to-end metrics.  ``--trace 1`` runs the workload's first cycle in
alternating untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
is the provenance and per-run detail record, which is also written to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_OPS = {"exact-solve": 120, "float-solve": 120, "pointwise": 800}
                        # distinct ops per run; latency_p90_ms needs >= 100
MIN_PASSES = 2          # passes over the op list
MAX_RUN_S = 140.0       # stop adding passes after this much wall time
SETUP_REPEATS = 7       # cold starts per run; setup_s is their median
COLD_START = ("import stpanto, stpanto.cli, sys; "
              "sys.exit(stpanto.cli.main(['numbers', '--s=3', '--t=-2', '--upto=10']))")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["exact-solve", "float-solve", "pointwise"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# -- measurements -----------------------------------------------------------------

def measure_setup(meter) -> tuple[float, list[float]]:
    """Cold start: a fresh interpreter imports stpanto and runs one
    ``numbers`` op.  One unmeasured start first writes the bytecode cache.
    Returns the normalised median and the raw times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ST_PANTO_PRECISION", None)
    times = []
    for i in range(SETUP_REPEATS + 1):
        meter.sample(3)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or b'"values"' not in done.stdout:
            raise RuntimeError(f"cold start failed: {done.stderr.decode()[-300:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times) * meter.factor, times


def quantile(values, q):
    """Interpolated q-quantile (q in (0, 1)), as statistics.quantiles gives it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tally(outcomes):
    kinds = {}
    for o in outcomes:
        if o.status != "ok":
            kinds[o.status] = kinds.get(o.status, 0) + 1
    return kinds


def judge(ops, outcomes, workloads):
    """Failures that are not known defects make the run incorrect."""
    return [f"{o.cls} {' '.join(op.meta.get('argv', []))}: {o.status} {o.detail}"
            for op, o in zip(ops, outcomes)
            if o.status != "ok" and not workloads.known_defect(op, o)]


def op_list(workloads, args):
    """The run's ops: whole cycles of the workload, at least MIN_OPS."""
    ops, index = [], 0
    while len(ops) < MIN_OPS[args.workload]:
        ops += workloads.cycle(args.workload, args.seed, index)
        index += 1
    return ops, index


def run_untraced(args, workloads, execute):
    """Repeat passes over one op list until ``seconds`` of op time have been
    measured (at least MIN_PASSES passes).  Every execution is one latency
    sample, normalised for host speed (see calib.py)."""
    from calib import HostMeter
    from spans import assert_untraced
    assert_untraced()
    setup_meter = HostMeter()
    setup_s, setup_samples = measure_setup(setup_meter)
    warm_up(workloads, execute)
    ops, cycles = op_list(workloads, args)
    meter = HostMeter()
    samples = [[] for _ in ops]
    first, problems = None, []
    measured, passes, pass_s = 0.0, 0, []
    start = time.perf_counter()
    while passes < MIN_PASSES or measured < args.seconds:
        # Only the first pass runs the checks; a later pass must reproduce
        # every output digest, which carries the checked status over.
        outs = []
        for op in ops:
            outs.append(execute(op, check=first is None))
            meter.after_op(outs[-1].latency)
        pass_s.append(sum(o.latency for o in outs))
        measured += pass_s[-1]
        passes += 1
        if first is None:
            first = outs
        bad = []
        for i, o in enumerate(outs):
            samples[i].append(o.latency)
            if o.digest != first[i].digest or o.status not in ("unchecked", first[i].status):
                bad.append(ops[i].cls)
        if bad:
            problems.append(f"determinism: pass {passes} outputs differ in {bad[:8]}")
        if passes >= MIN_PASSES and time.perf_counter() - start > MAX_RUN_S:
            break
    assert_untraced()
    ok = sum(o.status == "ok" for o in first)
    executions = [x for xs in samples for x in xs]

    def timing(scale):
        """(ok executions per second, p50 ms, p90 ms) over every execution."""
        ms = [x * scale * 1000 for x in executions]
        return ok * passes / (sum(ms) / 1000), statistics.median(ms), quantile(ms, 0.90)

    ops_per_s, p50, p90 = timing(meter.factor)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_ratio": (ok / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw_ops_per_s, raw_p50, raw_p90 = timing(1.0)
    detail = {
        "cycles": cycles, "ops": len(ops), "passes": passes,
        "executions": passes * len(ops), "measured_s": measured,
        "pass_s": pass_s, "failed_ratio": 1 - ok / len(ops),
        "failures": tally(first),
        "raw": {"ops_per_s": raw_ops_per_s, "latency_p50_ms": raw_p50,
                "latency_p90_ms": raw_p90, "setup_s": statistics.median(setup_samples),
                "setup_samples_s": setup_samples},
        "host": meter.record(), "setup_host": setup_meter.record(),
        "digest": digest_of(first),
        "per_class": per_class(first, [statistics.mean(xs) for xs in samples]),
        "samples_ms": [[round(x * 1000, 6) for x in xs] for xs in samples],
    }
    return ops, first, metrics, detail, problems


def warm_up(workloads, execute):
    """A few cheap ops from a seed no run uses, so first-call costs (lazy
    imports, mpmath caches) stay out of the measured ops."""
    for op in workloads.cycle("pointwise", -1, 0)[:4]:
        execute(op)


def per_class(outcomes, latencies):
    table = {}
    for o, latency in zip(outcomes, latencies):
        row = table.setdefault(o.cls, {"n": 0, "ok": 0, "sum_ms": 0.0})
        row["n"] += 1
        row["ok"] += o.status == "ok"
        row["sum_ms"] += latency * 1000
    return {k: {"n": v["n"], "ok": v["ok"], "mean_ms": v["sum_ms"] / v["n"]}
            for k, v in sorted(table.items())}


def digest_of(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.cls}|{o.status}|{o.digest}\n".encode())
    return h.hexdigest()[:16]


# -- traced run ---------------------------------------------------------------------

def run_traced(args, workloads, execute):
    """Alternate untraced and traced passes over the first cycle until
    ``seconds`` have passed, with at least two traced passes.  Pass times
    and self times are normalised by each pass's own host factor."""
    from calib import HostMeter
    from spans import Tracer
    import layers
    tracer = Tracer()
    warm_up(workloads, execute)
    ops = workloads.cycle(args.workload, args.seed, 0)
    untraced_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while True:
        meter = HostMeter()
        outs = []
        for op in ops:
            outs.append(execute(op))
            meter.after_op(outs[-1].latency)
        untraced_s.append(sum(o.latency for o in outs) * meter.factor)
        passes.append(("untraced", outs, None))

        meter = HostMeter()
        tracer.reset()
        tracer.install(check_coverage=not traced_s)
        try:
            outs, builds = [], []
            for op in ops:
                before = tracer.calls.get("stsolve.integrating_factor", 0)
                tracer.recording = True
                outs.append(execute(op, before_check=lambda: setattr(tracer, "recording", False)))
                builds.append(tracer.calls.get("stsolve.integrating_factor", 0) - before)
                meter.after_op(outs[-1].latency)
        finally:
            tracer.recording = True
            tracer.uninstall()
        traced_s.append(sum(o.latency for o in outs) * meter.factor)
        passes.append(("traced", outs, layers.snapshot(tracer, builds, meter.factor)))
        n_traced = sum(kind == "traced" for kind, _, _ in passes)
        if n_traced >= 2 and time.perf_counter() - start >= args.seconds:
            break
    return ops, passes, untraced_s, traced_s


# -- output -------------------------------------------------------------------------

def provenance(args, workloads):
    import mpmath
    import mpmath.libmp
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "precision": workloads.PRECISION, "git_commit": git_commit(),
        "source_digest": source_digest(), "workloads": workloads.describe(),
        "known_defects": workloads.KNOWN_DEFECTS,
        "clock": "time.perf_counter around each op call, checks outside it; "
                 "times normalised for host speed by calib.py",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stpanto").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def emit(args, record, result):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**record, "result": result},
                                           default=str) + "\n")
    # Standard output gets the record without the per-op samples.
    detail = {k: v for k, v in record["detail"].items() if k != "samples_ms"}
    print(json.dumps({**record, "detail": detail}, default=str))
    print(json.dumps(result))


def metric_block(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stpanto" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no stpanto sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ.pop("ST_PANTO_PRECISION", None)
    import workloads
    from ops import execute

    record = {"provenance": provenance(args, workloads)}
    if args.trace == 0:
        ops, outcomes, metrics, detail, problems = run_untraced(args, workloads, execute)
    else:
        import layers
        ops, passes, untraced_s, traced_s = run_traced(args, workloads, execute)
        metrics, detail, problems = layers.report(args.workload, workloads, ops, passes,
                                                  untraced_s, traced_s)
        outcomes = passes[0][1]
    # Counts are per distinct op of the checked pass, so they depend on the
    # seed alone, not on how many timed passes fit into --seconds.
    unexpected = judge(ops, outcomes, workloads) + problems
    attempted = len(outcomes)
    failed = attempted - sum(o.status == "ok" for o in outcomes)
    record["detail"] = detail
    record["unexpected"] = unexpected
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metric_block(metrics)}
    emit(args, record, result)
    if unexpected:
        for line in unexpected[:20]:
            sys.stderr.write(f"bench: {line}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
