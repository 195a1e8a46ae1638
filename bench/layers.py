"""Per-layer metrics of the traced run, the exact-count determinism check
and the factor-build pins.

Counts come from the first traced pass and must repeat exactly in every
later traced pass; self times are the median over the traced passes.  All
values are per pass, and a pass is one cycle of the workload.
"""

from __future__ import annotations

import hashlib
import json
import statistics

from spans import MUL_BUCKETS


def snapshot(tracer, builds, factor) -> dict:
    """A traced pass's counters; self times scaled by the host factor."""
    return {"calls": dict(tracer.calls),
            "self_s": {k: v * factor for k, v in tracer.self_s.items()},
            "errors": tracer.errors, "counts": dict(tracer.counts),
            "builds": list(builds)}


def _calls(snap, layer):
    return sum(n for key, n in snap["calls"].items()
               if key == layer or key.startswith(layer + "."))


def _self_s(snaps, layer):
    return statistics.median(
        sum((s for key, s in snap["self_s"].items()
             if key == layer or key.startswith(layer + ".")), 0.0)
        for snap in snaps)


def _exact(snap) -> dict:
    """The part of a snapshot that must repeat exactly."""
    return {"calls": snap["calls"], "counts": snap["counts"], "errors": snap["errors"],
            "builds": snap["builds"]}


def factor_builds(ops, builds) -> tuple[list[dict], float]:
    """Integrating-factor builds per CLI solve, grouped by mode and k.
    Series mode builds 3 + k today and numeric mode 4k + 1."""
    groups, total, n = {}, 0, 0
    for op, b in zip(ops, builds):
        mode = op.meta.get("if_mode")
        if mode is None:
            continue
        groups.setdefault((mode, op.meta["k"]), set()).add(b)
        total += b
        n += 1
    rows = []
    for (mode, k), seen in sorted(groups.items()):
        formula = 3 + k if mode == "series" else 4 * k + 1
        rows.append({"mode": mode, "k": k, "builds": sorted(seen),
                     "formula": "3+k" if mode == "series" else "4k+1",
                     "formula_value": formula, "holds": seen == {formula}})
    return rows, (total / n if n else 0.0)


def report(workload, workloads, ops, passes, untraced_s, traced_s):
    traced = [snap for kind, _, snap in passes if kind == "traced"]
    first = traced[0]
    problems = []

    # Determinism: identical counts in every traced pass, identical op
    # outcomes and digests in every pass, traced or not.
    for i, snap in enumerate(traced[1:], start=2):
        if _exact(snap) != _exact(first):
            diff = sorted(k for k in set(snap["calls"]) | set(first["calls"])
                          if snap["calls"].get(k) != first["calls"].get(k))
            problems.append(f"determinism: traced pass {i} counts differ from pass 1 "
                            f"(calls differ for {diff[:8]}; counts {snap['counts']} vs "
                            f"{first['counts']})")
    ref = [(o.status, o.digest) for o in passes[0][1]]
    for i, (kind, outs, _) in enumerate(passes[1:], start=2):
        got = [(o.status, o.digest) for o in outs]
        if got != ref:
            bad = [ops[j].cls for j, (x, y) in enumerate(zip(got, ref)) if x != y]
            problems.append(f"determinism: pass {i} ({kind}) outputs differ in {bad[:8]}")

    # Coverage: every layer the workload must reach was called.
    for layer in workloads.EXPECTED_LAYERS[workload]:
        if _calls(first, layer) == 0:
            problems.append(f"coverage: layer {layer} had no calls on {workload}")

    pins, per_solve = factor_builds(ops, first["builds"])
    m = {}
    for b in MUL_BUCKETS:
        m[f"stseries.mul.calls.{b}"] = (_calls(first, f"stseries.mul.{b}"), "count")
    for b in MUL_BUCKETS:
        m[f"stseries.mul.self_s.{b}"] = (_self_s(traced, f"stseries.mul.{b}"), "s")
    m["stseries.div.calls"] = (_calls(first, "stseries.div"), "count")
    m["stseries.div.self_s"] = (_self_s(traced, "stseries.div"), "s")
    m["stseries.max_coeff_bits"] = (first["counts"]["stseries.max_coeff_bits"], "bits")
    m["stsolve.integrating_factor.calls"] = (_calls(first, "stsolve.integrating_factor"), "count")
    m["stsolve.integrating_factor.per_solve"] = (per_solve, "builds/op")
    m["stsolve.integrating_factor.self_s"] = (_self_s(traced, "stsolve.integrating_factor"), "s")
    m["stsolve.residual.calls"] = (_calls(first, "stsolve.residual"), "count")
    m["stsolve.residual.self_s"] = (_self_s(traced, "stsolve.residual"), "s")
    m["stsolve.solve.calls"] = (_calls(first, "stsolve.solve"), "count")
    m["stsolve.solve.self_s"] = (_self_s(traced, "stsolve.solve"), "s")
    m["stsolve.integration_factor_value.self_s"] = (
        _self_s(traced, "stsolve.integration_factor_value"), "s")
    m["stseries.symbolic_powers.calls"] = (_calls(first, "stseries.symbolic_powers"), "count")
    m["stseries.symbolic_powers.k_total"] = (
        first["counts"]["stseries.symbolic_powers.k_total"], "count")
    m["stseries.symbolic_powers.self_s"] = (_self_s(traced, "stseries.symbolic_powers"), "s")
    m["stseries.compose.calls"] = (_calls(first, "stseries.compose"), "count")
    m["stseries.compose.self_s"] = (_self_s(traced, "stseries.compose"), "s")
    for layer in ("stnum.st_factorial", "stnum.st_number_range"):
        m[f"{layer}.calls"] = (_calls(first, layer), "count")
        m[f"{layer}.self_s"] = (_self_s(traced, layer), "s")
    m["stable.stable_sum.calls"] = (_calls(first, "stable.stable_sum"), "count")
    m["stable.stable_sum.terms"] = (first["counts"]["stable.stable_sum.terms"], "count")
    m["stable.stable_sum.self_s"] = (_self_s(traced, "stable.stable_sum"), "s")
    for layer in ("stfun.point", "stquad.st_integral", "stseries.eval", "stfun.series",
                  "stquad.antiderivative_at", "stquad.pq_integral",
                  "stseries.elementwise"):
        m[f"{layer}.calls"] = (_calls(first, layer), "count")
        m[f"{layer}.self_s"] = (_self_s(traced, layer), "s")
    for layer in ("cli.parse_expression", "cli.format_series", "cli.main",
                  "identities.run_all", "stnum.golden_pair"):
        m[f"{layer}.self_s"] = (_self_s(traced, layer), "s")
    m["trace.exceptions"] = (first["errors"], "count")
    m["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(untraced_s),
                                 "ratio")

    # Same seed, same code: this digest repeats across runs and machines.
    exact = json.dumps({**_exact(first), "outputs": ref}, sort_keys=True)
    detail = {
        "count_digest": hashlib.sha256(exact.encode()).hexdigest()[:16],
        "passes": [kind for kind, _, _ in passes],
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "factor_builds": pins,
        "calls": first["calls"], "counts": first["counts"],
        "failures": {},
    }
    for o in passes[0][1]:
        if o.status != "ok":
            detail["failures"][o.status] = detail["failures"].get(o.status, 0) + 1
    return m, detail, problems
