"""Per-layer spans for the traced run.

The benchmark records spans from its own files.  It replaces each public
function of a layer with a wrapper in every namespace of the ``stpanto``
package that binds it (module globals, the package namespace and class
dictionaries, so aliases such as ``Series.__rmul__`` are covered too), and
puts the originals back afterwards.  Nothing under ``src/`` changes, and an
untraced pass runs with no wrapper installed.

A wrapper records, per layer: calls, self time (its span minus the spans of
wrapped calls made inside it) and exceptions raised.  A few layers also
record counts: series order buckets for products, the terms consumed by
``stable_sum``, the symbolic-power orders built and the largest Fraction
coefficient (in bits) a product or quotient returned.
"""

from __future__ import annotations

import gc
import sys
from fractions import Fraction
from time import perf_counter

# (layer, module, attribute); "Series.x" names a method of Series.
TARGETS = [
    ("stnum.st_factorial", "stpanto.stnum", "st_factorial"),
    ("stnum.st_number_range", "stpanto.stnum", "st_number_range"),
    ("stnum.golden_pair", "stpanto.stnum", "golden_pair"),
    ("stseries.mul", "stpanto.stseries", "Series.__mul__"),
    ("stseries.div", "stpanto.stseries", "Series.__truediv__"),
    ("stseries.elementwise", "stpanto.stseries", "Series.__add__"),
    ("stseries.elementwise", "stpanto.stseries", "Series.__neg__"),
    ("stseries.elementwise", "stpanto.stseries", "Series.__sub__"),
    ("stseries.elementwise", "stpanto.stseries", "Series.__rsub__"),
    ("stseries.elementwise", "stpanto.stseries", "st_derive"),
    ("stseries.elementwise", "stpanto.stseries", "st_antiderive"),
    ("stseries.elementwise", "stpanto.stseries", "scale"),
    ("stseries.eval", "stpanto.stseries", "Series.eval"),
    ("stseries.symbolic_powers", "stpanto.stseries", "symbolic_powers"),
    ("stseries.compose", "stpanto.stseries", "compose_ab"),
    ("stseries.compose", "stpanto.stseries", "compose_deformed"),
    ("stseries.compose", "stpanto.stseries", "sq_int"),
    ("stable.stable_sum", "stpanto._stable", "stable_sum"),
    ("stfun.point", "stpanto.stfun", "pantograph_at"),
    ("stfun.point", "stpanto.stfun", "deformed_exp_at"),
    ("stfun.point", "stpanto.stfun", "partial_theta"),
    ("stfun.point", "stpanto.stfun", "psi_theta"),
    ("stfun.series", "stpanto.stfun", "deformed_exp"),
    ("stfun.series", "stpanto.stfun", "pantograph"),
    ("stfun.series", "stpanto.stfun", "product_exp"),
    ("stfun.series", "stpanto.stfun", "partial_theta_series"),
    ("stfun.series", "stpanto.stquad", "pantograph_antiderivative_series"),
    ("stquad.st_integral", "stpanto.stquad", "st_integral"),
    ("stquad.antiderivative_at", "stpanto.stquad", "pantograph_antiderivative_at"),
    ("stquad.antiderivative_at", "stpanto.stquad", "theta_antiderivative_at"),
    ("stquad.pq_integral", "stpanto.stquad", "pq_integral"),
    ("stsolve.integrating_factor", "stpanto.stsolve", "integrating_factor"),
    ("stsolve.residual", "stpanto.stsolve", "residual"),
    ("stsolve.solve", "stpanto.stsolve", "solve_series_linear"),
    ("stsolve.solve", "stpanto.stsolve", "solve_integration_factor"),
    ("stsolve.solve", "stpanto.stsolve", "solve_special_rhs"),
    ("stsolve.solve", "stpanto.stsolve", "solve_operator"),
    ("stsolve.integration_factor_value", "stpanto.stsolve", "integration_factor_value"),
    ("cli.main", "stpanto.cli", "main"),
    ("cli.parse_expression", "stpanto.cli", "parse_expression"),
    ("cli.format_series", "stpanto.cli", "format_series"),
    ("identities.run_all", "stpanto.identities", "run_all"),
]

MUL_BUCKETS = ("n32", "n64", "n128")  # orders <= 32, 33..64, 65..128


def mul_bucket(order: int) -> str:
    return "n32" if order <= 32 else "n64" if order <= 64 else "n128"


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Wrappers plus the counters they fill.  ``install`` / ``uninstall``
    swap the wrappers in and out; ``reset`` clears the counters."""

    def __init__(self):
        import stpanto.stseries as stseries
        self._series_cls = stseries.Series
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.recording = True  # False while the harness checks an op's output
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors = 0
        self.counts = {"stable.stable_sum.terms": 0,
                       "stseries.symbolic_powers.k_total": 0,
                       "stseries.max_coeff_bits": 0}

    # -- recording ----------------------------------------------------------

    def _classify(self, layer, args):
        """Series x Series products and quotients keep their layer (products
        by order bucket); products or quotients by a scalar are elementwise."""
        if layer not in ("stseries.mul", "stseries.div"):
            return layer
        if len(args) < 2 or not isinstance(args[1], self._series_cls):
            return "stseries.elementwise"
        if layer == "stseries.div":
            return layer
        return f"stseries.mul.{mul_bucket(min(args[0].order, args[1].order))}"

    def _after(self, key, result):
        counts = self.counts
        if key == "stable.stable_sum":
            counts["stable.stable_sum.terms"] += result[1]
        elif key == "stseries.symbolic_powers":
            counts["stseries.symbolic_powers.k_total"] += len(result) - 1
        elif key.startswith("stseries.mul.") or key == "stseries.div":
            bits = _coeff_bits(result)
            if bits > counts["stseries.max_coeff_bits"]:
                counts["stseries.max_coeff_bits"] = bits

    def _wrap(self, layer, fn):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            key = tracer._classify(layer, args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors += 1
                raise
            finally:
                span = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + span - child
            # Counting is trace overhead: keep it out of the caller's self time.
            t1 = perf_counter()
            tracer._after(key, result)
            if stack:
                stack[-1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _namespaces(self):
        """Every dict that can bind a package function: module globals and
        the dicts of classes defined in the package."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "stpanto" or name.startswith("stpanto.")):
                continue
            yield module, vars(module)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value, value.__dict__

    def _originals(self):
        out = []
        for layer, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if attr.startswith("Series."):
                fn = vars(owner)["Series"].__dict__[attr.split(".", 1)[1]]
            else:
                fn = vars(owner)[attr]
            out.append((layer, fn))
        return out

    def install(self, check_coverage=False):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(layer, fn)) for layer, fn in self._originals()}
        for owner, namespace in self._namespaces():
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value, hit[1]))
        if check_coverage:
            self._check_coverage(wrappers)

    def _check_coverage(self, wrappers):
        """After patching, no dict may still bind an original function.  A
        binding the namespace scan missed (a dispatch table, say) would
        silently drop that layer's calls, so it fails the run instead."""
        ours = {id(wrapper.__dict__) for _, wrapper in wrappers.values()}
        originals = [fn for fn, _ in wrappers.values()]
        missed = []
        for ref in gc.get_referrers(*originals):
            if isinstance(ref, dict) and id(ref) not in ours:
                missed += [str(key) for key, value in ref.items()
                           if any(value is fn for fn in originals)]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left unwrapped bindings: {', '.join(missed)}")

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def assert_untraced():
    """Raise if any wrapper is installed (the untraced run must carry none)."""
    import stpanto.stseries as stseries
    import stpanto.cli as cli
    for fn in (stseries.Series.__mul__, stseries.Series.__rmul__, cli.main,
               stseries.compose_ab):
        if hasattr(fn, "__wrapped__"):
            raise RuntimeError("untraced run found a trace wrapper installed")
