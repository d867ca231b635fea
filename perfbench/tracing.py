"""Span tracer for the traced pass.

The benchmark never edits the program: it records spans by replacing the
public functions of each ``ksr`` module (and a few methods) with wrappers,
and rebinding every module-level reference to them, including names that
one module imported from another and the ``oracle.SUITES`` table.

A span's self time is its duration minus the time covered by its child
spans. Total time counts only the outermost call of a name, so recursion
is not counted twice. Generators are timed across each ``next()`` and
count the items they yield. Spans are aggregated in memory per name
(calls, items, total, self, errors).
"""

from __future__ import annotations

import inspect
import time

MODULES = ("cli", "gridfn", "kscore", "landau", "lspace", "modulus", "oracle", "ostrowski", "poly", "recovery")

# Methods traced besides the module functions: span name -> (module, classes, method).
# The modulus families override __call__ and primitive, so each family's
# method is traced under the one interface name.
METHODS = {
    "gridfn.GridFunction.value_at": ("gridfn", ("GridFunction",), "value_at"),
    "modulus.Modulus.__call__": (
        "modulus", ("PowerModulus", "PiecewiseLinearConcave", "MinLinearConstant"), "__call__"),
    "modulus.Modulus.primitive": (
        "modulus", ("PowerModulus", "PiecewiseLinearConcave", "MinLinearConstant"), "primitive"),
}

SUITE_NAMES = ("lspace", "ks", "eq12", "general", "ostrowski", "recovery", "spline", "landau")

# The layer metrics: span name -> reported fields. Each field is a
# Stat attribute, except "samples" (items a generator yielded).
LAYER_SPANS = {
    "oracle.sample_class": ("samples", "self_s", "total_s"),
    "oracle.empirical_sup": ("calls", "self_s", "total_s"),
    **{f"oracle.suite.{s}": ("total_s",) for s in SUITE_NAMES},
    "gridfn.check_Homega": ("calls", "self_s"),
    "gridfn.integrate": ("calls", "self_s"),
    "gridfn.from_values": ("calls", "self_s"),
    "gridfn.sup_dist": ("calls", "self_s"),
    "gridfn.lift": ("calls", "self_s"),
    "gridfn.hukuhara_derivative": ("calls", "self_s", "errors"),
    "gridfn.omega_seminorm": ("calls", "self_s"),
    "gridfn.GridFunction.value_at": ("calls", "self_s"),
    "recovery.mean_info": ("calls", "self_s", "total_s"),
    "recovery.recover_convexify": ("calls", "self_s"),
    "recovery.recover_integral": ("calls", "self_s"),
    "recovery.polyline": ("calls", "self_s"),
    "recovery.polyline_derivative": ("calls", "self_s"),
    "recovery.omega_spline": ("calls", "self_s"),
    "kscore.functional_S": ("calls", "self_s"),
    "kscore.integrate_weighted": ("calls", "self_s"),
    "kscore.ks_bound": ("calls", "self_s"),
    "kscore.general_bound": ("calls", "self_s"),
    "kscore.decompose_weights": ("calls", "self_s"),
    "modulus.Modulus.__call__": ("calls", "self_s"),
    "modulus.Modulus.primitive": ("calls", "self_s"),
    "modulus.parse_modulus": ("calls", "self_s"),
    "landau.K_value": ("calls", "self_s"),
    "ostrowski.two_interval_bound": ("calls", "self_s"),
    "ostrowski.symmetric_bound": ("calls", "self_s"),
    "ostrowski.point_vs_mean_bound": ("calls", "self_s"),
    "ostrowski.symmetrized_pair_bound": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "total_s"),
    "lspace.dist": ("calls", "errors"),
    "lspace.add": ("calls", "errors"),
    "lspace.scale": ("calls", "errors"),
    "lspace.hukuhara_diff": ("calls", "errors"),
}

# Derived layer metrics, computed by the worker from the spans above.
DERIVED = {
    "gridfn.check_Homega.per_sample": "ratio",
    "oracle.sample_class.wall_share": "share",
    "recovery.mean_info.large_n_share": "share",
    "tracing.traced_wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_s": "s",
}

FIELD_UNITS = {"calls": "count", "samples": "count", "errors": "count", "self_s": "s", "total_s": "s"}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span, fields in LAYER_SPANS.items():
        for field in fields:
            out[f"{span}.{field}"] = FIELD_UNITS[field]
    out.update(DERIVED)
    return out


class Stat:
    __slots__ = ("calls", "items", "total_s", "self_s", "errors", "depth")

    def __init__(self):
        self.calls = self.items = self.errors = self.depth = 0
        self.total_s = self.self_s = 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "items": self.items, "total_s": self.total_s,
                "self_s": self.self_s, "errors": self.errors}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.missing = []
        self._stack = []

    def _timed(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``name``."""
        st = self.stats[name]
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        st.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            st.errors += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            st.depth -= 1
            st.calls += 1
            st.self_s += dt - frame[1]
            if st.depth == 0:
                st.total_s += dt
            if stack:
                stack[-1][1] += dt

    def wrap(self, name: str, fn):
        self.stats.setdefault(name, Stat())
        timed = self._timed

        if inspect.isgeneratorfunction(fn):
            st = self.stats[name]

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(name, it.__next__, (), {})
                    except StopIteration:
                        return
                    st.items += 1
                    yield item

            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                return timed(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, ksr_modules: dict) -> None:
        """Wrap the public functions of ``ksr_modules`` (short name ->
        module) and the traced methods, and rebind every reference.

        A layer span whose target no longer exists is listed in
        ``self.missing`` and reports zeros.
        """
        wrapped = {}
        for short, mod in ksr_modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in ksr_modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        for name, (short, classes, method) in METHODS.items():
            for cls_name in classes:
                cls = getattr(ksr_modules.get(short), cls_name, None)
                fn = vars(cls).get(method) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, method, self.wrap(name, fn))

        suites = getattr(ksr_modules.get("oracle"), "SUITES", {})
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(f"oracle.suite.{key}", fn)

        self.missing = [name for name in LAYER_SPANS if name not in self.stats]
        for name in self.missing:
            self.stats[name] = Stat()

    def totals(self) -> dict:
        return {name: st.total_s for name, st in self.stats.items()}

    def field(self, span: str, field: str) -> float:
        st = self.stats[span]
        return st.items if field == "samples" else getattr(st, field)
