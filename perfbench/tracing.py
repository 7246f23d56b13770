"""Per-layer spans for ovalfront, installed from outside the program.

The tracer replaces functions where the program looks them up: every
public function of a layer module, in its defining module and in every
ovalfront module that imported the name, plus every SciPy object an
ovalfront module imported.  Callbacks that ovalfront hands to SciPy
(brentq targets, ODE right-hand sides, root residuals) get spans of the
layer that defined them, so SciPy's own time is what remains.

Spans (name, start, end, parent, operation id) are kept in flat arrays
while the run lasts and written out once at the end.  A span's self time
is its duration minus the durations of its direct children; in one thread
the children are disjoint, so this is the part no child covers.
"""

from __future__ import annotations

import fnmatch
import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "specio",
    "support",
    "curves",
    "wavefront",
    "harmonics",
    "sphere",
    "hyperbolic",
    "kernels",
    "scipy",
)

MODULE_LAYER = {
    "ovalfront.cli": "cli",
    "ovalfront.specio": "specio",
    "ovalfront.support": "support",
    "ovalfront.curves": "curves",
    "ovalfront.wavefront": "wavefront",
    "ovalfront.harmonics": "harmonics",
    "ovalfront.sphere": "sphere",
    "ovalfront.hyperbolic": "hyperbolic",
    "ovalfront._kernels": "kernels",
    "ovalfront._kernels.reference": "kernels",
    "ovalfront._kernels._native": "kernels",
}

# Helpers that run once per sample, per list element or per ODE step.  A
# span costs more than they do, and their callers sit in the same layer,
# so leaving them unwrapped moves no time between layers.
NOT_WRAPPED = {
    ("ovalfront.hyperbolic", "mdot"),
    ("ovalfront.hyperbolic", "mcross"),
    ("ovalfront.hyperbolic", "normalize_timelike"),
    ("ovalfront.specio", "jsonable"),
    ("ovalfront.curves", "eval_scalar"),
}

# metric name -> (kind, span-name patterns or layer or counter key)
#   self:    self time of every span of the layer, ms per operation
#   time:    time inside the outermost matching spans, ms per operation
#   calls:   matching spans per operation
#   evals:   direct children of matching spans per operation (the callbacks)
#   counter: value summed by a wrapper hook, per operation
PER_LAYER = {
    **{f"{layer}.self_ms": ("self", layer) for layer in LAYERS},
    "specio.load_ms": ("time", "specio.load_curve_spec"),
    "specio.write_ms": ("time", "specio.write_*"),
    "specio.bytes_written": ("counter", "specio.bytes_written"),
    "support.build_ms": ("time", "support.build_oval"),
    "kernels.trig_eval_ms": ("time", "kernels.trig_eval"),
    "kernels.trig_eval_calls": ("calls", "kernels.trig_eval"),
    "wavefront.propagate_ms": ("time", "wavefront.propagate"),
    "wavefront.propagate_calls": ("calls", "wavefront.propagate"),
    "wavefront.steiner_ms": ("time", "wavefront.steiner_check"),
    "wavefront.critical_front_ms": ("time", "wavefront.critical_front"),
    "curves.profile_ms": ("time", "curves.curvature_profile curves.count_mean_crossings"),
    "harmonics.spectrum_ms": ("time", "harmonics.spectrum"),
    "harmonics.sturm_hurwitz_ms": ("time", "harmonics.verify_sturm_hurwitz"),
    "kernels.transitions_ms": ("time", "kernels.transitions"),
    "scipy.brentq_calls": ("calls", "scipy.brentq"),
    "scipy.brentq_fevals": ("evals", "scipy.brentq"),
    "scipy.spline_builds": ("calls", "scipy.CubicSpline"),
    "sphere.build_ms": ("time", "sphere.perturbed_sphere_circle"),
    "sphere.diameter_ms": ("time", "sphere.spherical_diameter"),
    "sphere.curvature_ms": ("time", "sphere.geodesic_curvature"),
    "sphere.area_ms": ("time", "sphere.spherical_area_*"),
    "sphere.propagate_ms": ("time", "sphere.propagate_sphere"),
    "sphere.propagate_calls": ("calls", "sphere.propagate_sphere"),
    "sphere.torsion_ms": ("time", "sphere.total_torsion"),
    "sphere.equatorial_ms": ("time", "sphere.equatorial_front"),
    "hyperbolic.build_ms": ("time", "hyperbolic.perturbed_hyperbolic_circle"),
    "hyperbolic.curvature_ms": ("time", "hyperbolic.geodesic_curvature_h"),
    "hyperbolic.area_ms": ("time", "hyperbolic.hyperbolic_area_green"),
    "hyperbolic.propagate_ms": ("time", "hyperbolic.propagate_hyperbolic"),
    "hyperbolic.propagate_calls": ("calls", "hyperbolic.propagate_hyperbolic"),
    "hyperbolic.collapse_ms": ("time", "hyperbolic.collapse_front"),
    "curves.resample_ms": ("time", "curves.arclength_resample"),
    "kernels.periodic_deriv_ms": ("time", "kernels.periodic_deriv"),
    "kernels.periodic_deriv_calls": ("calls", "kernels.periodic_deriv"),
    "kernels.samples": ("counter", "kernels.samples"),
    "hyperbolic.semicircle_build_ms": ("time", "hyperbolic.build_rounded_semicircle"),
    "hyperbolic.threshold_ms": ("time", "hyperbolic.counterexample_threshold"),
    "scipy.solve_ivp_calls": ("calls", "scipy.solve_ivp"),
    "scipy.ode_rhs_evals": ("evals", "scipy.solve_ivp"),
    "scipy.root_fevals": ("evals", "scipy.root"),
}


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "specio.bytes_written":
        return "B"
    return "count"


def _path_size(args, kwargs):
    return "specio.bytes_written", os.path.getsize(args[0])


def _array_elements(args, kwargs):
    return "kernels.samples", sum(a.size for a in args if isinstance(a, np.ndarray))


class Tracer:
    """Span recorder; `install` patches the program, `uninstall` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[int, str], float] = {}
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                key, value = hook(args, kwargs)
                slot = (self.current_op, key)
                self.counters[slot] = self.counters.get(slot, 0) + value
            return result

        return traced

    def _wrap_scipy_function(self, name: str, fn):
        def with_callbacks(*args, **kwargs):
            # the first argument of brentq, solve_ivp and root is the callback
            layer = MODULE_LAYER.get(getattr(args[0], "__module__", None)) if args else None
            if layer is not None:
                args = (self.wrap(f"{layer}.{args[0].__qualname__}", args[0]), *args[1:])
            result = fn(*args, **kwargs)
            sol = getattr(result, "sol", None)
            if sol is not None:
                result.sol = self.wrap("scipy.OdeSolution", sol)
            return result

        return self.wrap(f"scipy.{name}", functools.wraps(fn)(with_callbacks))

    def _traced_class(self, name: str, cls):
        tracer = self

        class Traced(cls):
            __init__ = tracer.wrap(f"scipy.{name}", cls.__init__)
            __call__ = tracer.wrap(f"scipy.{name}.__call__", cls.__call__)

        return Traced

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items()) if name in MODULE_LAYER]
        replacements: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                key = id(obj)
                if key not in replacements:
                    if origin in MODULE_LAYER and not isinstance(obj, type):
                        if (origin, attr) in NOT_WRAPPED:
                            continue
                        hook = None
                        if origin == "ovalfront.specio" and attr.startswith("write_"):
                            hook = _path_size
                        elif MODULE_LAYER[origin] == "kernels":
                            hook = _array_elements
                        span = f"{MODULE_LAYER[origin]}.{obj.__name__}"
                        replacements[key] = self.wrap(span, obj, hook)
                    elif origin.startswith("scipy"):
                        if isinstance(obj, type):
                            replacements[key] = self._traced_class(attr, obj)
                        else:
                            replacements[key] = self._wrap_scipy_function(attr, obj)
                    else:
                        continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, replacements[key])
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, and the name table, to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Every PER_LAYER metric, per operation of the timed phase (op >= 0)."""
        a = self.arrays()
        name, parent, op = a["name"], a["parent"], a["op"]
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        timed = op >= 0
        span_layer = np.array([s.split(".", 1)[0] for s in self.names] or [""])[name]

        depth = np.zeros(n, dtype=np.int64)
        while True:
            nxt = np.where(has_parent, depth[np.maximum(parent, 0)] + 1, 0)
            if np.array_equal(nxt, depth):
                break
            depth = nxt
        levels = [np.flatnonzero(depth == d) for d in range(1, int(depth.max(initial=0)) + 1)]

        def matching(patterns: str) -> np.ndarray:
            ids = [i for i, s in enumerate(self.names)
                   if any(fnmatch.fnmatchcase(s, p) for p in patterns.split())]
            return np.isin(name, ids)

        out = {}
        for metric, (kind, arg) in PER_LAYER.items():
            if kind == "self":
                value = 1e3 * self_time[timed & (span_layer == arg)].sum()
            elif kind == "time":
                hit = matching(arg)
                inside = np.zeros(n, dtype=bool)
                for idx in levels:
                    p = parent[idx]
                    inside[idx] = hit[p] | inside[p]
                value = 1e3 * dur[timed & hit & ~inside].sum()
            elif kind == "calls":
                value = np.count_nonzero(timed & matching(arg))
            elif kind == "evals":
                hit = matching(arg)
                value = np.count_nonzero(timed & has_parent & hit[np.maximum(parent, 0)])
            else:
                value = sum(v for (o, k), v in self.counters.items() if o >= 0 and k == arg)
            out[metric] = float(value) / n_ops
        return out
