"""Per-layer tracing of oqrisk from outside the package.

The layers are oqrisk's modules.  ``Tracer.install`` wraps every public
function of each layer module and rebinds the wrapper wherever the original
function object is bound across oqrisk's modules (so ``report`` calling
``cumulants.cumulant_rate`` and ``oqrisk.cumulant_rate`` both go through
it), and wraps public methods of the layer's classes in place.  Nothing
under ``src/`` changes; ``uninstall`` restores every binding.

A wrapped call records a span (name, start, end, parent, raised, note) in
memory; ``write_spans`` writes them out at the end.  Functions called more than about 1e4 times per pass are only
counted (``COUNT_ONLY``): timing the 2.6 M ``f_transform`` calls of one
analyze pass would nearly double the deviations block.  Their time stays in
the calling span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("model", "matfun", "gaussian", "quartic", "cumulants", "deviations",
          "classical", "report")
# modules traced under another layer's name
LAYER_OF_MODULE = {name: name for name in LAYERS} | {"cli": "report"}

# More than about 1e4 calls in one pass of some workload (f_transform
# 7.9 M on paper-spectral, g and d_pair 19.7 k, d 11.6 k; the next is
# opnorm2 at 903); these are counted and never timed.
COUNT_ONLY = frozenset({
    "deviations.DeviationAnalysis.f_transform",
    "gaussian.SpectralDensity.g",
    "gaussian.SpectralDensity.d_pair",
    "gaussian.SpectralDensity.d",
})

# matfun's integrators call back into their caller's integrand: the callback
# gets a span named after the calling span, so its work is billed to the
# caller's layer and not to matfun.
CALLBACK_TAKERS = {"matfun.integrate_line": "f", "matfun.integrate_realline": "f"}

# The deviation grid is built by a private method on first use; it is timed
# only on calls that find no grid yet, i.e. when it does the work.
GRID_METHOD = ("deviations", "DeviationAnalysis", "_build_grid")

STEPPER_BUILD = "classical.AugmentedStepper.build"


def _paths_steps(args, result):
    return {"path_steps": int(result.steps) * int(result.paths),
            "bytes": int(result.thetas.nbytes)}


# Notes kept on a span, from the call's bound arguments and its result; the
# per-layer metrics (layers.py) read them.
ANNOTATORS = {
    "classical.simulate": _paths_steps,
    "classical.mc_rs_rate": lambda a, r: {"paths": int(a["paths"]),
                                          "horizon": float(a["horizon"])},
    STEPPER_BUILD: lambda a, r: {"h": float(a["h"])},
    "cumulants.cumulant_rate": lambda a, r: {"r": int(a["r"])},
    "cumulants.delta_table": lambda a, r: {"r": int(a["r"])},
}


class Tracer:
    """Spans and counts of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, raised, info, outermost]
        self._cells = {}  # COUNT_ONLY name -> [calls, errors]
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(name)
        callback = CALLBACK_TAKERS.get(name)
        signature = inspect.signature(fn) if annotate or callback else None
        depth = [0]  # recursion depth, so nested calls count once in total time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callback is not None:
                args, kwargs = self._adopt_callback(signature, callback, args, kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None, depth[0] == 0]
            spans.append(span)
            stack.append(idx)
            depth[0] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                depth[0] -= 1
                stack.pop()
            if annotate is not None:
                try:
                    span[5] = annotate(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    span[5] = None  # a changed signature or result loses the note only
            return result

        return wrapper

    def _adopt_callback(self, signature, param, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        f = bound.arguments[param]
        if not getattr(f, "_traced_callback", False):
            caller = self.spans[self._stack[-1]][0] if self._stack else "matfun"
            wrapped = self._timed(f"{caller}.<callback>", f)
            wrapped._traced_callback = True
            bound.arguments[param] = wrapped
        return bound.args, bound.kwargs

    def _counted(self, name, fn):
        cell = self._cells.setdefault(name, [0, 0])  # calls, errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                cell[1] += 1
                raise

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        return self._timed(name, fn)

    def _grid_wrapper(self, fn):
        timed = self._timed("deviations.DeviationAnalysis._build_grid", fn)

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            if getattr(self_, "_grid", True) is None and not getattr(self_, "degenerate", True):
                return timed(self_, *args, **kwargs)
            return fn(self_, *args, **kwargs)

        return wrapper

    # -- install -------------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and class methods."""
        pkg = importlib.import_module("oqrisk")
        modules = {short: importlib.import_module(f"oqrisk.{short}")
                   for short in LAYER_OF_MODULE}
        every_module = [pkg] + [importlib.import_module(f"oqrisk.{m}")
                                for m in ("errors", "fixtures")] + list(modules.values())
        wrappers = {}  # id(original function) -> wrapper; originals stay alive
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in every_module:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._undo.append((mod, attr, obj))
        return self

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if (short, cls.__name__, attr) == GRID_METHOD:
                new = self._grid_wrapper(raw)
            elif attr.startswith("_"):
                continue
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct
        children (spans nest, since a pass runs on one thread)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - c for span, c in zip(self.spans, child)]

    def function_stats(self) -> dict:
        """``name -> {calls, errors, total_s, self_s}`` over every wrapped
        function that was called; ``total_s`` counts a recursive function's
        outermost calls only."""
        stats = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = stats.setdefault(span[0], {"calls": 0, "errors": 0,
                                               "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["errors"] += int(span[4])
            entry["total_s"] += (span[2] - span[1]) if span[6] else 0.0
            entry["self_s"] += own
        for name, (calls, errors) in self._cells.items():
            if calls:
                stats[name] = {"calls": calls, "errors": errors, "total_s": 0.0, "self_s": 0.0}
        return stats

    def layer_stats(self) -> dict:
        """``layer -> {calls, errors, self_s}`` for every layer."""
        out = {layer: {"calls": 0, "errors": 0, "self_s": 0.0} for layer in LAYERS}
        for name, entry in self.function_stats().items():
            layer = LAYER_OF_MODULE[name.split(".", 1)[0]]
            for key in out[layer]:
                out[layer][key] += entry[key]
        return out

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end, parent index, raised, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, raised, info, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised,
                                     "info": info}) + "\n")
