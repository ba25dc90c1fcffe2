"""Outside-in layer tracing for the benchmark's traced runs.

The tracer wraps the public functions and operator methods of each ``lpa``
module from outside the package; the library itself is not edited.  Every
call of a wrapped name counts once and records one span (name, start, end,
parent) in compact in-memory arrays.  Self time, a span's duration minus the
part of it its child spans cover, is computed from those arrays after the
traced pass ends, and summed per module.

Names the per-layer metrics depend on are resolved when the tracer is
installed.  A name that no longer exists marks its metrics absent, with the
reason, instead of breaking the run, so a refactor that removes, say, the
global rewrite cache leaves an absent metric and a working benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "lpa"

# Modules traced as layers.  ``corpus`` reads graph files; tracing it keeps
# that I/O out of the CLI's self time.
LAYERS = ("cli", "exprs", "graphs", "corpus", "fields", "polys", "algebra", "linalg",
          "freegroups", "toeplitz", "reps", "ideals")

OPERATORS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__"})

# per-layer call counters: metric -> (module, qualified name)
CALLS = {
    "fields.add.calls": ("fields", "FieldElement.__add__"),
    "fields.mul.calls": ("fields", "FieldElement.__mul__"),
    "fields.inv.calls": ("fields", "FieldElement.inverse"),
    "polys.pgcd.calls": ("polys", "pgcd"),
    "polys.pmul.calls": ("polys", "pmul"),
    "polys.pdivexact.calls": ("polys", "pdivexact"),
    "algebra.mul.calls": ("algebra", "AlgebraElement.__mul__"),
    "algebra.element.calls": ("algebra", "element"),
    "algebra.mono_mul.calls": ("algebra", "mono_mul"),
    "linalg.matmul.calls": ("linalg", "DenseMatrix.__mul__"),
    "linalg.det_gauss.calls": ("linalg", "det_gauss"),
    "freegroups.build_generators.calls": ("freegroups", "build_generators"),
    "toeplitz.embed.calls": ("toeplitz", "toeplitz_embed"),
    "reps.act.calls": ("reps", "act"),
    "ideals.phi_apply.calls": ("ideals", "phi_apply"),
    "ideals.make_quotient_map.calls": ("ideals", "make_quotient_map"),
    "cli.main.calls": ("cli", "main"),
    "exprs.parse_expr.calls": ("exprs", "parse_expr"),
    "graphs.parse_graph.calls": ("graphs", "parse_graph"),
}


def _pair_key(args, result):
    a, b = args[0], args[1]
    return (a.field, a.payload, b.payload)


def _is_one(args, result):
    """A pgcd result equal to the constant polynomial 1."""
    if len(result) != 1:
        return False
    (exps, coeff), = result.items()
    return not any(exps) and coeff == 1


def _nonzero(args, result):
    return result is not None


# ratio metrics: metric -> (module, qualified name, kind, predicate)
# "repeat": share of calls whose key was already seen in the run;
# "share":  share of calls whose predicate holds.
RATIOS = {
    "fields.add.repeat_ratio": ("fields", "FieldElement.__add__", "repeat", _pair_key),
    "fields.mul.repeat_ratio": ("fields", "FieldElement.__mul__", "repeat", _pair_key),
    "polys.pgcd.unit_ratio": ("polys", "pgcd", "share", _is_one),
    "algebra.mono_mul.hit_ratio": ("algebra", "mono_mul", "share", _nonzero),
}

# read once after the traced pass: metric -> (module, attribute)
CACHES = {
    "algebra.rewrite.cache_entries": ("algebra", "_reduce_leavitt"),
}

SELF_METRICS = {f"{layer}.self_s": layer for layer in LAYERS}


def self_time_by_name(names, parents, starts, ends, n_names):
    """Per-name sums of span duration and self time.

    Spans are listed in start order, so a span's children follow it.  A
    child covers the part of its interval that lies inside the parent and is
    not covered by an earlier sibling.
    """
    total = [0.0] * n_names
    covered_by = [0.0] * n_names
    reach = array("d", starts)          # how far each span's children cover it
    for i in range(len(names)):
        start, end = starts[i], ends[i]
        total[names[i]] += end - start
        p = parents[i]
        if p < 0:
            continue
        lo = max(start, reach[p])
        hi = min(end, ends[p])
        if hi > lo:
            covered_by[names[p]] += hi - lo
            reach[p] = hi
    return total, [t - c for t, c in zip(total, covered_by)]


class Tracer:
    """Wraps the layers of one imported ``lpa`` and records their spans."""

    def __init__(self):
        self.names = []             # name id -> "layer:qualname"
        self.layer_of = []          # name id -> layer
        self.calls = []             # name id -> call count
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo = []
        self.modules = {}
        self.absent = {}            # metric -> reason
        self._ratio = {}            # metric -> [hits, attempts, seen set or None]
        self._caches = {}           # metric -> cached function

    # -- installing ---------------------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError as exc:
                self.modules[layer] = None
                self._mark_layer_absent(layer, f"{PACKAGE}.{layer} does not import: {exc}")
        observers = {}
        for metric, (layer, qual, kind, pred) in RATIOS.items():
            if self._resolve(layer, qual, metric) is not None:
                self._ratio[metric] = [0, 0, set() if kind == "repeat" else None]
                observers.setdefault((layer, qual), []).append((metric, pred))
        for metric, (layer, qual) in CALLS.items():
            self._resolve(layer, qual, metric)
        for metric, (layer, attr) in CACHES.items():
            fn = self._resolve(layer, attr, metric)
            if fn is not None and not hasattr(fn, "cache_info"):
                self.absent[metric] = f"{PACKAGE}.{layer}.{attr} has no cache_info()"
            elif fn is not None:
                self._caches[metric] = fn
        targets = set()
        for layer, module in self.modules.items():
            if module is not None:
                targets |= self._public_targets(layer, module)
        targets |= {spec for metric, spec in CALLS.items() if metric not in self.absent}
        targets |= {RATIOS[metric][:2] for metric in self._ratio}
        for layer, qual in sorted(targets):
            self._wrap(layer, qual, observers.get((layer, qual), ()))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)    # the wrapper shadowed an inherited method
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _mark_layer_absent(self, layer, reason):
        for table in (CALLS, RATIOS, CACHES):
            for metric, spec in table.items():
                if spec[0] == layer:
                    self.absent[metric] = reason
        self.absent[f"{layer}.self_s"] = reason

    def _resolve(self, layer, qual, metric):
        module = self.modules.get(layer)
        if module is None:
            self.absent.setdefault(metric, f"{PACKAGE}.{layer} is not available")
            return None
        owner = module
        for part in qual.split("."):
            if not hasattr(owner, part):
                self.absent[metric] = f"{PACKAGE}.{layer} has no {qual}"
                return None
            owner = getattr(owner, part)
        return owner

    @staticmethod
    def _public_targets(layer, module):
        """(layer, qualname) of the module's own public functions and of the
        public methods and arithmetic operators of its classes."""
        def wrappable(name, obj):
            return (inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
                    and (not name.startswith("_") or name in OPERATORS))
        out = set()
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                continue
            if wrappable(name, obj):
                out.add((layer, name))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                out |= {(layer, f"{name}.{attr}") for attr, member in vars(obj).items()
                        if wrappable(attr, member)}
        return out

    def _wrap(self, layer, qual, observers):
        module = self.modules[layer]
        *path, attr = qual.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(f"{layer}:{qual}")
        self.layer_of.append(layer)
        self.calls.append(0)
        calls, stack = self.calls, self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        now = time.perf_counter
        observe = [(m, pred, self._ratio[m]) for m, pred in observers]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            calls[name_id] += 1
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(now())
            try:
                result = original(*args, **kwargs)
            finally:
                span_end[idx] = now()
                stack.pop()
            for metric, pred, acc in observe:
                tracer._observe(metric, pred, acc, args, result)
            return result

        own = attr in vars(owner)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original if own else None))

    def _observe(self, metric, pred, acc, args, result):
        if metric in self.absent:
            return
        try:
            value = pred(args, result)
            if acc[2] is not None:
                hit = value in acc[2]
                acc[2].add(value)
            else:
                hit = bool(value)
        except Exception as exc:  # the program changed shape under the observer
            self.absent[metric] = f"observer failed: {type(exc).__name__}: {exc}"
            return
        acc[0] += hit
        acc[1] += 1

    # -- reading ---------------------------------------------------------------------------

    def by_name(self):
        """[(name, layer, calls, total_s, self_s)] for every wrapped name."""
        total, self_s = self_time_by_name(
            self.span_name, self.span_parent, self.span_start, self.span_end, len(self.names)
        )
        return [
            (self.names[i], self.layer_of[i], self.calls[i], total[i], self_s[i])
            for i in range(len(self.names))
        ]

    def metrics(self, rows):
        """Per-layer metric values from by_name() rows; absent ones are None."""
        out = {}
        calls = {name: n for name, _, n, _, _ in rows}
        for metric, (layer, qual) in CALLS.items():
            out[metric] = None if metric in self.absent else calls.get(f"{layer}:{qual}", 0)
        for metric in RATIOS:
            if metric in self.absent:
                out[metric] = None
            else:
                hits, attempts, _ = self._ratio[metric]
                out[metric] = hits / attempts if attempts else 0.0
        for metric in CACHES:
            fn = self._caches.get(metric)
            out[metric] = None if fn is None else fn.cache_info().currsize
        layer_self = {}
        for _, layer, _, _, s in rows:
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        for metric, layer in SELF_METRICS.items():
            out[metric] = None if metric in self.absent else layer_self.get(layer, 0.0)
        return out
