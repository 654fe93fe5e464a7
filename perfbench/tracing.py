"""Span tracing of the fockindex layers, installed from outside the package.

`Tracer.install()` rebinds every public function of the traced modules, in
the module that defines it and in every module (and the package namespace)
that imported it by name, e.g. the `kernel` that `unit_algebra` got from
`from .fock import kernel`. It also rebinds the public methods of
`KernelOperator`, `AlgebraElement` and `ReferencedUnit`, the criteria in
`selftest.CRITERIA` and the handlers in the CLI dispatch table.
`uninstall()` puts every original back, so untraced ops run the
unmodified package.

Each call of a wrapped function is a span: name, start, end, parent span
and op id. Spans stay in memory and are written out by `write_spans`.
While an op runs, the tracer also folds each finished span into per-layer
totals for that op: calls, self time (the span's duration minus the part
its child spans cover) and inclusive time, plus a few counters taken at
the same boundaries. Work the tracer itself does at a boundary (hashing
inputs for the repeat ratios, sizing written files) is excluded from every
span's self time, so it shows only in the traced op's wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import time
import types
from array import array

import numpy as np

MODULES = ("algebra", "presets", "fock", "unit_algebra", "subsystem", "selftest", "cli")

# Methods traced per class, as (module, class) -> names.
METHODS = {
    ("fock", "KernelOperator"): (
        "__post_init__",
        "__add__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__rmul__",
        "__matmul__",
        "apply",
        "operator_norm",
        "identity",
        "zero",
    ),
    ("algebra", "AlgebraElement"): (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__neg__",
        "__truediv__",
        "__rtruediv__",
        "star",
        "shift",
        "sup_norm",
        "is_positive",
        "limit_at_infinity",
        "reciprocal",
        "value_at",
        "from_coordinates",
    ),
    ("unit_algebra", "ReferencedUnit"): ("cross_kernel", "self_kernel", "parameter_kernel"),
}

# Spans reported under another layer name than their own.
LAYER_OF = {
    "fock.KernelOperator.__matmul__": "fock.compose",
    "fock.KernelOperator.__post_init__": "fock.operator_init",
    "fock.KernelOperator.__add__": "fock.operator_arith",
    "fock.KernelOperator.__sub__": "fock.operator_arith",
    "fock.KernelOperator.__neg__": "fock.operator_arith",
    "fock.KernelOperator.__mul__": "fock.operator_arith",
    "fock.KernelOperator.__rmul__": "fock.operator_arith",
    "fock.KernelOperator.apply": "fock.apply",
    "fock.KernelOperator.operator_norm": "fock.operator_norm",
    "fock.gram_matrix": "fock.gram",
    "fock.gram_psd_check": "fock.gram",
    "unit_algebra.ReferencedUnit.cross_kernel": "unit_algebra.formula_kernel",
    "unit_algebra.ReferencedUnit.self_kernel": "unit_algebra.formula_kernel",
    "subsystem.witness_step1": "subsystem.witness",
    "subsystem.convexify": "subsystem.witness",
    "subsystem.theta_check": "subsystem.witness",
    "cli.write_csv": "cli.write",
    "cli.write_json": "cli.write",
}

# Layers whose repeat ratio is measured: the share of calls whose input
# equals the input of an earlier call in the same op.
REPEAT_KEYED = ("fock.kernel", "fock.matrix_exponential")


def layer_of(span_name: str) -> str:
    if span_name in LAYER_OF:
        return LAYER_OF[span_name]
    if span_name.startswith("algebra."):
        return "algebra.ops"
    return span_name


def _fingerprint(obj, digest) -> None:
    """Feed the value of a call argument into a hash."""
    if isinstance(obj, np.ndarray):
        digest.update(repr((obj.dtype.str, obj.shape)).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _fingerprint(item, digest)
    elif hasattr(obj, "__dataclass_fields__"):
        digest.update(type(obj).__name__.encode())
        for name in obj.__dataclass_fields__:
            _fingerprint(getattr(obj, name), digest)
    else:
        digest.update(repr(obj).encode())


class OpStats:
    """Per-layer totals of one traced op."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}  # layer -> [calls, self_s, wall_s]
        self.counters: dict[str, float] = {}
        self.repeats: dict[str, int] = {}
        self.seen: dict[str, set] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def as_dict(self) -> dict:
        return {
            "layers": {k: {"calls": v[0], "self_s": v[1], "wall_s": v[2]} for k, v in self.layers.items()},
            "counters": dict(self.counters),
            "repeats": dict(self.repeats),
        }


class Tracer:
    def __init__(self, package: types.ModuleType) -> None:
        self.package = package
        self.modules = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []
        self._wrappers = self._build_wrappers()
        self.op = -1
        self.stats: OpStats | None = None

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; call after `install()`."""
        self.op = op_id
        self.stats = OpStats()
        self._open(self._name_id("bench.op"), time.perf_counter())

    def end_op(self) -> OpStats:
        self._close("bench.op", time.perf_counter(), 0.0)
        stats, self.stats = self.stats, None
        return stats

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, start: float) -> None:
        stack = self._stack
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        stack.append([len(self.span_start) - 1, 0.0])

    def _close(self, layer: str, end: float, hidden: float) -> None:
        """Close the innermost span. `hidden` is tracer work done at this
        boundary, which no span's self time may include."""
        index, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration + hidden
        if self.stats is not None:
            totals = self.stats.layers.setdefault(layer, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += duration - child
            totals[2] += duration

    def _span(self, name: str, fn, after=None):
        """Wrap `fn` so that each call records a span named `name`.
        `after(stats, args, result)` updates counters once the call returns."""
        tracer = self
        name_id = self._name_id(name)
        layer = layer_of(name)
        keyed = layer in REPEAT_KEYED

        def traced(*args, **kwargs):
            stats = tracer.stats
            if stats is None:
                return fn(*args, **kwargs)
            hidden = 0.0
            if keyed:
                started = time.perf_counter()
                digest = hashlib.sha1()
                _fingerprint((args, sorted(kwargs.items())), digest)
                key = digest.digest()
                seen = stats.seen.setdefault(layer, set())
                if key in seen:
                    stats.repeats[layer] = stats.repeats.get(layer, 0) + 1
                seen.add(key)
                hidden = time.perf_counter() - started
            tracer._open(name_id, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(layer, time.perf_counter(), hidden)
                raise
            end = time.perf_counter()
            if after is not None:
                started = time.perf_counter()
                after(stats, args, result)
                hidden += time.perf_counter() - started
            tracer._close(layer, end, hidden)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def _build_wrappers(self) -> dict:
        """Map each original public function to its traced wrapper."""
        selftest = self.modules["selftest"]
        criterion_names = {fn: f"selftest.criterion_{label}" for label, fn in getattr(selftest, "CRITERIA", ())}
        hooks = {
            "presets.load_csv": _count_csv_rows,
            "cli.write_csv": _count_written_bytes,
            "cli.write_json": _count_written_bytes,
        }
        wrappers = {}
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = criterion_names.get(obj, f"{short}.{attr}")
                wrappers[obj] = self._span(name, obj, hooks.get(name))
        return wrappers

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            return
        wrappers = self._wrappers
        for namespace in (*self.modules.values(), self.package):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        selftest, cli = self.modules["selftest"], self.modules["cli"]
        if hasattr(selftest, "CRITERIA"):
            self._patch(selftest, "CRITERIA", tuple((label, wrappers.get(fn, fn)) for label, fn in selftest.CRITERIA))
        if hasattr(cli, "_HANDLERS"):
            self._patch(cli, "_HANDLERS", {k: wrappers.get(fn, fn) for k, fn in cli._HANDLERS.items()})

        for (short, class_name), methods in METHODS.items():
            cls = getattr(self.modules[short], class_name, None)
            if cls is None:
                continue
            for method in methods:
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                name = f"{short}.{class_name}.{method}"
                after = _count_operator if name == "fock.KernelOperator.__post_init__" else None
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._span(name, raw.__func__, after)))
                else:
                    self._patch(cls, method, self._span(name, raw, after))

        element = getattr(self.modules["algebra"], "AlgebraElement", None)
        if element is not None and "__post_init__" in element.__dict__:
            self._patch(element, "__post_init__", self._counting("algebra.elements", element.__dict__["__post_init__"]))
        algebra = self.modules["algebra"]
        if isinstance(getattr(algebra, "warnings", None), types.ModuleType):
            self._patch(algebra, "warnings", self._counting_warnings(algebra))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counting(self, counter: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.stats is not None:
                tracer.stats.count(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _counting_warnings(self, algebra):
        """A stand-in for the `warnings` module inside `algebra` that counts
        each `UnresolvedTailWarning` it is asked to emit."""
        tracer = self
        real = algebra.warnings
        category = getattr(algebra, "UnresolvedTailWarning", None)

        def warn(message, category_=UserWarning, stacklevel=1, *args, **kwargs):
            if tracer.stats is not None and category is not None and category_ is category:
                tracer.stats.count("algebra.unresolved")
            return real.warn(message, category_, stacklevel + 1, *args, **kwargs)

        proxy = types.ModuleType("warnings")
        proxy.__dict__.update(real.__dict__)
        proxy.warn = warn
        return proxy

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every recorded span as JSON columns; returns the span count.
        Times are seconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": self.span_name.tolist(),
            "start_s": [round(t - origin, 7) for t in self.span_start],
            "end_s": [round(t - origin, 7) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
        return len(self.span_start)


def _count_operator(stats: OpStats, args, result) -> None:
    operator = args[0]
    stats.count("fock.operators")
    stats.count("fock.operator_bytes", sum(v.nbytes for v in vars(operator).values() if isinstance(v, np.ndarray)))


def _count_csv_rows(stats: OpStats, args, result) -> None:
    stats.count("presets.load_csv.rows", len(result.samples))


def _count_written_bytes(stats: OpStats, args, result) -> None:
    stats.count("cli.write.bytes", os.path.getsize(args[0]))
