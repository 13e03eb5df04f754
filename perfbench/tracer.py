"""Layer tracing for qshuffle, installed from outside the package.

The tracer replaces, in every module namespace of the package, the
callables that belong to one of the layers (the modules named in LAYERS)
with thin wrappers.  A wrapper records a span only when the call crosses
from one layer into another: the layer name, the start, the end and the
enclosing span.  Calls that stay inside a layer pass straight through, so
the cost of recursion inside a layer is one extra frame per call.

What gets wrapped, found by scanning module namespaces rather than by a
fixed list of names, so that renamed or merged functions are still seen:

* functions and ``lru_cache`` tables that a layer defines, in every
  namespace that binds them (private ones only where another module
  imported them, since a module calls its own private helpers directly);
* the public methods, ``__init__``, ``__call__`` and the arithmetic
  dunders of the classes in TRACED_CLASSES and their subclasses;
* layer functions held as values of module-level dicts (such as a table
  of product rules) and as attributes of module-level objects (such as a
  Hopf-algebra provider or a memoising evaluator).

``Composition`` construction is deliberately left alone: a single
``verify`` at degree 8 builds over a million of them.

Spans stay in memory in flat arrays and are written once, at the end of a
run, with ``dump``; ``load`` and ``self_times`` turn them into per-layer
self time and call counts.  A span's self time is its duration minus the
part of it that its child spans cover, so the self times of all layers
plus the harness add up to the root span.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

PACKAGE = "qshuffle"
LAYERS = ("cli", "compositions", "elements", "functionals", "characters", "universal", "demos")
HARNESS = "harness"
TRACED_CLASSES = frozenset(
    {
        "GradedElement",
        "TensorElement",
        "Functional",
        "CharacterData",
        "CharacterPowerEvaluator",
    }
)
TRACED_DUNDERS = frozenset(
    {
        "__init__",
        "__call__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__neg__",
        "__eq__",
    }
)


def layer_of(obj) -> str | None:
    """The layer whose module defines obj, or None outside the layers."""
    module = getattr(obj, "__module__", None)
    if not isinstance(module, str):
        return None
    package, _, name = module.partition(".")
    return name if package == PACKAGE and name in LAYERS else None


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def _is_traced_class(cls: type) -> bool:
    return any(base.__name__ in TRACED_CLASSES for base in cls.__mro__)


class Tracer:
    """Records layer-crossing spans while installed and started."""

    def __init__(self):
        self.names: list[str] = [HARNESS]
        self._name_ids: dict[str, int] = {HARNESS: 0}
        self.name_ids = array.array("q")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        # [layer of the running span, index of the running span]; a layer of
        # None means not recording, and every wrapper passes straight through
        self._state: list = [None, -1]
        self._wrappers: dict[int, object] = {}
        self._wrapper_ids: set[int] = set()
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def start(self) -> None:
        """Open the root span; everything until stop() is attributed."""
        self.name_ids.append(0)
        self.parents.append(-1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._state[:] = [HARNESS, len(self.starts) - 1]

    def stop(self) -> None:
        root = self._state[1]
        self.ends[root] = time.perf_counter()
        self._state[:] = [None, -1]

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_ids[name] = index
        return index

    def wrap(self, fn, layer: str, label: str):
        """The traced stand-in for fn; one per original object."""
        existing = self._wrappers.get(id(fn))
        if existing is not None:
            return existing
        state = self._state
        name_id = self._name_id(f"{layer}:{label}")
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        def call(target, args, kwargs):
            caller, parent = state
            if caller is None or caller == layer:
                return target(*args, **kwargs)
            index = len(starts)
            ids.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            state[0] = layer
            state[1] = index
            starts[index] = clock()
            try:
                return target(*args, **kwargs)
            finally:
                ends[index] = clock()
                state[0] = caller
                state[1] = parent

        if inspect.isgeneratorfunction(fn):
            # the body of a generator runs on each resume, so each resume
            # is entered into the layer, not just the call that creates it
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = call(next, (gen,), {})
                    except StopIteration:
                        return
                    yield item

        else:
            # call() inlined: this path runs on every call of every wrapped
            # function, crossing or not
            def wrapper(*args, **kwargs):
                caller, parent = state
                if caller is None or caller == layer:
                    return fn(*args, **kwargs)
                index = len(starts)
                ids.append(name_id)
                parents.append(parent)
                starts.append(0.0)
                ends.append(0.0)
                state[0] = layer
                state[1] = index
                starts[index] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    state[0] = caller
                    state[1] = parent

        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(fn)] = wrapper
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers in every namespace of the package; a layer module that is gone is skipped."""
        namespaces = [importlib.import_module(PACKAGE)]
        for layer in LAYERS:
            try:
                namespaces.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                continue
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                self._install_binding(module, name, obj)

    def _install_binding(self, module, name: str, obj) -> None:
        if inspect.ismodule(obj) or id(obj) in self._wrapper_ids:
            return
        if isinstance(obj, type):
            if obj.__module__ == module.__name__ and layer_of(obj) and _is_traced_class(obj):
                self._wrap_class(obj)
            return
        if _is_function(obj):
            layer = layer_of(obj)
            imported = obj.__module__ != module.__name__
            if layer and (imported or not name.startswith("_")):
                self._replace(module, name, self.wrap(obj, layer, name), obj, setattr)
            return
        if isinstance(obj, dict):
            self._wrap_held(obj, obj.items(), dict.__setitem__, lambda key: f"{name}[{key!r}]")
            return
        if layer_of(obj) is None:
            return
        try:
            attributes = vars(obj)
        except TypeError:
            return
        # object.__setattr__ also reaches frozen dataclass instances
        self._wrap_held(obj, attributes.items(), object.__setattr__, lambda attr: f"{name}.{attr}")

    def _wrap_held(self, owner, items, setter, label) -> None:
        """Wrap the layer functions an object holds as dict values or attributes."""
        for key, value in list(items):
            layer = layer_of(value) if _is_function(value) else None
            if layer and id(value) not in self._wrapper_ids:
                self._replace(owner, key, self.wrap(value, layer, label(key)), value, setter)

    def _wrap_class(self, cls: type) -> None:
        layer = layer_of(cls)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self.wrap(attr.__func__, layer, label))
            elif inspect.isfunction(attr):
                wrapped = self.wrap(attr, layer, label)
            else:
                continue
            self._replace(cls, name, wrapped, attr, setattr)

    def _replace(self, owner, key, new, old, setter) -> None:
        setter(owner, key, new)
        self._undo.append((setter, owner, key, old))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "count": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str):
    """Read a span file written by Tracer.dump: (names, ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("q", "q", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return (header["names"], *arrays)


def self_times(names, name_ids, parents, starts, ends) -> tuple[dict, dict]:
    """Per-layer self time (seconds) and calls from a span tree.

    Spans are nested: a child lies inside its parent.  A span's self time
    is its duration less the summed durations of its children, and a
    layer's self time is the sum over its spans.  The layer is the part of
    the span name before the first colon.  calls counts the spans that
    entered each layer; the root harness span is not a call.
    """
    count = len(starts)
    covered = [0.0] * count
    for i in range(count):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    layer_of_name = [name.partition(":")[0] for name in names]
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(count):
        layer = layer_of_name[name_ids[i]]
        totals[layer] = totals.get(layer, 0.0) + (ends[i] - starts[i]) - covered[i]
        if parents[i] >= 0:
            calls[layer] = calls.get(layer, 0) + 1
    return totals, calls
