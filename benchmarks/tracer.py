"""Span tracer that times calls into qlstab's public functions from outside.

The package's modules bind each other's functions with ``from .x import f``,
so replacing ``x.f`` alone would miss the calls made through the copies in
the consuming modules. :class:`Tracer` therefore rebinds every name in every
loaded ``qlstab`` module (and the named class attributes) that refers to a
traced function, and refuses to install if any reference to an original is
left behind. Spans are aggregated in memory per name: call count, busy time
(wall time inside the call), child time (busy time of traced calls made
directly inside it) and an optional byte count.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    child_s: float = 0.0
    bytes: int = 0

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _dense_superoperator_bytes(args, kwargs, result) -> int:
    # Size of the dense complex128 D^2 x D^2 matrix, as computed, not measured.
    d = args[0].space.dim
    return 16 * d**4


PACKAGE = "qlstab"

# (owner, attribute, byte counter). ``owner`` is a module of the package,
# which is also the span's layer, or "module:Class" for a method looked up
# on the class.
TARGETS = (
    ("cli", "main", None),
    ("instances", "load_instance", None),
    ("instances", "write_operator_file", _written_bytes),
    ("instances", "read_operator_file", None),
    ("tensor", "partial_trace", None),
    ("tensor", "embed", None),
    ("tensor", "embed_frame", None),
    ("tensor:PureState", "density_matrix", None),
    ("tensor:DensityMatrix", "__post_init__", None),
    ("subspaces", "support", None),
    ("subspaces", "intersect", None),
    ("subspaces", "equals", None),
    ("analysis", "check_dqls", None),
    ("analysis", "parent_hamiltonian", None),
    ("analysis:ParentHamiltonian", "kernel", None),
    ("analysis", "is_frustration_free", None),
    ("synthesis", "synthesize_stabilizers", None),
    ("synthesis", "synthesize_block", None),
    ("dynamics", "stabilizer_generator", None),
    ("dynamics", "stabilizer_generators", None),
    ("dynamics", "vectorize", _dense_superoperator_bytes),
    ("dynamics", "gas_certificate", None),
    ("dynamics", "evolve", None),
    ("dynamics", "apply_generator", None),
    ("dynamics", "simulate_switched", None),
    ("dynamics", "fidelity", None),
    ("dynamics", "trace_distance", None),
    ("dynamics", "purity", None),
)


def span_name(owner: str, attr: str) -> str:
    """``tensor:DensityMatrix`` + ``__post_init__`` -> ``tensor.DensityMatrix.validate``."""
    name = owner.replace(":", ".") + "." + attr
    return name.replace(".__post_init__", ".validate")


class Tracer:
    """Rebinds the traced functions while installed; collects span stats."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.stats = {span_name(o, a): SpanStats() for o, a, _ in TARGETS}
        self._stack = []

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name: str, fn, count_bytes):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec = stats[name]
                rec.calls += 1
                rec.busy_s += elapsed
                rec.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count_bytes is not None:
                rec.bytes += count_bytes(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._reset()
        modules = self._modules()
        originals = []
        for owner, attr, count_bytes in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = span_name(owner, attr)
            if cls_name:
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                self._rebind(cls, attr, self._wrap(name, fn, count_bytes))
                originals.append(fn)
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn, count_bytes)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)
            originals.append(fn)
        self._check_no_stale(modules, originals)

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _check_no_stale(self, modules, originals) -> None:
        ids = {id(fn) for fn in originals}
        stale = []
        for mod in modules:
            spaces = [(mod.__name__, vars(mod))]
            spaces += [
                (f"{mod.__name__}.{k}", vars(v))
                for k, v in vars(mod).items()
                if isinstance(v, type) and v.__module__ == mod.__name__
            ]
            for where, space in spaces:
                stale += [f"{where}.{k}" for k, v in space.items() if id(v) in ids]
        if stale:
            self.uninstall()
            raise RuntimeError(f"untraced bindings left behind: {sorted(stale)}")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []
