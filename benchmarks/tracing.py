"""Per-layer spans for the benchmark, recorded around public dyadicmax calls.

The library's modules import each other's functions by name
(``from .constants import testing_constant``), so one function object is bound
in several module namespaces.  :class:`Tracer` replaces every such binding, by
identity, in every loaded ``dyadicmax`` module, and puts the originals back on
:meth:`Tracer.uninstall`.  Each wrapped call records its duration, the part of
it spent in nested wrapped calls (so that self time is duration minus that
part), whether it raised, and which keyword arguments it was given a value for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, function) pairs, one per public entry point of a layer.
TRACED = (
    ("cli", "cmd_verify"),
    ("cli", "cmd_generate"),
    ("lattice", "build_model"),
    ("lattice", "random_model"),
    ("lattice", "lp_norm"),
    ("maximal", "node_integrals"),
    ("maximal", "apply_maximal"),
    ("maximal", "apply_depth_truncated"),
    ("maximal", "read_coefficients"),
    ("constants", "verify_theorem"),
    ("constants", "testing_constant"),
    ("constants", "operator_norm_lower"),
    ("stopping", "build_decomposition"),
    ("stopping", "verify_packing"),
    ("stopping", "carleson_embedding_check"),
    ("stopping", "proof_trace"),
    ("sawyer", "verify_reduction"),
    ("sawyer", "read_instance"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
FIELDS = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("errors", "count"))


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    keywords: Counter = field(default_factory=Counter)  # keyword -> calls that set it


class Tracer:
    """Spans kept in memory while installed; read ``stats`` afterwards."""

    def __init__(self):
        self.stats = {name: Stat() for name in NAMES}
        self.bindings = {name: [] for name in NAMES}  # name -> binding modules
        self._open = []          # nested-call time of each open span
        self._restore = []       # (module, attribute, original)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "dyadicmax" or key.startswith("dyadicmax.")]
        for (mod_name, fn_name), name in zip(TRACED, NAMES):
            home = sys.modules[f"dyadicmax.{mod_name}"]
            original = getattr(home, fn_name, None)
            if not callable(original):
                raise LookupError(f"traced function {name} is missing")
            wrapper = self._wrap(name, original)
            self.bindings[name] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
                        self.bindings[name].append(f"{module.__name__}.{attr}")
            if f"{home.__name__}.{fn_name}" not in self.bindings[name]:
                raise LookupError(f"{name} is not bound in its own module")
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, value in kwargs.items():
                if value is not None:
                    stat.keywords[key] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                nested = open_spans.pop()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - nested
                if open_spans:
                    open_spans[-1] += elapsed

        return traced
