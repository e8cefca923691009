"""Run one qmeas CLI invocation in-process with every layer boundary traced.

Usage::

    python3 perfbench/tracer.py STATS.json -- --config run.cfg --out DIR ...

A layer is a module of the ``qmeas`` package. Before ``qmeas.cli.main``
runs, the tracer wraps each module's public functions, the public methods
and ``__post_init__`` of its public classes, and any private function that
another qmeas module imports by name. Wrappers are installed under every
name that refers to the function in a qmeas namespace, because ``cli``,
``experiments`` and ``verify`` bind them with ``from ... import``. The
source of qmeas is not changed.

Each wrapper counts calls and records inclusive and self time (inclusive
minus the time of wrapped calls made inside it). Kernels listed in
``KERNELS`` also count units of work from their arguments. Process-pool
workers are not traced: their time shows inside the parent's span. The
totals are written to STATS.json with the time one wrapper adds to a call,
measured on a no-op after ``main`` returns.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from functools import wraps
from pathlib import Path

# qualified function name -> units of work of one call, from its bound arguments
KERNELS = {
    "lindblad.integrate_lindblad": lambda a: a["grid"].n_steps,
    "sse.ensemble_accumulate": lambda a: a["n_traj"] * a["grid"].n_steps,
    "sse.simulate_trajectory": lambda a: a["grid"].n_steps,
    "chm.propagate_chm": lambda a: a["record"].grid.n_steps,
    "chm.propagate_chm_series": lambda a: a["record"].grid.n_steps,
    "chm.ode_propagator": lambda a: a["record"].grid.n_steps,
    "chm.sliced_propagator": lambda a: a["record"].grid.n_steps,
    "chain._run_chain_batch": lambda a: len(a["seeds"]) * a["n_steps"],
}


class Tracer:
    """Per-function totals: name -> [calls, inclusive ns, self ns, units]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self._open: list[int] = []  # wrapped-child time of each open call

    def wrap(self, name: str, fn):
        totals = self.stats.setdefault(name, [0, 0, 0, 0])
        units = KERNELS.get(name)
        signature = inspect.signature(fn) if units else None
        open_calls = self._open
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if units is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                totals[3] += units(bound.arguments)
            open_calls.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = open_calls.pop()
                totals[0] += 1
                totals[1] += spent
                totals[2] += spent - inner
                if open_calls:
                    open_calls[-1] += spent

        return traced


def wrapper_cost_ns(calls: int = 20_000, repeats: int = 5) -> float:
    """Nanoseconds one wrapper adds to a call: a wrapped no-op against a plain
    one, the fastest of ``repeats`` loops of ``calls`` each."""

    def noop():
        return None

    def loop_ns(fn) -> int:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - start

    traced = Tracer().wrap("noop", noop)
    plain = min(loop_ns(noop) for _ in range(repeats))
    wrapped = min(loop_ns(traced) for _ in range(repeats))
    return max(wrapped - plain, 0) / calls


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every qmeas module (see module docstring)."""
    import qmeas

    modules = {
        info.name: importlib.import_module(f"qmeas.{info.name}")
        for info in pkgutil.iter_modules(qmeas.__path__)
    }
    namespaces = [qmeas, *modules.values()]
    imported = {
        id(value)
        for ns in namespaces
        for value in vars(ns).values()
        if getattr(value, "__module__", ns.__name__) != ns.__name__
    }
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not name.startswith("_") or id(obj) in imported):
                replaced[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__post_init__":
                        continue
                    qual = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(raw):
                        setattr(obj, attr, tracer.wrap(qual, raw))
                    elif isinstance(raw, staticmethod):
                        setattr(obj, attr, staticmethod(tracer.wrap(qual, raw.__func__)))
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            if id(value) in replaced:
                setattr(ns, name, replaced[id(value)])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS.json -- <qmeas arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    import qmeas.cli

    status = qmeas.cli.main(argv[2:])
    doc = {"functions": tracer.stats, "wrapper_ns": wrapper_cost_ns()}
    Path(argv[0]).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
