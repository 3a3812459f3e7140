"""Per-module tracing of busterfixer, installed from outside the package.

:class:`Tracer` replaces every public module-level function of the
package's modules with a timing wrapper, at every module binding the
function is reachable through (``contract`` is bound in ``graph``,
``adjudicator``, ``reconnect``, ``cli`` and the package itself, and a call
through any of them is one span). It also hooks ``Multigraph.__post_init__``
so that graph constructions are counted. Generator functions are left
alone: their call returns before any work is done.

Spans are kept in memory as flat arrays (function, parent span, start,
end) and reduced when tracing ends. A span's self time is its duration
minus the durations of its direct child spans; summing self time over a
module's spans gives the time spent in that module's own code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable

ORIGINAL = "__perfbench_original__"


def package_modules(package: str) -> list:
    """The imported modules of ``package``, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def installed_wrappers(package: str) -> list[str]:
    """Bindings that still hold a tracing wrapper; empty after uninstall."""
    found = []
    for module in package_modules(package):
        for name, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, ORIGINAL):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def self_times(parents, durations) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            child[parent] += duration
    return [d - c for d, c in zip(durations, child)]


class Tracer:
    """Wrap a package's public functions; use as a context manager.

    ``observe`` maps a span name (``"adjudicator.verify_optimal_report"``)
    to a function of that call's return value; the values are summed into
    :attr:`observed` under the same name.
    """

    def __init__(self, package: str, observe: dict[str, Callable] | None = None):
        self.package = package
        self.observe = observe or {}
        self.observed: dict[str, float] = {name: 0 for name in self.observe}
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _span_name(self, module_name: str, attr: str) -> str:
        return f"{module_name.removeprefix(self.package + '.')}.{attr}"

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = self.fids, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter
        observer = self.observe.get(name)
        observed = self.observed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observer is not None:
                observed[name] += observer(result)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = package_modules(self.package)
        wrappers: dict[int, Callable] = {}
        for module in modules:
            if module.__name__ == self.package:
                continue
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)
                ):
                    wrappers[id(value)] = self._wrap(self._span_name(module.__name__, attr), value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        graph = sys.modules[f"{self.package}.graph"]
        multigraph = graph.Multigraph
        post_init = vars(multigraph)["__post_init__"]
        self._restore.append((multigraph, "__post_init__", post_init))
        multigraph.__post_init__ = self._wrap("graph.Multigraph", post_init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def span_count(self) -> int:
        return len(self.fids)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for fid, duration, own in zip(self.fids, durations, self_times(self.parents, durations)):
            row = table[self.names[fid]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += own
        return table


def module_totals(table: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Sum a :meth:`Tracer.summary` table per module (the name's first part)."""
    totals: dict[str, dict[str, float]] = {}
    for name, row in table.items():
        module = totals.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
        module["calls"] += row["calls"]
        module["self_s"] += row["self_s"]
    return totals
