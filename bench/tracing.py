"""In-memory span tracer around proxycal's public functions.

The tracer replaces every public function of every proxycal module, in every
module namespace that binds it (``from .core import fit_mom`` copies the name
into ``diagnostics``, ``simulation`` and ``cli``), with a wrapper that counts
the call and records a span: name, start, end, parent span and operation id.
Nothing is written until the caller asks for the spans.

A call that comes straight from another public function of the same module
(``gen_domain`` calling ``outcome_prob``, ``plugin_interval`` calling
``wald_interval``) is counted but opens no span: it is part of its caller's
work. A call from another module, from a module's private code or from the
benchmark opens a span. A function's binding in its own module is left
unwrapped when only public functions of that module call it and no reported
metric counts its calls: every call through it would fold, so the wrapper
would add cost and no information. On ``diff_stats``, which runs once per
record per leave-one-out refit, that wrapper doubled the refit time.

Tracing assumes one thread; every workload runs with ``workers = 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "dataio", "core", "intervals", "diagnostics", "contextual", "simulation", "_rng")

# Frames that belong to the function that created them.
_INLINE_FRAMES = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>", "<lambda>"}


def layer_name(module: str) -> str:
    """Metric prefix of a proxycal module: ``proxycal._rng`` -> ``rng``."""
    return module.rsplit(".", 1)[-1].lstrip("_")


def _run_experiment_counts(a, _result):
    cfg = a["cfg"]
    k, n = cfg.n_domains, cfg.n_per_domain
    weights = (k - 1) * k * n if "ppi_weighted" in cfg.estimators else 0
    return [
        ("simulation.replicates", cfg.replicates),
        ("simulation.domains", cfg.replicates * k),
        ("simulation.transport_weights", cfg.replicates * weights),
    ]


# Work counted at a function's boundary: name -> f(bound arguments, result).
WORK_COUNTS = {
    "core.fit_mom": lambda a, r: [("core.fit_mom.records", len(a["history"]))],
    "intervals.domain_bootstrap_interval": lambda a, r: [
        ("intervals.bootstrap_domain_draws", a["draws"] * len(a["history"]))
    ],
    "simulation.gen_domain": lambda a, r: [("simulation.units_generated", a["cfg"].n_per_domain)],
    "simulation.run_experiment": _run_experiment_counts,
    "dataio.load_history": lambda a, r: [("dataio.rows_parsed", len(r))],
    "dataio.load_target": lambda a, r: [("dataio.rows_parsed", 1)],
}


def _public_in(frame, module: str) -> bool:
    """Whether ``frame`` runs inside a public function of ``module``."""
    while frame is not None and frame.f_code.co_name in _INLINE_FRAMES:
        frame = frame.f_back
    return (
        frame is not None
        and frame.f_globals.get("__name__") == module
        and not frame.f_code.co_name.startswith("_")
    )


def _refers(code, name: str) -> bool:
    return name in code.co_names or any(
        _refers(c, name) for c in code.co_consts if inspect.iscode(c)
    )


def _only_public_callers(mod, name: str) -> bool:
    """Whether functions or methods of ``mod`` call ``name``, and all are public."""
    own = [obj for obj in vars(mod).values() if getattr(obj, "__module__", None) == mod.__name__]
    funcs = [obj for obj in own if inspect.isfunction(obj)]
    for cls in filter(inspect.isclass, own):
        funcs += [f for f in vars(cls).values() if inspect.isfunction(f)]
    callers = [f.__name__ for f in funcs if _refers(f.__code__, name)]
    return bool(callers) and not any(c.startswith("_") for c in callers)


class Tracer:
    """Spans and counts for calls into proxycal while installed.

    ``counted`` names the functions (``layer.function``) whose call counts are
    reported; their bindings are always wrapped.
    """

    def __init__(self, counted: frozenset[str] = frozenset()) -> None:
        self.counted = counted
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: Counter = Counter()  # work counts; call counts via call_counts()
        self.op = 0
        self._stack: list[int] = []
        self._calls: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[object, str, object]] | None = None

    def _wrap(self, func, name: str):
        module = func.__module__
        work = WORK_COUNTS.get(name)
        sig = inspect.signature(func) if work else None
        calls = self._calls[name] = [0]
        counts, spans, stack = self.counts, self.spans, self._stack
        getframe, clock = sys._getframe, time.perf_counter
        # caller code object -> whether the call folds into its caller; a code
        # object always sits in the same function, so the answer never changes
        folds: dict = {}

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            caller = getframe(1)
            fold = folds.get(caller.f_code)
            if fold is None:
                fold = folds[caller.f_code] = _public_in(caller, module)
            if fold:
                result = func(*args, **kwargs)
            else:
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter, amount in work(bound.arguments, result):
                    counts[counter] += amount
            return result

        return wrapper

    def _bindings(self, package: str) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every binding to replace."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer_name(mod.__name__)}.{attr}")
        bindings = []
        for mod in [importlib.import_module(package), *modules]:
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj in wrappers):
                    continue
                own = obj.__module__ == mod.__name__
                if own and f"{layer_name(mod.__name__)}.{attr}" not in self.counted \
                        and _only_public_callers(mod, attr):
                    continue
                bindings.append((mod, attr, wrappers[obj]))
        return bindings

    def install(self, package: str = "proxycal") -> None:
        """Bind the wrappers in the package and every layer module."""
        if self._wrapped is None:
            self._wrapped = self._bindings(package)
        for mod, attr, wrapper in self._wrapped:
            self._patched.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def call_counts(self) -> Counter:
        """Work counts plus ``<function>.calls`` for every traced function."""
        counts = Counter(self.counts)
        for name, box in self._calls.items():
            counts[name + ".calls"] = box[0]
        return counts

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.call_counts())}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def self_by_name(spans: list) -> Counter:
    totals: Counter = Counter()
    for span, s in zip(spans, self_times(spans)):
        totals[span[0]] += s
    return totals


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the workload never does the work in ``den``."""
    return num / den if den else 0.0
