"""Span tracing of fpselect's layers, installed from outside the program.

`Tracer` replaces every public function defined in an fpselect module by a
wrapper that records a span (id, name, parent, start, end). Modules import
names by value (`from .glm import fit, fit_design`), so the wrapper is bound
in every module namespace that holds the function, and in module-level dicts
such as `cli.RUNNERS`; `fpselect.mfp` resolves to the function, so modules are
found with `importlib`. Leaving the `with` block restores every binding.

Besides spans, the tracer inspects the values that some layers return and
counts work that the layer boundary makes visible: IRLS iterations, fits that
did not converge, FP candidates that failed, repeated `fsp_select` calls.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import Counter, defaultdict

def program_modules():
    package = importlib.import_module("fpselect")
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"fpselect.{name}") for name in names]


def _dataset_digest(dataset) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((dataset.column_names, dataset.family.value)).encode())
    for column in dataset.columns:
        h.update(column.tobytes())
    return h.digest()


class Tracer:
    """Context manager that records spans and layer counts while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[dict, object, object]] = []
        self._fsp_seen: set = set()
        self._signatures: dict[str, inspect.Signature] = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = program_modules()
        wrappers: dict[int, object] = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._rebind(namespace, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._rebind(obj, key, wrappers[id(value)])
        return self

    def _rebind(self, mapping: dict, key, wrapper) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def __exit__(self, *exc) -> None:
        for mapping, key, original in reversed(self._restore):
            mapping[key] = original
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, func, args, kwargs, span_id=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        if span_id is None:
            span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    def span(self, name, func, *args, **kwargs):
        """Call func inside a span of the given name (benchmark-side spans)."""
        return self._call(name, func, args, kwargs)

    def _wrap(self, name, func):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if before is not None or after is not None:
            self._signatures[name] = inspect.signature(func)

        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            if before is not None:
                args, kwargs = before(span_id, args, kwargs)
            result = tracer._call(name, func, args, kwargs, span_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, func)

    def _arguments(self, name: str, args, kwargs) -> dict:
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    def _inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack())

    def _add(self, **increments) -> None:
        with self._lock:
            self.counts.update(increments)

    def new_analysis(self) -> None:
        """Start a new analysis: `fsp.repeat_frac` counts repeats within one."""
        self._fsp_seen = set()

    # -- layer hooks: inspect arguments and results at the boundary --------

    def _after_glm_fit_design(self, args, kwargs, result) -> None:
        counts = {"fits_in_best_fp": int(self._inside("fpsearch.best_fp")),
                  "aliased_fits": int(bool(result.dropped_columns))}
        if result.family.value == "binomial":
            counts.update(irls_fits=1, irls_iterations=result.iterations,
                          separated_fits=int(result.separation))
            if not result.converged:
                counts.update(nonconverged_fits=1,
                              wasted_iterations=result.iterations)
        self._add(**counts)

    def _after_glm_fit(self, args, kwargs, result) -> None:
        if self._inside("shrinkage.parameterwise_shrinkage"):
            self._add(fold_fits=1)

    def _after_fpsearch_best_fp(self, args, kwargs, result) -> None:
        table = result.deviance_table.values()
        self._add(candidates=len(table),
                  failed_candidates=sum(1 for d in table if d == float("inf")))

    def _after_fsp_fsp_select(self, args, kwargs, result) -> None:
        settings = self._arguments("fsp.fsp_select", args, kwargs)
        key = (_dataset_digest(settings.pop("dataset")),
               repr(sorted(settings.items())))
        repeated = key in self._fsp_seen
        self._fsp_seen.add(key)
        self._add(fsp_repeats=int(repeated))

    def _after_mfp_mfp(self, args, kwargs, result) -> None:
        self._add(mfp_cycles=len(result.cycle_trace),
                  mfp_unconverged=int(not result.converged))

    def _after_selection_backward_eliminate(self, args, kwargs, result) -> None:
        self._add(selection_steps=len(result.steps))

    def _before_resample_stability(self, span_id, args, kwargs):
        """Time each selector call as a child of the stability span; in a
        worker thread the span stack is empty, so the parent is given."""
        arguments = self._arguments("resample.stability", args, kwargs)
        selector = arguments.pop("selector")
        tracer = self

        def traced_selector(dataset):
            return tracer._call("resample.selector", selector, (dataset,), {},
                                parent=span_id)

        self._add(stability_workers=arguments["workers"])
        return (), dict(arguments, selector=traced_selector)

    def _after_resample_stability(self, args, kwargs, result) -> None:
        self._add(replications=result.replications,
                  failed_replications=result.n_failed)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name. Self time is a span's
        duration minus the union of its children's intervals, so children
        running in parallel threads are not subtracted twice."""
        children = defaultdict(list)
        for span_id, _, parent, start, end in self.spans:
            children[parent].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, name, _, start, end in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def busy_time(self, name: str) -> float:
        return sum(end - start for _, n, _, start, end in self.spans if n == name)

