"""Layer tracing of ``kgl`` from outside the package.

``Tracer.install`` wraps every public function and method of every loaded
``kgl`` module: the module attribute, every other ``kgl`` name bound to the
same object (``from x import f`` copies, module-level registries such as
``cli.RUNNERS``) and class attributes in place.  Each call records a span
(name, start, end, parent) in flat arrays; ``numpy.fft`` calls are counted
against the innermost open span (self) and every open span (inclusive).
``Tracer.uninstall`` restores every patched binding.

A span's layer is its module's short name (``toy``, ``grid``, ...).  Self
time is a span's duration minus the durations of its child spans; children
of one span run one after another, so their durations never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _kgl_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "kgl" or name.startswith("kgl.")) and m is not None]


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fft_self = array("i")
        self.fft_incl = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.integrate_problems: list = []  # RegularizedProblem of each integrate call
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            stack = tr.stack
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.end.append(0.0)
            tr.fft_self.append(0)
            tr.fft_incl.append(0)
            stack.append(idx)
            tr.start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tr, args, lambda: fn(*args, **kwargs))
            finally:
                tr.end[idx] = clock()
                stack.pop()

        return traced

    def _count_fft(self, fn):
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tr.stack:
                tr.fft_self[tr.stack[-1]] += 1
                for i in tr.stack:
                    tr.fft_incl[i] += 1
            return fn(*args, **kwargs)

        return counted

    # --- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        # a class keeps its raw descriptor (staticmethod, classmethod)
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public callable of the loaded ``kgl`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _kgl_modules()
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = _layer(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, obj, HOOKS.get(name) or LAYER_HOOKS.get(layer))
                    replaced[id(obj)] = wrapped
                    self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        # every other binding of a wrapped function: imported names and
        # module-level registries such as cli.RUNNERS
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._patches.append((obj, key, value))
                            obj[key] = replaced[id(value)]
        for fn_name in FFT_NAMES:
            if hasattr(np.fft, fn_name):
                self._patch(np.fft, fn_name, self._count_fft(getattr(np.fft, fn_name)))

    def _install_class(self, layer: str, cls: type) -> None:
        generated_init = dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_") or (attr == "__init__" and not generated_init)
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name) or LAYER_HOOKS.get(layer)
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__, hook))
            elif inspect.isfunction(member):
                wrapped = self._wrap(name, member, hook)
            else:
                continue  # properties, cached properties and plain values
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------------

    def span_table(self) -> dict:
        """Per-span arrays, indexed by span, with durations and self times."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - child,
            "fft_self": np.array(self.fft_self, dtype=np.int32),
            "fft_incl": np.array(self.fft_incl, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, FFT calls."""
        t = self.span_table()
        n = len(self.names)
        calls = np.bincount(t["name"], minlength=n)
        sums = {
            key: np.bincount(t["name"], weights=t[col], minlength=n)
            for key, col in (("total_s", "duration"), ("self_s", "self"),
                             ("fft_self", "fft_self"), ("fft_incl", "fft_incl"))
        }
        return {
            name: {"calls": int(calls[i]), **{k: float(v[i]) for k, v in sums.items()}}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: str) -> None:
        """Write the raw spans (with the name table) as an ``.npz`` file."""
        t = self.span_table()
        columns = ("name", "parent", "start", "end", "fft_self")
        np.savez(path, names=np.array(self.names), **{k: t[k] for k in columns})


# --- hooks: counters that need arguments or results -------------------------
#
# A hook receives the tracer, the call's positional arguments and a thunk
# that performs the call; it returns the call's result.


def _stepper_build(tr: Tracer, args, call):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    stepper = args[0]
    nbytes = sum(v.nbytes for v in vars(stepper).values() if isinstance(v, np.ndarray))
    tr.counters["toy.stepper_bytes"] = max(tr.counters.get("toy.stepper_bytes", 0), nbytes)
    tr.counters["toy.stepper_build_peak_mb"] = max(
        tr.counters.get("toy.stepper_build_peak_mb", 0.0), peak / 2**20
    )
    return result


def _step_batch(tr: Tracer, args, call):
    tr.add("toy.batch_columns", args[1].shape[1])
    return call()


def _block_law(tr: Tracer, args, call):
    result = call()
    tr.add("toy.blocks_included", len(result.included()))
    tr.add("toy.blocks_evolved", len(result.comparisons))
    return result


def _integrate(tr: Tracer, args, call):
    tr.integrate_problems.append(args[0])
    return call()


def _picard(tr: Tracer, args, call):
    first = len(tr.integrate_problems)
    state = call()
    attempts = tr.integrate_problems[first:]
    tr.add("solver.picard_iterations", len(state.difference_norms))
    tr.add("solver.picard_retries", state.retries)
    tr.add("solver.picard_integrate_calls", len(attempts))
    tr.add("solver.picard_useful_integrate_calls", sum(p is state.problem for p in attempts))
    return state


def _cli_run(tr: Tracer, args, call):
    report = call()
    tr.add("cli.artifact_bytes", sum(os.path.getsize(a) for a in report.artifacts))
    return report


def _inequalities(tr: Tracer, args, call):
    result = call()
    if type(result).__name__ == "InequalityWitness":
        tr.add("inequalities.witnesses")
    return result


def _corpus(tr: Tracer, args, call):
    result = call()
    if isinstance(result, list):
        tr.add("corpus.members", len(result))
    return result


HOOKS = {
    "toy.ToyStepper.__init__": _stepper_build,
    "toy.ToyStepper.step_batch": _step_batch,
    "toy.block_law_consistency": _block_law,
    "solver.integrate": _integrate,
    "solver.picard_iterate": _picard,
    "cli.run": _cli_run,
}

LAYER_HOOKS = {
    "inequalities": _inequalities,
    "corpus": _corpus,
}


# --- per-layer metrics --------------------------------------------------------

# every kgl module with work in it; kgl.params only holds parameter objects
LAYERS = ("toy", "inequalities", "multipliers", "grid", "dyadic", "corpus",
          "vfields", "solver", "cli")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics of one traced pass, each as (value, unit)."""
    spans = tracer.summary()
    c = tracer.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def layer_sum(layer, key, where=lambda name: True):
        return sum(v[key] for n, v in spans.items() if n.split(".")[0] == layer and where(n))

    def ratio(num, den):
        return num / den if den else 0.0

    wnorm = "multipliers.weighted_sobolev_norm"
    out = {f"{layer}.self_s": (layer_sum(layer, "self_s"), "s") for layer in LAYERS}
    out.update({
        "toy.stepper_builds": (calls("toy.ToyStepper.__init__"), "count"),
        "toy.stepper_build_s": (total("toy.ToyStepper.__init__"), "s"),
        "toy.step_calls": (calls("toy.ToyStepper.step"), "count"),
        "toy.step_s": (total("toy.ToyStepper.step"), "s"),
        "toy.step_batch_calls": (calls("toy.ToyStepper.step_batch"), "count"),
        "toy.step_batch_s": (total("toy.ToyStepper.step_batch"), "s"),
        "toy.batch_columns": (c.get("toy.batch_columns", 0), "count"),
        "toy.stepper_bytes": (c.get("toy.stepper_bytes", 0), "bytes-computed"),
        "toy.stepper_build_peak_mb": (c.get("toy.stepper_build_peak_mb", 0.0), "MB"),
        "toy.blocks_included_ratio": (
            ratio(c.get("toy.blocks_included", 0), c.get("toy.blocks_evolved", 0)), "ratio"),
        "inequalities.witnesses": (c.get("inequalities.witnesses", 0), "count"),
        "inequalities.gagliardo_calls": (calls("inequalities.gagliardo_hs_norm_sq"), "count"),
        "inequalities.gagliardo_s": (total("inequalities.gagliardo_hs_norm_sq"), "s"),
        "multipliers.weighted_norm_calls": (calls(wnorm), "count"),
        "multipliers.weighted_norm_s": (total(wnorm), "s"),
        "multipliers.transforms_per_weighted_norm": (
            ratio(spans.get(wnorm, {}).get("fft_incl", 0), calls(wnorm)), "count"),
        "grid.transforms": (layer_sum("grid", "fft_self"), "count"),
        "grid.consistency_checks": (calls("grid.SpectralField.round_trip_error"), "count"),
        "dyadic.transforms": (layer_sum("dyadic", "fft_self"), "count"),
        "dyadic.block_norms_calls": (calls("dyadic.block_norms"), "count"),
        "dyadic.block_norms_s": (total("dyadic.block_norms"), "s"),
        "dyadic.bump_pair_builds": (calls("dyadic.build_bump_pair"), "count"),
        "corpus.members": (c.get("corpus.members", 0), "count"),
        "vfields.apply_H_calls": (calls("vfields.apply_H"), "count"),
        "vfields.residual_checks": (
            layer_sum("vfields", "calls", lambda n: "residual" in n.rsplit(".", 1)[1]), "count"),
        "vfields.convolution_bound_s": (total("vfields.convolution_bound"), "s"),
        "solver.integrate_calls": (calls("solver.integrate"), "count"),
        "solver.integrate_s": (total("solver.integrate"), "s"),
        "solver.energy_monitor_s": (total("solver.energy_monitor"), "s"),
        "solver.picard_iterations": (c.get("solver.picard_iterations", 0), "count"),
        "solver.picard_retries": (c.get("solver.picard_retries", 0), "count"),
        "solver.picard_useful_ratio": (
            ratio(c.get("solver.picard_useful_integrate_calls", 0),
                  c.get("solver.picard_integrate_calls", 0)), "ratio"),
        "cli.artifact_bytes": (c.get("cli.artifact_bytes", 0), "bytes"),
    })
    return out
