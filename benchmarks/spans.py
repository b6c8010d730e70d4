"""In-memory span tracing of the nlheat modules, installed from outside.

``Tracer.install`` wraps every public function of every ``nlheat`` module
and rebinds it at each import site: the defining module, every other
``nlheat`` module that imported it by name (``solver`` imports
``synthesize_coeffs``, ``experiments`` imports ``solve``), and the package
namespace.  Each call records one span (name, start, end, parent) in a
list; nothing is written until ``write`` is called at the end of the run.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time


@dataclass
class Span:
    """One traced call; ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    size: int = 0   # work recorded by a hook: FFT values, or solver steps

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def outermost(spans, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    names = set(names)
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def _size_of(value) -> int:
    return int(getattr(value, "size", 0))


# Work recorded on the span.  The result of a synthesis and the input of an
# analysis are the arrays handed to the FFT; a trajectory records one
# zero-mode sample per step plus the initial one.
_SIZE_HOOKS = {
    "field.synthesize_coeffs": lambda args, result: _size_of(result),
    "field.analyze_values": lambda args, result: _size_of(args[0]),
    "solver.solve": lambda args, result: len(result.zero_mode_times) - 1,
}


PACKAGE = "nlheat"


class Tracer:
    """Collects spans from wrapped nlheat functions in one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []    # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_hook = _SIZE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if size_hook is not None:
                span.size = size_hook(args, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap the public functions and rebind them at every import site."""
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}                   # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, size)."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.size]) + "\n")


LATTICE = ("correlation.mode_weight_table", "correlation.expected_Zt",
           "correlation.drift_scalar")
MOMENTS = ("correlation.moment_experiment_decorrelated",
           "correlation.moment_experiment_Z")
BOUNDS = ("correlation.verify_EZt_bounds", "correlation.verify_It_bounds")
COMPLEX_BYTES = 16


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced run.

    ``_calls`` count every call; ``_s`` sum the durations of the outermost
    spans of the named functions (so nested calls are not counted twice),
    except ``solver.rhs_s`` and ``experiments.runner_self_s``, which are
    self times.
    """
    selfs = self_times(spans)

    def calls(*names):
        return sum(s.name in names for s in spans)

    def inclusive(*names):
        return sum(s.duration for s in outermost(spans, names))

    fft = ("field.synthesize_coeffs", "field.analyze_values")
    solves = [s for s in spans if s.name == "solver.solve"]
    steps = sum(s.size for s in solves)
    besov_synth = [s.size for s in spans
                   if s.name == "field.synthesize_coeffs" and s.parent >= 0
                   and spans[s.parent].layer == "besov"]
    return {
        "field.synthesize_calls": calls(fft[0]),
        "field.synthesize_s": inclusive(fft[0]),
        "field.analyze_calls": calls(fft[1]),
        "field.analyze_s": inclusive(fft[1]),
        "field.points_transformed": sum(s.size for s in spans
                                        if s.name in fft),
        "solver.solves": len(solves),
        "solver.steps": steps,
        "solver.step_s": inclusive("solver.solve") / steps if steps else 0.0,
        "solver.rhs_calls": calls("solver.nonlinear_rhs_coeffs"),
        "solver.rhs_s": sum(t for s, t in zip(spans, selfs)
                            if s.name == "solver.nonlinear_rhs_coeffs"),
        "besov.holder_calls": calls("besov.holder_norm"),
        "besov.holder_s": inclusive("besov.holder_norm"),
        "besov.besov_calls": calls("besov.besov_norm"),
        "besov.besov_s": inclusive("besov.besov_norm"),
        "besov.batch_calls": calls("besov.holder_norms_batch"),
        "besov.batch_s": inclusive("besov.holder_norms_batch"),
        "besov.dense_points": sum(besov_synth),
        "besov.batch_bytes": max(besov_synth, default=0) * COMPLEX_BYTES,
        "sampling.sample_calls": calls("sampling.sample_real_gfs"),
        "sampling.sample_s": inclusive("sampling.sample_real_gfs"),
        "correlation.lattice_calls": calls(*LATTICE),
        "correlation.lattice_s": inclusive(*LATTICE),
        "correlation.moments_s": inclusive(*MOMENTS),
        "correlation.bounds_s": inclusive(*BOUNDS),
        "experiments.runner_self_s": sum(t for s, t in zip(spans, selfs)
                                         if s.layer == "experiments"),
    }
