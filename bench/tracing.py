"""Span tracing of the prolate layers, installed from outside the package.

Each module of ``src/prolate`` is one layer. ``Tracer.install`` replaces the
functions and methods defined in those modules with wrappers that record a
span (name, start, end, parent) in memory, and ``Tracer.uninstall`` puts the
originals back; the program's files are never changed. A layer's self time
is the duration of its spans minus the part covered by their child spans, so
the self times of all layers add up to the traced wall time.

Besides the layers' own functions, ``spectrum.eigh_tridiagonal`` (the scipy
eigenvector solve that ``spectrum`` calls) is traced as ``spectrum.eigvecs``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "spectrum", "kernel", "bounds", "displacement", "chebsinc", "verification")
SUITES = ("spectrum", "bounds", "displacement", "chebsinc")

# Dunder methods that do layer work; the other dunders are data-class plumbing.
_TRACED_DUNDERS = ("__init__", "__call__")

_WINDOW = "spectrum._transition_window"
_ROUND = "spectrum.tridiagonal_spectrum"
_EIGVECS = "spectrum.eigvecs"
_MATMAT = "kernel.SymmetricToeplitz.matmat"


class Tracer:
    """Records spans for one single-threaded process, as the CLI runs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._count_run = None

    # -------------------------------------------------------------- wrapping --

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = {
            _WINDOW: self._window_counts,
            _EIGVECS: lambda args, kwargs, result: {"vectors": result[1].shape[1]},
            _MATMAT: lambda args, kwargs, result: {
                "columns": args[1].shape[1],
                "embed": args[0]._m,
            },
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                spans[idx][4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _window_counts(self, args, kwargs, result):
        eps = args[1] if len(args) > 1 else kwargs["eps"]
        return {"width": self._count_run(result, eps)[0]}

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "prolate") -> None:
        """Wrap every function and method defined in the package's layer modules."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        spec = modules["spectrum"]
        self._count_run = spec._count_run
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", mod, obj)
        self._set(spec, "eigh_tridiagonal", self._wrap(_EIGVECS, spec.eigh_tridiagonal))
        # rebind the defining name, `from .x import f` copies and tables of functions
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[id(val)]

    def _wrap_class(self, prefix, mod, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                continue
            if isinstance(obj, property):
                fn = obj.fget
            elif isinstance(obj, (staticmethod, classmethod)):
                fn = obj.__func__
            else:
                fn = obj
            # generated data-class and named-tuple methods come from other files
            if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                continue
            traced = self._wrap(f"{prefix}.{attr}", fn)
            if isinstance(obj, property):
                traced = property(traced, obj.fset, obj.fdel)
            elif fn is not obj:
                traced = type(obj)(traced)
            self._set(cls, attr, traced)

    def uninstall(self) -> None:
        """Put back every original binding that ``install`` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # ------------------------------------------------------------- summaries --

    def summarize(self, first: int, last: int) -> dict:
        """Per-layer figures for the spans recorded in ``spans[first:last]`` (one op).

        Times are seconds summed over the op's spans; ``windows`` holds
        ``[rounds, vectors, width]`` for each ``_transition_window`` call.
        """
        spans = self.spans[first:last]
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[3] >= first:
                child_s[span[3] - first] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        span_s: dict[str, float] = defaultdict(float)
        windows: dict[int, list] = {}  # span index -> [rounds, vectors, width]
        for i, (name, start, end, parent, counts) in enumerate(spans):
            counts = counts or {}  # a span that raised has no counts
            dur = end - start
            span_s[name] += dur
            out[name.split(".", 1)[0] + ".self_s"] += dur - child_s[i]
            if name == "spectrum._rayleigh_quotients":
                out["spectrum.rayleigh.self_s"] += dur - child_s[i]
            elif name == _MATMAT:
                m, k = counts.get("embed", 0), counts.get("columns", 0)
                out["kernel.toeplitz_matmat.columns"] += k
                # rfft output, its product with the kernel FFT, irfft output
                out["kernel.fft_bytes_computed"] += 2 * (m // 2 + 1) * k * 16 + m * k * 8
            elif name == _WINDOW:
                windows[i] = [0, 0, counts.get("width", 0)]
            if name == _EIGVECS:
                out["spectrum.eigvecs.vectors"] += counts.get("vectors", 0)
            if name in (_ROUND, _EIGVECS):
                anc = parent - first
                while anc >= 0 and anc not in windows:
                    anc = spans[anc][3] - first
                if anc >= 0 and name == _ROUND:
                    windows[anc][0] += 1
                elif anc >= 0:
                    windows[anc][1] += counts.get("vectors", 0)
        named = {
            "spectrum.eigvecs.s": _EIGVECS,
            "spectrum.bands.s": "spectrum._tridiag_bands",
            "spectrum.dense.s": "spectrum.dense_spectrum",
            "kernel.toeplitz_matmat.s": _MATMAT,
            "kernel.sinc_kernel.s": "kernel.sinc_kernel",
        }
        named.update({f"verification.{s}.s": f"verification.suite_{s}" for s in SUITES})
        out.update({key: span_s[span] for key, span in named.items()})
        return {**out, "windows": list(windows.values()), "spans": len(spans)}
