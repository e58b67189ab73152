"""Outside-in tracing of quadint's layers.

The tracer replaces public functions with timing wrappers, under the names by
which their callers look them up: the module attribute (`sampling.ball_points`,
found by `analysis` at call time) and every `from module import name` binding
of the same function object in another quadint module.  A target that no
longer exists is recorded as absent.  Every transform entry point of
`numpy.fft`, and of `scipy.fft` when it is loaded, is wrapped as well, so the
FFT count survives a switch between complex and real transforms.

Spans are kept in memory as tuples and written out by the caller at the end:
(span id, name, layer, start, end, parent span id, operation id, attrs).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (layer, module, function): the call sites the per-layer metrics are built on
TARGETS = (
    ("cli", "quadint.cli", "main"),
    ("cli", "quadint.cli", "load_problem"),
    ("model", "quadint.model", "materialize"),
    ("model", "quadint.model", "validate_assumptions"),
    ("analysis", "quadint.analysis", "constants_report"),
    ("analysis", "quadint.analysis", "estimate_M"),
    ("sampling", "quadint.sampling", "ball_points"),
    ("exprdsl", "quadint.exprdsl", "evaluate_arrays"),
    ("solver", "quadint.solver", "picard_solve"),
    ("solver", "quadint.solver", "apply_map_tg"),
    ("solver", "quadint.solver", "residual_original_system"),
    ("spectral", "quadint.spectral", "convolve"),
    ("spectral", "quadint.spectral", "apply_multiplier"),
    ("spectral", "quadint.spectral", "h2_norm_many"),
    ("spectral", "quadint.spectral", "h2_norm"),
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                 "hfft", "ihfft")
FFT_SPAN = "spectral.fft"


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", np.asarray(x).nbytes))


def _fft_attrs(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return {"bytes": _nbytes(a) + _nbytes(result)}


def _rows_attrs(args, kwargs, result) -> dict:
    return {"points": int(np.shape(result)[0])}


def _size_attrs(args, kwargs, result) -> dict:
    return {"points": int(np.size(result))}


ATTRS = {
    "sampling.ball_points": _rows_attrs,
    "exprdsl.evaluate_arrays": _size_attrs,
    FFT_SPAN: _fft_attrs,
}


class Tracer:
    """Span recorder.  `install` patches the process; it is meant for a worker
    process that exits after writing the spans out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.fft_entry_points: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self.op_id: int | None = None

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span; nested FFT calls collapse into the outer one."""
        if name == FFT_SPAN and self._stack and self._stack[-1][1] == FFT_SPAN:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            hook = ATTRS.get(name)
            attrs = hook(args, kwargs, result) if hook and result is not None else {}
            self.spans.append((sid, name, layer, t0, t1, parent, self.op_id, attrs))

    def _wrapper(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for layer, module, attr in TARGETS:
            name = f"{module.rsplit('.', 1)[-1]}.{attr}"
            fn = getattr(sys.modules.get(module), attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            _rebind(module, attr, fn, self._wrapper(name, layer, fn))
        for module in FFT_MODULES:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            for attr in FFT_FUNCTIONS:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    _rebind(module, attr, fn, self._wrapper(FFT_SPAN, "spectral", fn))
                    self.fft_entry_points.append(f"{module}.{attr}")


def _rebind(module: str, attr: str, fn, wrapped) -> None:
    """Replace fn as module.attr and wherever a quadint module bound it."""
    setattr(sys.modules[module], attr, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "quadint" or mod_name.startswith("quadint.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)
