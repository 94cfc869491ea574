"""Layer timing from outside the package.

``LayerTrace`` replaces public module-level functions and methods of
``ddesplit`` with timing wrappers while it is installed, and puts the
originals back when it is removed.  No file of the package changes.

A name that another module bound with ``from .history import ...`` is
patched in every loaded ``ddesplit`` module that holds it, so calls made
through either binding are seen.  Methods are patched on their class, which
covers subclasses that inherit them.

For each wrapped function the trace keeps a call count, an error count and
the self time: a call's duration minus the time of the wrapped calls it
made.  Every call is also kept as a span (function, parent span, start,
duration) in memory until :meth:`LayerTrace.write_spans` writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Dict, List

import numpy as np

# The layers and the public functions timed in each.  ``harness`` and
# ``cli`` only wrap these calls and ``oracle`` supplies the ``poly10``
# history, so they are not timed.
TARGETS = (
    "pde.run_pde",
    "pde.ie_pde_step",
    "pde.lt_pde_step",
    "pde.assemble_system",
    "pde.Tridiag.factorize",
    "pde.thomas_solve",
    "history.RingBuffer.push",
    "history.init_from_history",
    "history.delayed_value",
    "history.delay_kernel_integral",
    "history.transport_resolvent_apply",
    "scalar.run",
    "scalar.ie_step",
    "scalar.lt_step",
    "scalar.ie_step_kernel",
    "scalar.lt_step_kernel",
    "stability.spectral_radius",
    "stability.companion_profiles",
    "stability.companion_power_norm_sum",
)


def _resolve(target: str):
    """Return (owner, attribute) for ``module.name`` or ``module.Class.name``."""
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"ddesplit.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class LayerTrace:
    """Counts, self times and spans of the wrapped package functions."""

    def __init__(self):
        self.names = list(TARGETS)
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        # One entry per call in the order the calls start; a span's id is
        # its index and ``span_parent`` holds the caller's id (-1 at the top).
        self.span_func = array("h")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_dur = array("f")
        self.origin = time.perf_counter()
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    def _wrap(self, idx: int, fn):
        calls, errors, self_s, stack = self.calls, self.errors, self.self_s, self._stack
        func, parent_of = self.span_func, self.span_parent
        start, duration = self.span_start, self.span_dur
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span = len(func)
            parent = stack[-1] if stack else None
            func.append(idx)
            parent_of.append(parent[0] if parent is not None else -1)
            start.append(0.0)
            duration.append(0.0)
            frame = [span, 0.0]     # span id, time of wrapped calls made so far
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                start[span] = t0
                duration[span] = dur

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ddesplit" or name.startswith("ddesplit.")]
        try:
            for idx, target in enumerate(self.names):
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                wrapper = self._wrap(idx, original)
                owners = [owner]
                if not isinstance(owner, type):
                    owners += [m for m in modules
                               if m is not owner and getattr(m, attr, None) is original]
                for o in owners:
                    self._patches.append((o, attr, original))
                    setattr(o, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def counts(self) -> Dict[str, int]:
        return dict(zip(self.names, self.calls))

    def metrics(self) -> Dict[str, float]:
        """``<target>.calls``, ``.self_s`` and ``.errors`` for every target."""
        out: Dict[str, float] = {}
        for name, c, s, e in zip(self.names, self.calls, self.self_s, self.errors):
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
            out[f"{name}.errors"] = e
        return out

    def write_spans(self, path) -> int:
        """Write every span as numpy arrays; starts are seconds from creation."""
        np.savez(
            path,
            names=np.array(self.names),
            func=np.frombuffer(self.span_func, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - self.origin,
            duration=np.frombuffer(self.span_dur, dtype=np.float32),
        )
        return len(self.span_func)
