"""Layer spans for the traced benchmark run, taken from outside gapdyn.

install() replaces the public functions that gapdyn.cli calls with timing
wrappers, in every loaded gapdyn module that binds them, so calls made
through the CLI and calls between gapdyn modules (estimate_mle calling
estimate_ar2) are both seen.  uninstall() puts the originals back.

Spans are keyed by layer, not by the module that happens to define a
function, and stay in memory until take() folds the spans of one operation
into per-layer self times (a span minus its child spans) and counts.
Three counters need no span: normal draws (standard_normals), MLE
likelihood evaluations (calls of the lag-coefficient helper _phi_pair inside
an estimate_mle span) and calls of the RK4 forcing callable.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

LAYERS = {
    "parse_config": "config.parse",
    "realize": "shocks.realize",
    "integrate_euler": "integrate.euler",
    "integrate_rk4": "integrate.rk4",
    "recovery_metrics": "integrate.metrics",
    "write_trajectory_csv": "seriesio.write",
    "read_series_csv": "seriesio.read",
    "write_svg": "svgplot.write",
    "estimate_ar2": "estimation.ar2",
    "estimate_mle": "estimation.mle",
}


def _size(layer: str, args: tuple, result) -> tuple[int, int]:
    """Work done by one call: (units, bytes written)."""
    try:
        if layer in ("integrate.euler", "integrate.rk4"):
            return result.grid.n_steps - 1, 0
        if layer == "seriesio.write":
            return args[1].grid.n_steps, os.path.getsize(args[0])
        if layer == "seriesio.read":
            return result.values.size, 0
        if layer == "svgplot.write":
            return len(args[1]) * len(args[2]), os.path.getsize(args[0])
        if layer.startswith("estimation."):
            return result.n_obs, 0
        if layer == "shocks.realize":
            return len(result), 0
    except (AttributeError, TypeError, IndexError, OSError):
        pass
    return 0, 0


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (layer, start, end, parent index, units, bytes)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {"draws": 0, "mle_evals": 0, "forcing_calls": 0}
        self._forcings: set[bytes] = set()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gapdyn" or name.startswith("gapdyn."))]
        originals: dict[str, object] = {}
        for mod in modules:
            for name, layer in LAYERS.items():
                fn = getattr(mod, name, None)
                if callable(fn) and getattr(mod, "__name__", "") == getattr(fn, "__module__", None):
                    originals[name] = fn
        wrappers = {name: self._span(LAYERS[name], fn) for name, fn in originals.items()}
        shocks = sys.modules.get("gapdyn.shocks")
        if shocks is not None and hasattr(shocks, "standard_normals"):
            originals["standard_normals"] = shocks.standard_normals
            wrappers["standard_normals"] = self._draws(shocks.standard_normals)
        est = sys.modules.get("gapdyn.estimation")
        if est is not None and hasattr(est, "_phi_pair"):
            originals["_phi_pair"] = est._phi_pair
            wrappers["_phi_pair"] = self._evals(est._phi_pair)
        for mod in modules:
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrappers[name])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def _span(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            if layer == "integrate.rk4" and len(args) > 2 and callable(args[2]):
                args = args[:2] + (self._counted(args[2]),) + args[3:]
            idx = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            units, nbytes = _size(layer, args, result)
            self.spans[idx][4:6] = units, nbytes
            if layer == "shocks.realize":
                self._forcings.add(hashlib.blake2b(memoryview(result).tobytes(), digest_size=16).digest())
            return result

        return wrapper

    def _draws(self, fn):
        def wrapper(seed, n, *args, **kwargs):
            self.counts["draws"] += n
            return fn(seed, n, *args, **kwargs)
        return wrapper

    def _evals(self, fn):
        def wrapper(*args, **kwargs):
            if any(self.spans[i][0] == "estimation.mle" for i in self._stack):
                self.counts["mle_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted(self, forcing_fn):
        counts = self.counts

        def wrapper(t):
            counts["forcing_calls"] += 1
            return forcing_fn(t)
        return wrapper

    def take(self) -> dict:
        """Fold the spans since the last take() into per-layer totals.

        Returns {"layers": {layer: [self_s, calls, units, bytes]},
        "top_s": time inside outermost spans, "counts": {...}}.  Units of a
        span nested in another span of the same module are not counted
        again (estimate_mle reports the observations its inner
        estimate_ar2 call also sees).
        """
        layers: dict[str, list] = {}
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                top_s += end - start
        for i, (layer, start, end, parent, units, nbytes) in enumerate(self.spans):
            agg = layers.setdefault(layer, [0.0, 0, 0, 0])
            agg[0] += end - start - child_s[i]
            agg[1] += 1
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer.split(".")[0]:
                agg[2] += units
                agg[3] += nbytes
        counts = dict(self.counts, unique_forcings=len(self._forcings))
        self.reset()
        return {"layers": layers, "top_s": top_s, "counts": counts}
