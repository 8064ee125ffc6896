"""The traced run: cProfile around the timed region, folded into layers.

Layers are measured from outside the program. ``cProfile`` records every
Python and C call in the timed region; each profiled function is given
the layer of the file it lives in (layers.py), which yields per layer

* ``self_s`` — time inside the layer's own functions, callees excluded,
  so the layers' self times sum to the profiled total and shares sum to 1;
* ``calls`` — call events, which repeat exactly from run to run;

and, from the profiler's caller edges, a layer-crossing table
``"from->to": {"calls", "cum_s"}`` — the aggregated form of boundary
spans (a run makes ~10^7 crossings, so each one is not stored).

cProfile charges every call but not the work inside native code, which
shifts proportions; the end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Dict

from layers import LAYERS, PYTHON_LAYER, layer_of


class Trace:
    """Started before and stopped after each slice of the timed region, so
    the calibration kernel between slices is not in the profile."""

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()
        self.start = self._profiler.enable
        self.stop = self._profiler.disable

    def fold(self, package_dir: Path) -> Dict[str, Any]:
        """Per-layer self time and calls, layer crossings, and calls by
        function name for the counters that are ratios of call counts."""
        prefix = str(package_dir) + "/"
        layer_cache: Dict[str, str] = {}

        def layer(func) -> str:
            filename = func[0]
            found = layer_cache.get(filename)
            if found is None:
                if filename.startswith(prefix):
                    found = layer_of(filename[len(prefix):]) or "util"
                else:
                    found = PYTHON_LAYER
                layer_cache[filename] = found
            return found

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        crossings: Dict[str, Dict[str, float]] = {}
        by_name: Dict[str, int] = {}
        stats = pstats.Stats(self._profiler).stats
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            to = layer(func)
            self_s[to] += tt
            calls[to] += nc
            if to != PYTHON_LAYER:
                key = f"{to}:{func[2]}"
                by_name[key] = by_name.get(key, 0) + nc
            for caller, (_ecc, enc, _ett, ect) in callers.items():
                source = layer(caller)
                if source != to:
                    edge = crossings.setdefault(f"{source}->{to}",
                                                {"calls": 0, "cum_s": 0.0})
                    edge["calls"] += enc
                    edge["cum_s"] += ect
        return {
            "self_s": self_s,
            "calls": calls,
            "total_s": sum(self_s.values()),
            "total_calls": sum(calls.values()),
            "crossings": crossings,
            "calls_by_name": by_name,
        }
