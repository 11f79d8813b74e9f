"""Fold a cProfile of ``Session.run()`` into per-layer self time.

A layer is a package of ``src/repro`` (``sim``, ``io``, ``flash``, ...);
the modules at the package root (``__init__``, ``__main__``) belong to
``api``, the public front door.  Every function defined under
``src/repro`` is charged to its own layer.  Everything else the profile
saw -- builtins (``heappush``, ``deque.append``, ``generator.send``),
stdlib functions and the benchmark's own tracer hooks -- is charged to
the layers that called it, split by pstats' per-caller cumulative time,
so there is no catch-all bucket: the shares of one run sum to one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The layers the benchmark's traffic executes, in report order.
TRAFFIC_LAYERS = ("sim", "io", "flash", "ftl", "volume", "dvol", "host",
                  "network", "faults", "api", "core")
#: Packages that serve paper-figure reproduction, outside this traffic.
OTHER_LAYERS = ("apps", "isp", "fs", "devices", "reporting", "analysis",
                "experiments", "parallel")
LAYERS = TRAFFIC_LAYERS + OTHER_LAYERS
ROOT_LAYER = "api"

_MARKER = "/src/repro/"
#: The profiler's own ``disable()`` call closes every profile; its
#: caller is outside the profiled region, so it belongs to no layer.
_PROFILER_DISABLE = "<method 'disable' of '_lsprof.Profiler' objects>"


def layer_of(path: str) -> Optional[str]:
    """The layer of a source file, or None when it is not in src/repro."""
    path = path.replace("\\", "/")
    index = path.rfind(_MARKER)
    if index < 0:
        return None
    parts = path[index + len(_MARKER):].split("/")
    if len(parts) == 1:
        return ROOT_LAYER
    if parts[0] not in LAYERS:
        raise KeyError(f"{path}: package {parts[0]!r} has no layer; "
                       f"add it to bench/layers.py")
    return parts[0]


def source_modules() -> Iterable[Path]:
    """Every module of the source tree."""
    return sorted(SRC.rglob("*.py"))


def _edge_weights(callers: dict) -> Dict[tuple, float]:
    """Per-caller share of a function's time: cumulative time per edge,
    or call counts when the clock saw nothing."""
    total = sum(edge[3] for edge in callers.values())
    if total > 0:
        return {caller: edge[3] / total for caller, edge in callers.items()}
    calls = sum(edge[1] for edge in callers.values())
    return {caller: edge[1] / calls for caller, edge in callers.items()}


class _Folder:
    def __init__(self, stats: dict):
        self.stats = stats
        self.memo: Dict[tuple, Dict[str, float]] = {}
        self.active: set = set()

    def mix(self, func: tuple) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        done = self.memo.get(func)
        if done is not None:
            return done
        layer = layer_of(func[0])
        if layer is not None:
            mix = {layer: 1.0}
        elif func in self.active or func not in self.stats:
            return {}
        else:
            callers = self.stats[func][4]
            mix = {}
            if callers:
                self.active.add(func)
                for caller, weight in _edge_weights(callers).items():
                    for name, share in self.mix(caller).items():
                        mix[name] = mix.get(name, 0.0) + weight * share
                self.active.discard(func)
        self.memo[func] = mix
        return mix


def fold(stats: dict) -> dict:
    """Per-layer self seconds, shares and call counts of one profile.

    ``stats`` is ``pstats.Stats(profile).stats``.

    Returns ``{"total_s", "unattributed_s", "layers": {layer: {"self_s",
    "share", "calls"}}}`` with every layer of :data:`LAYERS` present.
    ``calls`` counts calls of functions defined in the layer (a
    generator's resumptions count as calls), so it is deterministic for
    a deterministic simulation.
    """
    folder = _Folder(stats)
    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    total = unattributed = 0.0
    for func, (_, ncalls, tottime, _, _) in stats.items():
        if func[2] == _PROFILER_DISABLE:
            continue
        total += tottime
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += ncalls
        mix = folder.mix(func)
        for name, share in mix.items():
            self_s[name] += tottime * share
        unattributed += tottime * (1.0 - sum(mix.values()))
    return {
        "total_s": total,
        "unattributed_s": unattributed,
        "layers": {name: {"self_s": self_s[name],
                          "share": self_s[name] / total if total else 0.0,
                          "calls": calls[name]}
                   for name in LAYERS},
    }
