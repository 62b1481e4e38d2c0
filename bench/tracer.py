"""In-memory span tracer installed around delaywave's public functions.

The tracer wraps every function a delaywave module lists in ``__all__``, in
every delaywave module namespace that binds it (so ``from .x import f``
copies are covered), and ``ExpSum.__call__`` on the class.  Each call
records a span: name, parent span, start, end, a point count and the
exception it raised, if any.  Self time is a span's duration minus the
duration of its direct children.
"""

import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "regions", "polyform", "contour", "chareq", "robustness", "pdesim")


def _points(name, args):
    if name == "chareq.ExpSum.__call__":
        return int(np.size(args[1]))
    if name == "pdesim.simulate":
        cfg = args[0]
        return int(round(cfg.t_final / cfg.dt))
    return 0


class Tracer:
    def __init__(self):
        # each span: [name, parent index, start ns, end ns, points, exception name]
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        """``fn`` recording a span named ``name`` on every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counted = name in ("chareq.ExpSum.__call__", "pdesim.simulate")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0,
                    _points(name, args) if counted else 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("delaywave.")]
        wrapped = {}
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(fn, f"{mod.__name__.split('.')[-1]}.{fn.__qualname__}")
        for mod in modules + [sys.modules["delaywave"]]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        expsum = sys.modules["delaywave.chareq"].ExpSum
        self._undo.append((expsum, "__call__", expsum.__call__))
        expsum.__call__ = self.wrap(expsum.__call__, "chareq.ExpSum.__call__")

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def aggregate(spans):
    """Per span name: calls, total ns, self ns, points, exceptions by name."""
    child = [0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    agg = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "points": 0, "errors": defaultdict(int)})
    for s, c in zip(spans, child):
        a = agg[s[0]]
        a["calls"] += 1
        a["total_ns"] += s[3] - s[2]
        a["self_ns"] += s[3] - s[2] - c
        a["points"] += s[4]
        if s[5]:
            a["errors"][s[5]] += 1
    return agg


def layer_metrics(spans):
    """Per-layer metrics of one traced round (times in s)."""
    agg = aggregate(spans)

    def get(name, field):
        return agg[name][field] if name in agg else 0

    def self_s(name):
        return get(name, "self_ns") / 1e9

    wind = agg.get("contour.winding_rect")
    m = {
        "cli.self_s": self_s("cli.main"),
        "regions.classify_calls": get("regions.classify", "calls"),
        "regions.classify_self_s": self_s("regions.classify"),
        "polyform.disk_roots_calls": get("polyform.disk_roots", "calls"),
        "polyform.disk_roots_s": self_s("polyform.disk_roots"),
        "polyform.jury_calls": get("polyform.jury_all_inside", "calls"),
        "polyform.jury_s": self_s("polyform.jury_all_inside"),
        "chareq.expsum_calls": get("chareq.ExpSum.__call__", "calls"),
        "chareq.expsum_points": get("chareq.ExpSum.__call__", "points"),
        "chareq.expsum_s": self_s("chareq.ExpSum.__call__"),
        "contour.winding_calls": get("contour.winding_rect", "calls"),
        "contour.winding_s": self_s("contour.winding_rect"),
        "contour.winding_contacts": wind["errors"].get("OnContourZero", 0) if wind else 0,
        "contour.isolate_calls": get("contour.isolate_and_refine", "calls"),
        "contour.isolate_self_s": self_s("contour.isolate_and_refine"),
        "robustness.lambda_eps_s": self_s("robustness.find_lambda_eps"),
        "robustness.clear_s": self_s("robustness.check_low_freq_clear"),
        "pdesim.simulate_s": self_s("pdesim.simulate"),
        "pdesim.energy_calls": get("pdesim.energy", "calls"),
        "pdesim.energy_s": self_s("pdesim.energy"),
        "pdesim.steps_per_s": (get("pdesim.simulate", "points") / self_s("pdesim.simulate")
                               if get("pdesim.simulate", "calls") else 0.0),
    }
    traced = sum(a["self_ns"] for a in agg.values()) / 1e9
    for layer in LAYERS + ("bench",):
        own = sum(a["self_ns"] for k, a in agg.items() if k.split(".")[0] == layer) / 1e9
        if layer != "cli":
            m[f"{layer}.self_s"] = own
        m[f"{layer}.share_pct"] = 100.0 * own / traced if traced else 0.0
    return m, agg
