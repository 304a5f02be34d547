"""Call spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module,
and every name another module bound to one of them (``pinsker.
vajda_lower_bound``, ``vajda.bisect_increasing``, ...), with a wrapper that
records one span per call: name, start, end, parent span and operation
id. Classes are never replaced, because callers test ``isinstance`` on
them; only their ``__post_init__`` (the validation) is wrapped, as a
span of the module that defines the class. Spans stay in flat arrays in
memory until ``write`` saves them.

Counts at module boundaries are taken here too: the
callables handed to ``bisect_increasing`` and ``golden_section_minimize``
are wrapped to count evaluations, and the oracle grid scans count the
pairs their arrays cover (computed from the grid sizes, not measured).
A layer module or a named function that no longer exists is recorded as
absent and reports zeros; it never stops the run.
"""

import functools
import importlib
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "divbounds"
LAYERS = (
    "cli",
    "oracle",
    "pinsker",
    "vajda",
    "measures",
    "augmented",
    "quadrature",
    "optimize",
    "serialize",
)
# functions some per-layer metric is computed from; reported when absent
NAMED = (
    "cli.main",
    "oracle.min_kl_at_tv",
    "oracle.resolve_tv_convention",
    "measures.tv_gaussian_1d",
    "augmented.sample_stiefel",
    "quadrature.integrate_adaptive",
    "quadrature.gauss_kronrod_15",
    "optimize.bisect_increasing",
    "optimize.golden_section_minimize",
)
ROOT = "bench.op"
COUNTERS = ("bisect_evals", "golden_evals", "grid_pairs", "grid_bytes")


def _grid_points(support: int, step: float) -> int:
    n = round(1.0 / step)
    return n + 1 if support == 2 else (n + 1) * (n + 2) // 2


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.names = [ROOT]
        self.name_id = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.raised = array("b")
        self.top = -1
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent_layers = []
        self.absent_functions = []
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.top)
        self.span_op.append(self.op)
        self.t1.append(0.0)
        self.raised.append(0)
        self.top = idx
        self.t0.append(time.perf_counter())
        return idx

    def end(self, idx: int, parent: int, raised: bool = False) -> None:
        self.t1[idx] = time.perf_counter()
        if raised:
            self.raised[idx] = 1
        self.top = parent

    def _wrap(self, fn, name: str, hook=None):
        tracer = self
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            parent = tracer.top
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, parent, raised=True)
                raise
            tracer.end(idx, parent)
            return result

        return wrapper

    # -- boundary counts -----------------------------------------------

    def _counting(self, key: str):
        counts = self.counts

        def hook(args, kwargs):
            def wrap(f):
                def counted(*a):
                    counts[key] += 1
                    return f(*a)

                return counted

            if args:
                args = (wrap(args[0]),) + args[1:]
            else:
                kwargs = dict(kwargs, f=wrap(kwargs["f"]))
            return args, kwargs

        return hook

    def _grid_hook(self, kind: str):
        counts = self.counts

        def hook(args, kwargs):
            if kind == "min_kl_at_tv":
                spec = args[0] if args else kwargs["spec"]
                support = spec.support_size
                pairs = _grid_points(support, spec.step) ** 2
            else:
                step = args[0] if args else kwargs.get("step", 1e-3)
                support = 2
                pairs = (round(1.0 / step) - 1) ** 2
            counts["grid_pairs"] += pairs
            counts["grid_bytes"] += pairs * support * 8
            return args, kwargs

        return hook

    def _hook_for(self, name: str):
        return {
            "optimize.bisect_increasing": self._counting("bisect_evals"),
            "optimize.golden_section_minimize": self._counting("golden_evals"),
            "oracle.min_kl_at_tv": self._grid_hook("min_kl_at_tv"),
            "oracle.resolve_tv_convention": self._grid_hook("resolve"),
        }.get(name)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions wherever they are bound."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, self._hook_for(name)))
                elif isinstance(obj, type) and "__post_init__" in vars(obj):
                    post = vars(obj)["__post_init__"]
                    name = f"{layer}.{attr}.__post_init__"
                    self._patch(obj, "__post_init__", self._wrap(post, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._patch(mod, attr, pair[1])
        for name in NAMED:
            if name.split(".")[0] in self.layers and name not in self.name_id:
                self.absent_functions.append(name)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy columns, with duration and self time added."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        op = np.frombuffer(self.span_op, dtype=np.int32).copy()
        t0 = np.frombuffer(self.t0, dtype=np.float64).copy()
        t1 = np.frombuffer(self.t1, dtype=np.float64).copy()
        raised = np.frombuffer(self.raised, dtype=np.int8).copy()
        dur = t1 - t0
        has_parent = parent >= 0
        child_time = np.zeros_like(dur)
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        child_raised = np.zeros(dur.shape, dtype=np.int64)
        np.add.at(child_raised, parent[has_parent], raised[has_parent])
        return {
            "name": name,
            "parent": parent,
            "op": op,
            "t0": t0,
            "t1": t1,
            "duration": dur,
            "self": dur - child_time,
            # an error counts where it started, not in every span it unwound
            "error_origin": (raised == 1) & (child_raised == 0),
        }

    def write(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)
