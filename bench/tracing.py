"""The traced run's instruments, all kept in the benchmark's own files.

``Tracer`` wraps public functions of the library's modules so each call
records a span; a layer's figure is its self time, the span's length
minus the spans that ran inside it, so layer times add up without
double counting.  A generator's span is open only while it computes an
item, not while its consumer holds it.  The replays re-run one layer of
an op on its own (a layered view stage by stage, the upward budget
search, the peeling rounds) to count what the solve does not report.
"""

import inspect
import math
import sys
import time

# Layer name -> (module, public functions whose self time it sums).
LAYERS = {
    "instances.parse": ("instances", ("load_graph", "load_digraph", "load_family")),
    "exact.degeneracy": ("exact", ("degeneracy_order",)),
    "exact.structure": ("exact", ("validate",)),
    "layered.bd_vc": ("layered", ("bd_vc_2approx",)),
    "layered.bd_mis": ("layered", ("bd_maximal_is",)),
    "layered.bmhs": ("layered", ("bounded_mult_hs",)),
    "treefunc.tree": ("treefunc", ("tree_min_vc", "tree_max_is")),
    "treefunc.functional": ("treefunc", ("functional_min_vc", "functional_max_is")),
    "kernels.retention": ("kernels", ("retention_scan",)),
    "kernels.buss": ("kernels", ("buss_vc_kernel",)),
    "staggered.pattern_enum": ("staggered", ("forbidden_family",)),
    "staggered.bounded_k": ("staggered", ("hs_bounded_k",)),
    "dominating.dgn": ("dominating", ("dgn_rounds", "dgn_dom_set")),
    "dominating.regular": ("dominating", ("regular_ds_derand",)),
    "hashing.avg_degree_is": ("hashing", ("avg_degree_is",)),
    "hashing.cw_family": ("hashing", ("cw_family",)),
}

# Counts read off a traced call's result: function -> (counter, how).
RESULT_COUNTS = {
    "retention_scan": ("kernels.retained_sets", lambda r: len(r[0])),
    "forbidden_family": ("staggered.pattern_sets", lambda r: r.m),
    "cw_family": ("hashing.members", len),
}


class Tracer:
    def __init__(self):
        self.self_s = {}
        self.counts = {}
        self._stack = []  # [layer, start, time spent in child spans]
        self._saved = []

    def reset(self):
        self.self_s = {}
        self.counts = {}

    def enter(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self):
        layer, start, inner = self._stack.pop()
        span = time.perf_counter() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + span - inner
        if self._stack:
            self._stack[-1][2] += span

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, layer, name, fn):
        tracer = self
        counted = RESULT_COUNTS.get(name)
        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item

        else:

            def traced(*args, **kwargs):
                tracer.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                if counted:
                    tracer.count(counted[0], counted[1](result))
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to a traced function in the package's
        modules, so calls between modules are traced too."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "romapprox"]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"romapprox.{module}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


def counting_meter(lib):
    """A WorkspaceMeter that also counts how often it is called."""

    class CountingMeter(lib.WorkspaceMeter):
        __slots__ = ("access_calls", "alloc_calls")

        def __init__(self):
            super().__init__()
            self.access_calls = 0
            self.alloc_calls = 0

        def access(self, count=1):
            self.access_calls += 1
            super().access(count)

        def alloc(self, words):
            self.alloc_calls += 1
            super().alloc(words)

    return CountingMeter


def replay_layers(lib, op, instance):
    """Stage-by-stage replay of a layered op's view, in the op's own mode.

    Returns (depth, first stage seconds, deepest stage seconds, deepest
    stage input accesses) or None for ops without a layered view.
    """
    build = {
        "bd_vc_2approx": lib.layered.bd_vc_view,
        "bd_maximal_is": lib.layered.bd_is_view,
        "bounded_mult_hs": lib.layered.hs_view,
    }.get(op.solver)
    if build is None:
        return None
    meter = lib.WorkspaceMeter()
    view = build(instance, meter=meter, memoized=not op.audited)
    stages = []
    for i in range(1, view.depth + 1):
        before = meter.input_accesses
        start = time.perf_counter()
        for _ in lib.enumerate_stage(view, i, "S"):
            pass
        stages.append((time.perf_counter() - start, meter.input_accesses - before))
    if not stages:
        return (0, 0.0, 0.0, 0)
    return (view.depth, stages[0][0], stages[-1][0], stages[-1][1])


def replay_budgets(lib, op, instance):
    """How many budgets the upward search of hs_eps_approx tries, replayed
    through hs_bounded_k; None for other ops."""
    if op.solver == "hs_eps_approx":
        family, eps = instance, op.args[0]
    elif op.solver == "del_pi_approx":
        family, eps = lib.forbidden_family(instance, op.args[0]), op.args[1]
    else:
        return None
    cap = math.ceil(family.n ** (1 - eps) - 1e-9)
    tried = 0
    for k in range(1, cap):
        tried += 1
        if lib.hs_bounded_k(family, k, eps, space_audit=op.audited) is not None:
            break
    return tried


def replay_rounds(lib, op, instance):
    """Peeling rounds of a dgn_dom_set op, from dgn_rounds; None for others."""
    if op.solver != "dgn_dom_set":
        return None
    parts = lib.dgn_rounds(instance, op.kwargs.get("d"), space_audit=op.audited)
    return sum(1 for _ in parts) - 1
