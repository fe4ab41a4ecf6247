"""The three workloads: their inputs, their ops and how each op is checked.

An op is one call of a public solver on one parsed instance.  Inputs are
generated by ``gen`` from the run's seed, except the space-audit panel
(see ``space_audit``).  Checks use ``check`` only, never the library's
own validators.
"""

import math
import random
from dataclasses import dataclass, field

import check
import gen


@dataclass
class Input:
    kind: str  # "graph", "digraph" or "family"
    n: int
    data: list  # edges, arcs or sets, exactly as written in ``text``
    d: int = 0  # declared set-size bound of a family
    h: int = 0  # size of the planted hitting set of a family
    text: str = ""

    def __post_init__(self):
        if self.kind == "graph":
            self.text = gen.graph_text(self.n, self.data)
        elif self.kind == "digraph":
            self.text = gen.digraph_text(self.n, self.data)
        else:
            self.text = gen.family_text(self.n, self.d, self.data)


@dataclass
class Op:
    name: str
    solver: str  # public name in the ``romapprox`` package
    key: str  # input the op reads
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    metered: bool = True  # the solver takes ``meter=``

    @property
    def audited(self):
        return bool(self.kwargs.get("space_audit") or self.kwargs.get("metered"))

    def call(self, lib, instance, meter):
        kwargs = dict(self.kwargs)
        if self.metered:
            kwargs["meter"] = meter
        return getattr(lib, self.solver)(instance, *self.args, **kwargs)


def materialise(result):
    """Consume a solver's result into a hashable value."""
    if result is None:
        return None
    if hasattr(result, "verdict"):
        return (result.verdict, tuple(result.payload))
    return tuple(result)


def graph(n, edges):
    return Input("graph", n, edges)


def family(n, d, h, sets):
    return Input("family", n, sets, d=d, h=h)


# ---------------------------------------------------------------- workloads


def fast_mode(seed):
    """Default (memoized or fast) modes on large sparse inputs."""
    rng = random.Random(f"fast-mode/{seed}")
    inputs = {
        "reg3": graph(2048, gen.regular_edges(rng, 2048, 3)),
        "hub": graph(1024, gen.hub_edges(rng, 1024, 4, 60)),
        "dgn1k": graph(1024, gen.degenerate_edges(rng, 1024, 3)),
        "dgn4k": graph(4096, gen.degenerate_edges(rng, 4096, 3)),
        "tree": graph(4096, gen.tree_edges(rng, 4096)),
        "func": Input("digraph", 4096, gen.functional_arcs(rng, 4096)),
        "bmult": family(1200, 3, 300, gen.planted_family(rng, 1200, 900, 3, 300, max_mult=3)),
        "plant": family(400, 3, 8, gen.planted_family(rng, 400, 600, 3, 8)),
        "clus": graph(24, gen.degenerate_edges(rng, 24, 2)),
        "split": graph(20, gen.degenerate_edges(rng, 20, 3)),
        "tour": Input("digraph", 22, gen.tournament_arcs(rng, 22)),
    }
    tree = inputs["tree"]
    tau = check.tree_cover_size(tree.n, tree.data)
    ops = [
        Op("bd_vc/reg3-2048", "bd_vc_2approx", "reg3"),
        Op("bd_mis/reg3-2048", "bd_maximal_is", "reg3"),
        Op("bd_vc/hub-1024", "bd_vc_2approx", "hub"),
        Op("bd_mis/hub-1024", "bd_maximal_is", "hub"),
        Op("bmult_hs/bmult-1200", "bounded_mult_hs", "bmult"),
        Op("tree_vc/tree-4096", "tree_min_vc", "tree"),
        Op("tree_is/tree-4096", "tree_max_is", "tree"),
        Op("func_vc/func-4096", "functional_min_vc", "func"),
        Op("func_is/func-4096", "functional_max_is", "func"),
        Op("dgn_ds/dgn-1024-d-omitted", "dgn_dom_set", "dgn1k"),
        Op("dgn_ds/dgn-4096-d3", "dgn_dom_set", "dgn4k", kwargs={"d": 3}),
        Op("c4free_ds/tree-4096", "c4free_ds_approx", "tree"),
        Op("buss/tree-4096", "buss_vc_kernel", "tree", args=(tau,), metered=False),
        Op("fk_hs/plant-400", "fk_hs_kernel", "plant", args=(8,), metered=False),
        Op("hs_bounded_k/plant-400", "hs_bounded_k", "plant", args=(8, 0.5)),
        Op("hs_eps/plant-400", "hs_eps_approx", "plant", args=(0.5,)),
        Op("hs_sqrt/plant-400", "hs_sqrt_approx", "plant"),
        Op("del_pi/cluster-24", "del_pi_approx", "clus", args=("cluster-vd", 0.5)),
        Op("del_pi/split-20", "del_pi_approx", "split", args=("split-vd", 0.5)),
        Op("del_pi/tournament-22", "del_pi_approx", "tour", args=("tournament-fvs", 0.5)),
    ]
    return inputs, ops


def space_audit(seed):
    """Audit modes (``space_audit=True`` / ``metered=True``) on small inputs.

    The audited cost of a layered solve or a metered walk swings tenfold
    from one random input to the next, and across relabellings of one
    graph, so a seeded draw of a few such inputs cannot give steady sums.
    Those solves read a fixed panel drawn once from its own seed; the
    run's seed draws the degenerate graph and the planted family of the
    cheap, steady ops.
    """
    rng = random.Random(f"space-audit/{seed}")

    def panel(key):
        return random.Random(f"space-audit/panel/{key}")

    inputs = {
        "reg12a": graph(12, gen.regular_edges(panel("reg12a"), 12, 3)),
        "reg12b": graph(12, gen.regular_edges(panel("reg12b"), 12, 3)),
        "reg16": graph(16, gen.regular_edges(panel("reg16"), 16, 3)),
        "tree": graph(128, gen.tree_edges(panel("tree"), 128)),
        "func": Input("digraph", 128, gen.functional_arcs(panel("func"), 128)),
        "bmult": family(12, 2, 4, gen.planted_family(panel("bmult"), 12, 8, 2, 4, max_mult=2)),
        "plant-eps": family(8, 3, 2, gen.planted_family(panel("plant-eps"), 8, 6, 3, 2)),
        "dgn": graph(64, gen.degenerate_edges(rng, 64, 3)),
        "plant40": family(40, 3, 3, gen.planted_family(rng, 40, 40, 3, 3)),
    }
    audit = {"space_audit": True}
    walk = {"metered": True}
    ops = [
        Op("bd_vc/reg12a", "bd_vc_2approx", "reg12a", kwargs=audit),
        Op("bd_vc/reg12b", "bd_vc_2approx", "reg12b", kwargs=audit),
        Op("bd_vc/reg16", "bd_vc_2approx", "reg16", kwargs=audit),
        Op("bd_mis/reg12a", "bd_maximal_is", "reg12a", kwargs=audit),
        Op("bd_mis/reg16", "bd_maximal_is", "reg16", kwargs=audit),
        Op("bmult_hs/bmult-12", "bounded_mult_hs", "bmult", kwargs=audit),
        Op("tree_vc/tree-128", "tree_min_vc", "tree", kwargs=walk),
        Op("tree_is/tree-128", "tree_max_is", "tree", kwargs=walk),
        Op("func_vc/func-128", "functional_min_vc", "func", kwargs=walk),
        Op("func_is/func-128", "functional_max_is", "func", kwargs=walk),
        Op("hs_eps-0.5/plant40", "hs_eps_approx", "plant40", args=(0.5,), kwargs=audit),
        Op("hs_eps-0.25/plant-8", "hs_eps_approx", "plant-eps", args=(0.25,), kwargs=audit),
        Op("hs_bounded_k/plant40", "hs_bounded_k", "plant40", args=(3, 0.5), kwargs=audit),
        Op("dgn_ds/dgn-64", "dgn_dom_set", "dgn", kwargs=audit),
    ]
    return inputs, ops


def hash_sweep(seed):
    """Carter-Wegman sweeps on d-regular and non-regular sparse graphs."""
    rng = random.Random(f"hash-sweep/{seed}")
    inputs = {
        "r64d3": graph(64, gen.regular_edges(rng, 64, 3)),
        "r64d4": graph(64, gen.regular_edges(rng, 64, 4)),
        "r64d6": graph(64, gen.regular_edges(rng, 64, 6)),
        "r96d4": graph(96, gen.regular_edges(rng, 96, 4)),
        "dgn64": graph(64, gen.degenerate_edges(rng, 64, 2)),
        "hub64": graph(64, gen.hub_edges(rng, 64, 2, 12)),
    }
    ops = [
        Op("regular_ds/r64d3", "regular_ds_derand", "r64d3", args=(3,)),
        Op("regular_ds/r64d4", "regular_ds_derand", "r64d4", args=(4,)),
        Op("regular_ds/r64d6", "regular_ds_derand", "r64d6", args=(6,)),
        Op("regular_ds/r96d4", "regular_ds_derand", "r96d4", args=(4,)),
        Op("avg_is/r64d3", "avg_degree_is", "r64d3"),
        Op("avg_is/r64d6", "avg_degree_is", "r64d6"),
        Op("avg_is/dgn64", "avg_degree_is", "dgn64"),
        Op("avg_is/hub64", "avg_degree_is", "hub64"),
    ]
    return inputs, ops


WORKLOADS = {
    "fast-mode": fast_mode,
    "space-audit": space_audit,
    "hash-sweep": hash_sweep,
}


# ------------------------------------------------------------------ checks


EXACT_GRAPH_CAP = 24
EXACT_FAMILY_CAP = 12
PATTERN_CHECKS = {
    "cluster-vd": check.cluster,
    "split-vd": check.split,
    "tournament-fvs": check.transitive,
}


def verify(op, inp, out):
    """None when ``out`` is a correct answer of ``op`` on ``inp``, else why not."""
    n, data, s = inp.n, inp.data, op.solver
    if out is None or (s.endswith("_kernel") and out[0] == "NO"):
        return "NO verdict although a solution within the budget exists"
    if s == "bd_vc_2approx":
        bad = check.cover(n, data, out)
        if not bad and n <= EXACT_GRAPH_CAP and len(out) > 2 * check.exact_cover_size(n, data):
            bad = "cover more than twice the optimum"
        return bad
    if s == "bd_maximal_is":
        return check.maximal_independent(n, data, out)
    if s in ("tree_min_vc", "functional_min_vc", "tree_max_is", "functional_max_is"):
        size = check.tree_cover_size if s.startswith("tree") else check.pseudoforest_cover_size
        tau = size(n, data)
        if s.endswith("vc"):
            return check.cover(n, data, out) or (
                None if len(out) == tau else f"cover of size {len(out)}, optimum {tau}"
            )
        return check.independent(n, data, out) or (
            None
            if len(out) == n - tau
            else f"independent set of size {len(out)}, optimum {n - tau}"
        )
    if s in ("dgn_dom_set", "c4free_ds_approx"):
        return check.dominating(n, data, out)
    if s == "regular_ds_derand":
        bound = check.regular_ds_bound(n, op.args[0])
        return check.dominating(n, data, out) or (
            None if len(out) <= bound else f"{len(out)} dominators above the bound {bound:.2f}"
        )
    if s == "avg_degree_is":
        k = -(-2 * len(data) // n)
        return check.independent(n, data, out) or (
            None if 2 * k * len(out) >= n else f"{len(out)} vertices below n/(2k), k = {k}"
        )
    if s == "buss_vc_kernel":
        k = op.args[0]
        payload = out[1]
        return check.cover(n, data, payload) or (
            None if len(payload) <= k + 2 * k * k else "kernel above k + 2k^2 vertices"
        )
    if s == "fk_hs_kernel":
        payload = out[1]
        if list(payload) != sorted(set(payload)) or not all(1 <= j <= len(data) for j in payload):
            return "retained indices not ascending set indices"
        k = op.args[0]
        return None if len(payload) <= (k + 1) ** inp.d else "kernel above (k+1)^d sets"
    if s in ("bounded_mult_hs", "hs_bounded_k", "hs_eps_approx", "hs_sqrt_approx"):
        bad = check.hitting(n, data, out)
        if bad:
            return bad
        if s == "bounded_mult_hs":
            opt = check.exact_hitting_size(data) if n <= EXACT_FAMILY_CAP else inp.h
            if len(out) > inp.d * opt:
                return f"hitting set of size {len(out)} above d * {opt}"
        if s == "hs_bounded_k":
            cap = check.staggered_cap(inp.d, op.args[1], op.args[0])
        elif s == "hs_eps_approx" and inp.h < math.ceil(n ** (1 - op.args[0]) - 1e-9):
            # the upward search stops at the first budget that succeeds,
            # and budget h always does
            cap = check.staggered_cap(inp.d, op.args[0], inp.h)
        else:
            cap = math.inf
        if len(out) > cap:
            return f"hitting set of size {len(out)} above the cap {cap:.1f}"
        return None
    if s == "del_pi_approx":
        return check.ids_ok(n, out) or PATTERN_CHECKS[op.args[0]](n, data, out)
    raise ValueError(f"no check for {s}")
