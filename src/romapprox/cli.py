"""Command-line front end: solve, kernelize, validate, compare to
exact optima, generate structured instances, and benchmark over seeds.

Reports are single JSON objects (or flat text with --format text).
Exit codes: 0 success, 2 NO verdict from a budgeted mode, 1 usage or
input errors.  A NO verdict carries only algorithm, params, verdict.
"""

import argparse
import heapq
import json
import random
import sys
import time
from dataclasses import dataclass

from . import exact
from .dominating import (
    c4free_ds_approx,
    c4free_ds_bounded_k,
    dgn_dom_set,
    regular_ds_derand,
)
from .errors import (
    DomainError,
    LedgerError,
    ParseError,
    RefusalError,
    RoundLimitError,
)
from .exact import ProblemKind, StructureKind
from .hashing import avg_degree_is
from .instances import (
    DigraphInstance,
    GraphInstance,
    load_digraph,
    load_family,
    load_graph,
    serialize_digraph,
    serialize_graph,
)
from .kernels import buss_vc_kernel, fk_hs_kernel, kernel_family
from .layered import bd_maximal_is, bd_vc_2approx, bounded_mult_hs
from .meter import WorkspaceMeter
from .staggered import (
    del_pi_approx,
    forbidden_family,
    hs_bounded_k,
    hs_eps_approx,
    hs_sqrt_approx,
)
from .treefunc import (
    functional_max_is,
    functional_min_vc,
    tree_max_is,
    tree_min_vc,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is the NO verdict
    # code here, so usage failures must exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


_LOADERS = {"graph": load_graph, "digraph": load_digraph, "family": load_family}
# the instance type `exact` and `validate` read for each kind; graph otherwise
_KIND_LOADERS = {
    ProblemKind.HS: load_family,
    StructureKind.TOURNAMENT: load_digraph,
    StructureKind.FUNCTIONAL: load_digraph,
}


class _UsageError(Exception):
    """A solver request the table cannot serve; reported and exits 1."""


def _underlying(dg):
    return GraphInstance(dg.n, list(dg.underlying_edges()))


@dataclass(frozen=True)
class _Solver:
    """One solve/bench row.  The output must be a ``kind`` solution of
    ``judged(instance)`` (the instance itself when None); --compare-exact
    measures it against the IS optimum for MAXIMAL_IS, else against
    ``kind``'s.  ``structure`` is the input class --check-structure tests.
    ``audited`` says --space-audit selects an audited mode (layered and
    staggered routes, metered tree and functional walks); elsewhere the
    flag changes nothing and reports say ``"audited": false``."""

    name: str
    loader: str
    run: callable
    kind: ProblemKind
    judged: callable = None
    structure: StructureKind = None
    needs: tuple = ()
    audited: bool = False

    def judge(self, inst):
        return inst if self.judged is None else self.judged(inst)


def _del_pi_solver(problem, loader, structure=None):
    return _Solver(
        "del_pi_approx",
        loader,
        lambda inst, a, m: del_pi_approx(
            inst, problem, a.epsilon, meter=m, space_audit=a.space_audit
        ),
        ProblemKind.HS,
        judged=lambda inst: forbidden_family(inst, problem),
        structure=structure,
        needs=("epsilon",),
        audited=True,
    )


def _run_staggered_hs(f, a, m):
    if a.k is not None:
        return hs_bounded_k(f, a.k, a.epsilon, meter=m, space_audit=a.space_audit)
    return hs_eps_approx(f, a.epsilon, meter=m, space_audit=a.space_audit)


def _run_c4free_ds(g, a, m):
    if a.k is not None:
        return c4free_ds_bounded_k(g, a.k, meter=m)
    return c4free_ds_approx(g, meter=m)


SOLVERS = {
    ("vc", "tree"): _Solver(
        "tree_min_vc",
        "graph",
        lambda g, a, m: tree_min_vc(g, meter=m, metered=a.space_audit),
        ProblemKind.VC,
        structure=StructureKind.TREE,
        audited=True,
    ),
    ("is", "tree"): _Solver(
        "tree_max_is",
        "graph",
        lambda g, a, m: tree_max_is(g, meter=m, metered=a.space_audit),
        ProblemKind.IS,
        structure=StructureKind.TREE,
        audited=True,
    ),
    ("vc", "functional"): _Solver(
        "functional_min_vc",
        "digraph",
        lambda dg, a, m: functional_min_vc(dg, meter=m, metered=a.space_audit),
        ProblemKind.VC,
        judged=_underlying,
        structure=StructureKind.FUNCTIONAL,
        audited=True,
    ),
    ("is", "functional"): _Solver(
        "functional_max_is",
        "digraph",
        lambda dg, a, m: functional_max_is(dg, meter=m, metered=a.space_audit),
        ProblemKind.IS,
        judged=_underlying,
        structure=StructureKind.FUNCTIONAL,
        audited=True,
    ),
    ("vc", "bounded-degree"): _Solver(
        "bd_vc_2approx",
        "graph",
        lambda g, a, m: bd_vc_2approx(g, meter=m, space_audit=a.space_audit),
        ProblemKind.VC,
        audited=True,
    ),
    ("is", "maximal"): _Solver(
        "bd_maximal_is",
        "graph",
        lambda g, a, m: bd_maximal_is(g, meter=m, space_audit=a.space_audit),
        ProblemKind.MAXIMAL_IS,
        audited=True,
    ),
    ("is", "avg-degree"): _Solver(
        "avg_degree_is",
        "graph",
        lambda g, a, m: avg_degree_is(g, meter=m),
        ProblemKind.IS,
    ),
    ("hs", "multiplicity"): _Solver(
        "bounded_mult_hs",
        "family",
        lambda f, a, m: bounded_mult_hs(f, meter=m, space_audit=a.space_audit),
        ProblemKind.HS,
        audited=True,
    ),
    ("hs", "staggered"): _Solver(
        "hs_bounded_k",
        "family",
        _run_staggered_hs,
        ProblemKind.HS,
        needs=("epsilon",),
        audited=True,
    ),
    ("hs", "sqrt"): _Solver(
        "hs_sqrt_approx",
        "family",
        lambda f, a, m: hs_sqrt_approx(f, meter=m),
        ProblemKind.HS,
    ),
    ("ds", "c4free"): _Solver(
        "c4free_ds",
        "graph",
        _run_c4free_ds,
        ProblemKind.DS,
        structure=StructureKind.C4_FREE,
    ),
    ("ds", "degenerate"): _Solver(
        "dgn_dom_set",
        "graph",
        lambda g, a, m: dgn_dom_set(g, d=a.d, meter=m, space_audit=a.space_audit),
        ProblemKind.DS,
        structure=StructureKind.DEGENERATE,
    ),
    ("ds", "regular"): _Solver(
        "regular_ds_derand",
        "graph",
        lambda g, a, m: regular_ds_derand(g, a.d, meter=m),
        ProblemKind.DS,
        structure=StructureKind.REGULAR,
        needs=("d",),
    ),
    ("vc", "staggered"): _del_pi_solver("vc", "graph"),
    ("triangle-vd", "staggered"): _del_pi_solver("triangle-vd", "graph"),
    ("cluster-vd", "staggered"): _del_pi_solver("cluster-vd", "graph"),
    ("cograph-vd", "staggered"): _del_pi_solver("cograph-vd", "graph"),
    ("threshold-vd", "staggered"): _del_pi_solver("threshold-vd", "graph"),
    ("split-vd", "staggered"): _del_pi_solver("split-vd", "graph"),
    ("tournament-fvs", "staggered"): _del_pi_solver(
        "tournament-fvs", "digraph", structure=StructureKind.TOURNAMENT
    ),
}

_PROBLEMS = sorted({p for p, _ in SOLVERS})
_ALGORITHMS = sorted({a for _, a in SOLVERS})

_FLAG_NAMES = {"k": "--k", "epsilon": "--epsilon", "d": "--d"}


def _params(args):
    out = {"problem": args.problem, "space_audit": bool(args.space_audit)}
    for key in _FLAG_NAMES:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _meter_block(meter):
    snap = meter.snapshot()
    return {
        "charged_peak_words": snap.charged_peak,
        "primitive_words": snap.primitive_words,
        "input_accesses": snap.input_accesses,
        "pass_estimate": snap.pass_estimate,
    }


def _ratio(size, opt, maximize):
    num, den = (opt, size) if maximize else (size, opt)
    if den == 0:
        return 1.0 if num == 0 else None
    return num / den


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return " ".join(str(x) for x in value) if value else "-"
    if isinstance(value, (dict,)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(args, report):
    if getattr(args, "format", "json") == "text":
        for key in sorted(report):
            value = report[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    print(f"{key}.{sub}: {_scalar(value[sub])}")
            elif key == "runs" and isinstance(value, list):
                for row in value:
                    print(f"run: {_scalar(row)}")
            else:
                print(f"{key}: {_scalar(value)}")
    else:
        print(json.dumps(report, sort_keys=True))


def _lookup(args, refuse=None):
    """The SOLVERS row for args' pair.  A usage error names, in this
    order, an unknown pair, ``refuse(row)``'s message, missing flags."""
    spec = SOLVERS.get((args.problem, args.algorithm))
    if spec is None:
        raise _UsageError(
            f"no algorithm '{args.algorithm}' for problem '{args.problem}'"
        )
    message = refuse(spec) if refuse else None
    missing = [_FLAG_NAMES[name] for name in spec.needs if getattr(args, name) is None]
    if message is None and missing:
        message = f"{args.problem}/{args.algorithm} requires {', '.join(missing)}"
    if message:
        raise _UsageError(message)
    return spec


def _run(spec, inst, args):
    """Run one solver on a fresh meter and time its whole output stream;
    returns the report fields, or None for a NO verdict."""
    meter = WorkspaceMeter()
    start = time.perf_counter()
    sol = spec.run(inst, args, meter)
    sol = None if sol is None else list(sol)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if sol is None:
        return None
    return {
        "solution": sol,
        "size": len(sol),
        "valid": exact.validate(spec.kind, spec.judge(inst), sol)[0],
        "meter": _meter_block(meter),
        "runtime_ms": runtime_ms,
    }


def cmd_solve(args):
    spec = _lookup(args)
    inst = _LOADERS[spec.loader](_read(args.input))
    shape = spec.structure if args.check_structure else None
    if shape is StructureKind.DEGENERATE and args.d is None:
        shape = None  # no bound to check against
    if shape is not None:
        # --d bounds DEGENERATE and REGULAR; the other kinds ignore it
        ok, witness = exact.validate(shape, inst, parameter=args.d)
        if not ok:
            return _fail(f"input is not {shape.value}: witness {witness}")
    report = {
        "algorithm": spec.name,
        "params": _params(args),
        "audited": args.space_audit and spec.audited,
    }
    result = _run(spec, inst, args)
    if result is None:
        _emit(args, {**report, "verdict": "NO"})
        return 2
    report.update(result)
    if args.compare_exact:
        target = ProblemKind.IS if spec.kind is ProblemKind.MAXIMAL_IS else spec.kind
        _, opt = exact.exact_opt(target, spec.judge(inst))
        report["opt"] = opt
        report["ratio"] = _ratio(result["size"], opt, target is ProblemKind.IS)
    _emit(args, report)
    return 0


def cmd_kernel(args):
    params = {"problem": args.problem, "k": args.k}
    if args.problem == "vc":
        g = load_graph(_read(args.input))
        outcome = buss_vc_kernel(g, args.k)
        name = "buss_vc_kernel"
        if not outcome.is_no:
            report = {
                "algorithm": name,
                "params": params,
                "verdict": outcome.verdict,
                "vertices": list(outcome.payload),
            }
    else:
        f = load_family(_read(args.input))
        outcome = fk_hs_kernel(f, args.k)
        name = "fk_hs_kernel"
        if not outcome.is_no:
            kern = kernel_family(f, outcome)
            report = {
                "algorithm": name,
                "params": params,
                "verdict": outcome.verdict,
                "set_indices": list(outcome.payload),
                "kernel": {
                    "n": kern.n,
                    "d": kern.d,
                    "m": kern.m,
                    "sets": [list(s) for s in kern.sets],
                },
            }
    if outcome.is_no:
        _emit(args, {"algorithm": name, "params": params, "verdict": "NO"})
        return 2
    _emit(args, report)
    return 0


def cmd_exact(args):
    kind = ProblemKind(args.problem)
    inst = _KIND_LOADERS.get(kind, load_graph)(_read(args.input))
    sol, opt = exact.exact_opt(kind, inst)
    _emit(args, {"problem": args.problem, "opt": opt, "solution": list(sol)})
    return 0


_VALIDATE_KINDS = [k.value for k in ProblemKind] + [k.value for k in StructureKind]


def _parse_candidate(text):
    items = [t for t in text.replace(",", " ").split() if t]
    try:
        return [int(t) for t in items]
    except ValueError:
        raise DomainError(f"candidate must be integer ids, got {text!r}") from None


def cmd_validate(args):
    try:
        kind = ProblemKind(args.problem)
    except ValueError:
        kind = StructureKind(args.problem)
    candidate = None
    if isinstance(kind, ProblemKind):
        if args.candidate is None:
            return _fail(f"validating {kind.value} needs --candidate")
        candidate = _parse_candidate(args.candidate)
    inst = _KIND_LOADERS.get(kind, load_graph)(_read(args.input))
    ok, witness = exact.validate(kind, inst, candidate=candidate, parameter=args.d)
    _emit(args, {"kind": args.problem, "ok": ok, "witness": _json_safe(witness)})
    return 0


def _json_safe(value):
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _gen_tree(rng, n):
    if n == 1:
        return GraphInstance(1, [])
    if n == 2:
        return GraphInstance(2, [(1, 2)])
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return GraphInstance(n, edges)


def _gen_c4free(rng, n):
    nbrs = {v: set() for v in range(1, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs:
        if rng.random() < 0.5:
            continue
        # a new 4-cycle through (u, v) is a 3-path u .. v already present
        closes = any(
            x != y and y in nbrs[x]
            for x in nbrs[v] - {u}
            for y in nbrs[u] - {v}
        )
        if closes:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((u, v))
    return GraphInstance(n, edges)


def _gen_degenerate(rng, n, d):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    for i, v in enumerate(order):
        for u in rng.sample(order[:i], rng.randint(0, min(d, i))):
            edges.append((min(u, v), max(u, v)))
    return GraphInstance(n, edges)


def _gen_regular(rng, n, d):
    """A random d-regular graph by degree-preserving double edge swaps
    from the circulant joining v to v+1..v+d/2 (and to its antipode when
    d is odd), so every feasible (n, d) succeeds without restarts."""
    edge = lambda u, v: (u, v) if u < v else (v, u)
    steps = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = sorted({edge(v, (v + s) % n) for v in range(n) for s in steps})
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = edge(a, e), edge(c, b)
        if a == e or c == b or new1 == new2 or new1 in present or new2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {new1, new2}
        edges[i], edges[j] = new1, new2
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return GraphInstance(n, [edge(label[u], label[v]) for u, v in edges])


def _gen_tournament(rng, n):
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return DigraphInstance(n, arcs)


def _gen_functional(rng, n):
    arcs = []
    for v in range(1, n + 1):
        t = rng.randint(0, n)
        if t and t != v:
            arcs.append((v, t))
    return DigraphInstance(n, arcs)


_GEN_KINDS = ("tree", "c4free", "degenerate", "regular", "tournament", "functional")


def _generate(kind, n, d, seed):
    """Build one instance; infeasible (kind, n, d) raises DomainError."""
    if n < 0:
        raise DomainError(f"vertex count must be nonnegative, got {n}")
    rng = random.Random(seed)
    if kind == "tree":
        if n < 1:
            raise DomainError("a tree needs at least one vertex")
        return _gen_tree(rng, n)
    if kind == "c4free":
        return _gen_c4free(rng, n)
    if kind == "degenerate":
        if d is None or d < 0:
            raise DomainError("degenerate generation needs --d >= 0")
        return _gen_degenerate(rng, n, d)
    if kind == "regular":
        if d is None or d < 0:
            raise DomainError("regular generation needs --d >= 0")
        if d >= max(n, 1):
            raise DomainError(f"degree {d} impossible on {n} vertices")
        if n * d % 2:
            raise DomainError(f"n*d = {n * d} is odd, no {d}-regular graph exists")
        return _gen_regular(rng, n, d)
    if kind == "tournament":
        return _gen_tournament(rng, n)
    return _gen_functional(rng, n)


def cmd_gen(args):
    inst = _generate(args.kind, args.n, args.d, args.seed)
    text = (
        serialize_digraph(inst)
        if isinstance(inst, DigraphInstance)
        else serialize_graph(inst)
    )
    sys.stdout.write(text)
    return 0


def cmd_bench(args):
    def refuse(spec):
        if spec.loader == "family":
            return "no generator produces set families; bench covers graph problems"
        if (spec.loader == "digraph") != (args.kind in ("tournament", "functional")):
            return f"generator kind '{args.kind}' does not feed a {spec.loader} algorithm"
        return None

    spec = _lookup(args, refuse)
    if args.runs < 1:
        return _fail(f"--runs must be at least 1, got {args.runs}")
    runs, solved = [], []
    for seed in range(args.seed, args.seed + args.runs):
        result = _run(spec, _generate(args.kind, args.n, args.d, seed), args)
        if result is None:
            runs.append({"seed": seed, "verdict": "NO"})
            continue
        del result["solution"]
        runs.append({"seed": seed, **result})
        solved.append(result)
    params = _params(args)
    params.update({"kind": args.kind, "n": args.n, "runs": args.runs, "seed": args.seed})
    count = len(solved)
    report = {
        "algorithm": spec.name,
        "params": params,
        "audited": args.space_audit and spec.audited,
        "runs": runs,
    }
    report["aggregate"] = {
        "runs": args.runs,
        "no_verdicts": args.runs - count,
        "mean_size": sum(r["size"] for r in solved) / count if count else None,
        "mean_runtime_ms": sum(r["runtime_ms"] for r in solved) / count if count else None,
        "max_charged_peak_words": max(
            (r["meter"]["charged_peak_words"] for r in solved), default=None
        ),
    }
    _emit(args, report)
    return 0


def _add_format(sub):
    sub.add_argument("--format", choices=("json", "text"), default="json")


def _add_solver_flags(sub):
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--space-audit", action="store_true")


def build_parser():
    parser = _Parser(prog="romapprox")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve")
    solve.add_argument("--input", required=True)
    solve.add_argument("--problem", required=True, choices=_PROBLEMS)
    solve.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    _add_solver_flags(solve)
    solve.add_argument("--compare-exact", action="store_true")
    solve.add_argument("--check-structure", action="store_true")
    _add_format(solve)
    solve.set_defaults(func=cmd_solve)

    kernel = commands.add_parser("kernel")
    kernel.add_argument("--input", required=True)
    kernel.add_argument("--problem", required=True, choices=("vc", "hs"))
    kernel.add_argument("--k", type=int, required=True)
    _add_format(kernel)
    kernel.set_defaults(func=cmd_kernel)

    exact_cmd = commands.add_parser("exact")
    exact_cmd.add_argument("--input", required=True)
    exact_cmd.add_argument(
        "--problem", required=True, choices=[k.value for k in ProblemKind]
    )
    _add_format(exact_cmd)
    exact_cmd.set_defaults(func=cmd_exact)

    validate = commands.add_parser("validate")
    validate.add_argument("--input", required=True)
    validate.add_argument("--problem", required=True, choices=_VALIDATE_KINDS)
    validate.add_argument("--candidate", default=None)
    validate.add_argument("--d", type=int, default=None)
    _add_format(validate)
    validate.set_defaults(func=cmd_validate)

    gen = commands.add_parser("gen")
    gen.add_argument("kind", choices=_GEN_KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    bench = commands.add_parser("bench")
    bench.add_argument("--problem", required=True, choices=_PROBLEMS)
    bench.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    bench.add_argument("--kind", required=True, choices=_GEN_KINDS)
    bench.add_argument("--n", type=int, required=True)
    _add_solver_flags(bench)
    bench.add_argument("--runs", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    _add_format(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        _UsageError,
        DomainError,
        RefusalError,
        RoundLimitError,
        LedgerError,
        OSError,
    ) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
