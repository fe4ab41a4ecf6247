"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fast-mode --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
installed.  Each run generates its inputs from the seed, times a set-up
(import plus parsing every instance text), runs one untimed warm-up
round that checks every output with ``check``, then times whole rounds
of the op list, round-robin, until ``--seconds`` have passed, with more
set-ups timed between rounds.  Each op call gets a fresh WorkspaceMeter
and its output is consumed inside the timed region; garbage is collected
before each call, outside it, and every call and set-up is bracketed by
two timings of the reference loop.  Outputs of timed rounds must hash to
the checked warm-up output.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md).  The last line of standard output is
the JSON result; a per-op report with solution digests is written to
``bench-results/BENCH_<workload>_seed<seed>[_trace].json``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench-results"

SETUP_SECONDS_PER_ROUND = 0.2
# setup_s is reported in seconds on a host where the reference loop takes
# this long: raw set-up times follow the host's speed from one process to
# the next (37 to 55 ms for hash-sweep on a shared 2-core Xeon VM), their
# ratio to the reference loop much less (within 4%).
NOMINAL_REF_S = 0.005
LOADERS = {"graph": "load_graph", "digraph": "load_digraph", "family": "load_family"}


def _drop_library():
    loaded = {m: mod for m, mod in sys.modules.items() if m.split(".")[0] == "romapprox"}
    for name in loaded:
        del sys.modules[name]
    return loaded


def setup(inputs):
    """Import the library afresh and parse every instance text.

    Returns (seconds, package, parsed instances).
    """
    _drop_library()
    gc.collect()
    start = time.perf_counter()
    lib = importlib.import_module("romapprox")
    parsed = {key: getattr(lib, LOADERS[inp.kind])(inp.text) for key, inp in inputs.items()}
    elapsed = time.perf_counter() - start
    if Path(lib.__file__).resolve().parent != SRC / "romapprox":
        raise SystemExit(f"romapprox imported from {lib.__file__}, not from {SRC}")
    return elapsed, lib, parsed


def timed_setup(inputs):
    """Time one more set-up, then put the run's own modules back."""
    kept = _drop_library()
    try:
        return setup(inputs)[0]
    finally:
        _drop_library()
        sys.modules.update(kept)


def digest(out):
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


class OpState:
    def __init__(self, op, inp):
        self.op = op
        self.inp = inp
        # Per kind of round ("meter"; traced runs add "plain", meter=None,
        # and "traced"): call times, and call times over the mean of the
        # two reference times that bracket them.
        self.times = {"meter": [], "plain": [], "traced": []}
        self.ratios = {"meter": [], "plain": [], "traced": []}
        self.ref_s = []
        self.digest = None
        self.size = None
        self.meter = None  # the warm-up call's meter
        self.reason = None  # why the output is wrong, or why the call raised
        self.wrong = False  # the output failed its check
        self.failed = 0


def call_once(lib, instance, op, meter):
    start = time.perf_counter()
    out = workloads.materialise(op.call(lib, instance, meter))
    return time.perf_counter() - start, out


def warm_up(lib, parsed, states, meter_cls):
    """Run and fully check every op once, keeping its meter and digest."""
    for st in states:
        meter = meter_cls()
        try:
            _, out = call_once(lib, parsed[st.op.key], st.op, meter)
            st.reason = workloads.verify(st.op, st.inp, out)
            st.wrong = st.reason is not None
        except Exception as exc:  # an op that raises is a failed op
            st.reason = f"raised {type(exc).__name__}: {exc}"
            out = None
        if st.reason:
            st.failed += 1
        st.digest = digest(out)
        st.size = None if out is None else len(out)
        st.meter = meter


def time_reference():
    gc.collect()
    refloop.reference_loop()  # untimed: refill the caches the collection flushed
    start = time.perf_counter()
    refloop.reference_loop()
    return time.perf_counter() - start


def timed_round(lib, parsed, states, kind="meter"):
    """One call of every op, each between two timings of the reference loop.

    ``kind`` "plain" calls with meter=None, the others with a fresh
    WorkspaceMeter.  An op whose warm-up output failed its check fails in
    every round.
    """
    before = time_reference()
    for st in states:
        gc.collect()
        meter = None if kind == "plain" else lib.WorkspaceMeter()
        try:
            elapsed, out = call_once(lib, parsed[st.op.key], st.op, meter)
        except Exception as exc:
            st.failed += 1
            st.reason = st.reason or f"raised {type(exc).__name__}: {exc}"
            before = time_reference()
            continue
        after = time_reference()
        if digest(out) != st.digest:
            st.wrong = True
            st.reason = st.reason or "output differs from the checked warm-up output"
        if st.reason:
            st.failed += 1
        st.times[kind].append(elapsed)
        st.ratios[kind].append(2 * elapsed / (before + after))
        st.ref_s.append(after)
        before = after


def per_op_rows(states):
    """One report row per op; an op that raised on every call has no times."""
    med = lambda xs: statistics.median(xs) if xs else None
    rows = []
    for st in states:
        snap = st.meter
        op_med = med(st.times["meter"])
        rows.append(
            {
                "op": st.op.name,
                "solver": st.op.solver,
                "n": st.inp.n,
                "size": st.size,
                "digest": st.digest,
                "samples": len(st.times["meter"]),
                "wall_ms": op_med and round(op_med * 1e3, 4),
                "ref_ms": med(st.ref_s) and round(med(st.ref_s) * 1e3, 4),
                "ref_units": med(st.ratios["meter"]),
                "input_accesses": snap.input_accesses,
                "pass_estimate": snap.pass_estimate,
                "charged_peak": snap.charged_peak,
                "primitive_words": snap.primitive_words,
                "failed": st.failed,
                "reason": st.reason,
            }
        )
    return rows


def end_to_end(rows, setup_ratios):
    units = [r["ref_units"] for r in rows if r["ref_units"] is not None]
    return {
        "setup_s": (NOMINAL_REF_S * statistics.median(setup_ratios), "s"),
        "solve_gmean_ref": (math.exp(statistics.fmean(math.log(u) for u in units)), "ref"),
        "solve_total_ref": (sum(units), "ref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "input_accesses": (sum(r["input_accesses"] for r in rows), "count"),
        "pass_estimate": (sum(r["pass_estimate"] for r in rows), "count"),
    }


def per_layer(lib, parsed, inputs, states, tracer, traced_rounds):
    """Per-layer figures of a traced run (see README.md for the mapping)."""
    ms = lambda layer: 1e3 * statistics.median(r.get(layer, 0.0) for r, _ in traced_rounds)
    counts = traced_rounds[0][1]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    tracer.reset()
    tracer.install()
    try:
        for inp in inputs.values():
            getattr(lib, LOADERS[inp.kind])(inp.text)
    finally:
        tracer.uninstall()
    parse_ms = 1e3 * tracer.self_s.get("instances.parse", 0.0)

    layers = [tracing.replay_layers(lib, st.op, parsed[st.op.key]) for st in states]
    layers = [x for x in layers if x is not None] or [(0, 0.0, 0.0, 0)]
    budgets = [tracing.replay_budgets(lib, st.op, parsed[st.op.key]) for st in states]
    dgn_rounds = [tracing.replay_rounds(lib, st.op, parsed[st.op.key]) for st in states]
    # both compare reference-unit medians, which host drift moves far
    # less than raw times; the meter overhead is turned back into ms at
    # the run's median reference time
    ref_s = statistics.median(r for st in states for r in st.ref_s)
    overhead = ref_s * sum(
        med(st.ratios["meter"]) - med(st.ratios["plain"]) for st in states if st.op.metered
    )
    members = counts.get("hashing.members", 0)
    hash_ms = ms("dominating.regular") + ms("hashing.avg_degree_is")
    traced = sum(med(st.ratios["traced"]) for st in states)
    untraced = sum(med(st.ratios["meter"]) for st in states)
    return {
        "instances.parse_ms": (parse_ms, "ms"),
        "instances.text_bytes": (sum(len(i.text.encode()) for i in inputs.values()), "bytes"),
        "exact.degeneracy_ms": (ms("exact.degeneracy"), "ms"),
        "exact.structure_ms": (ms("exact.structure"), "ms"),
        "meter.overhead_ms": (1e3 * overhead, "ms"),
        "meter.access_calls": (sum(st.meter.access_calls for st in states), "count"),
        "meter.alloc_calls": (sum(st.meter.alloc_calls for st in states), "count"),
        "meter.charged_peak_words": (sum(st.meter.charged_peak for st in states), "words"),
        "meter.primitive_words": (sum(st.meter.primitive_words for st in states), "words"),
        "layers.depth": (sum(x[0] for x in layers), "count"),
        "layers.first_stage_ms": (1e3 * sum(x[1] for x in layers), "ms"),
        "layers.deepest_stage_ms": (1e3 * sum(x[2] for x in layers), "ms"),
        "layers.deepest_stage_accesses": (sum(x[3] for x in layers), "count"),
        "layered.bd_vc_ms": (ms("layered.bd_vc"), "ms"),
        "layered.bd_mis_ms": (ms("layered.bd_mis"), "ms"),
        "layered.bmhs_ms": (ms("layered.bmhs"), "ms"),
        "treefunc.tree_ms": (ms("treefunc.tree"), "ms"),
        "treefunc.functional_ms": (ms("treefunc.functional"), "ms"),
        "kernels.retention_ms": (ms("kernels.retention"), "ms"),
        "kernels.retained_sets": (counts.get("kernels.retained_sets", 0), "count"),
        "kernels.buss_ms": (ms("kernels.buss"), "ms"),
        "staggered.pattern_enum_ms": (ms("staggered.pattern_enum"), "ms"),
        "staggered.pattern_sets": (counts.get("staggered.pattern_sets", 0), "count"),
        "staggered.budgets_tried": (sum(b for b in budgets if b is not None), "count"),
        "staggered.bounded_k_ms": (ms("staggered.bounded_k"), "ms"),
        "dominating.dgn_ms": (ms("dominating.dgn"), "ms"),
        "dominating.rounds": (sum(r for r in dgn_rounds if r is not None), "count"),
        "dominating.regular_ms": (ms("dominating.regular"), "ms"),
        "hashing.avg_degree_is_ms": (ms("hashing.avg_degree_is"), "ms"),
        "hashing.members": (members, "count"),
        "hashing.member_us": (1e3 * hash_ms / members if members else 0.0, "us"),
        "trace.overhead_pct": (100 * (traced / untraced - 1), "%"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "romapprox" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs, ops = workloads.WORKLOADS[args.workload](args.seed)

    before = time_reference()
    elapsed, lib, parsed = setup(inputs)
    setup_times = [elapsed]
    setup_ratios = [2 * elapsed / (before + time_reference())]
    states = [OpState(op, inputs[op.key]) for op in ops]
    meter_cls = tracing.counting_meter(lib) if args.trace else lib.WorkspaceMeter
    warm_up(lib, parsed, states, meter_cls)
    gc.collect()
    gc.freeze()  # the instances live all run: keep collections from rescanning them

    tracer = tracing.Tracer()
    traced_rounds = []
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        timed_round(lib, parsed, states)
        rounds += 1
        # set-up samples spread over the run, not bunched at its start
        spent = 0.0
        while spent < SETUP_SECONDS_PER_ROUND:
            before = time_reference()
            setup_times.append(timed_setup(inputs))
            setup_ratios.append(2 * setup_times[-1] / (before + time_reference()))
            spent += setup_times[-1]
        if args.trace:
            timed_round(lib, parsed, states, kind="plain")
            tracer.reset()
            tracer.install()
            try:
                timed_round(lib, parsed, states, kind="traced")
            finally:
                tracer.uninstall()
            traced_rounds.append((dict(tracer.self_s), dict(tracer.counts)))
        if time.perf_counter() >= deadline:
            break

    rows = per_op_rows(states)
    if args.trace:
        metrics = per_layer(lib, parsed, inputs, states, tracer, traced_rounds)
    else:
        metrics = end_to_end(rows, setup_ratios)
    attempted = len(states) * (1 + rounds * (3 if args.trace else 1))
    failed = sum(st.failed for st in states)

    for r in rows:
        print(
            f"{r['op']:30s} {r['wall_ms'] or 0:10.3f} ms {r['ref_units'] or 0:10.3f} ref"
            f" {r['input_accesses']:>10} acc {r['samples']:>3}x {r['digest']}"
            + (f"  FAILED: {r['reason']}" if r["failed"] else "")
        )
    result = {
        "correct": not any(st.wrong for st in states),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}.json"
    out.write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "rounds": rounds, "setup_raw_s": setup_times,
             **result, "ops": rows},
            indent=1,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


sys.path.insert(0, str(HERE))
import refloop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
