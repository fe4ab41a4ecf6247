"""Mutation catalogue: each entry breaks one spot of the library, and the
not-slow suite must notice.

Run from anywhere, with the standard library and pytest only:

    python tests/mutants.py

Each entry is (file, exact old text, new text, reason).  It is applied to
a fresh temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``,
where ``python -m pytest -q -x -m "not slow" -p no:cacheprovider`` runs
with that copy's ``src`` first on the path, leaving out
``test_mutants.py`` (the push-time check that each old text occurs
once); one run at a time.  Each line reports the verdict, the seconds
the run took and the first test that failed.  The script exits 1 when a
mutant survives (the suite passes), no longer applies (its old text does
not occur exactly once in its file) or stops pytest other than by a
failing test.  pytest does not collect this file: its name does not
start with ``test_``.

Left out as equivalent mutants: ``>=`` -> ``>`` against ``theta - SLOP``
in a fast peeling round and ``>`` -> ``>=`` against ``kappa + SLOP`` in
``staggered.py``.  Each
compares a count, an integer, with a bar set 1e-9 off the power it
guards, and an integer never equals a value 1e-9 away from an integer,
so the two operators give the same answers.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# test_mutants.py reads the mutated copy and would kill every mutant itself
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow", "-p", "no:cacheprovider",
    "--ignore=tests/test_mutants.py",
]

LAYERED = "src/romapprox/layered.py"
LAYERS = "src/romapprox/layers.py"
STAGGERED = "src/romapprox/staggered.py"
KERNELS = "src/romapprox/kernels.py"
TREEFUNC = "src/romapprox/treefunc.py"
HASHING = "src/romapprox/hashing.py"
INSTANCES = "src/romapprox/instances.py"

MUTANTS = [
    (
        LAYERED,
        "level.view.meter.access(level.n if i == 1 else reads)",
        "pass",
        "fast cover and independent stages stop charging the rank-i words they read",
    ),
    (
        LAYERED,
        "meter.access(read)",
        "pass",
        "fast independent stages stop charging the adjacency words they read",
    ),
    (
        STAGGERED,
        "bar = self.theta - SLOP",
        "bar = self.theta + SLOP",
        "a fast peeling round spares elements whose live-set count is exactly theta",
    ),
    (
        STAGGERED,
        "live_sets_reach(e, self.theta - SLOP)",
        "live_sets_reach(e, self.theta + SLOP)",
        "an audited peeling round spares elements whose live-set count is exactly theta",
    ),
    (
        LAYERS,
        "count + left < bar:",
        "count + left + 1 < bar:",
        "an audited live-set count gives up one set later than the sets left allow",
    ),
    (
        STAGGERED,
        "(self.d - 1) / self.eps - SLOP",
        "(self.d - 1) / self.eps + SLOP",
        "an integral (d-1)/eps gets one peeling round too many",
    ),
    (
        STAGGERED,
        "f.n ** (1 - eps) - SLOP",
        "f.n ** (1 - eps) + SLOP",
        "hs_eps_approx tries one budget past ceil(n^(1-eps)) when that is integral",
    ),
    (
        STAGGERED,
        "2 <= len(b) <= f.d - 1",
        "3 <= len(b) <= f.d - 1",
        "two-element discard witnesses stay out of the peeled kernel",
    ),
    (
        STAGGERED,
        "2 <= len(b) <= f.d - 1",
        "2 <= len(b) <= f.d - 2",
        "(d-1)-element discard witnesses stay out of the peeled kernel",
    ),
    (
        KERNELS,
        "room[b] <= 0",
        "room[b] < 0",
        "the retention rule keeps one set past each subset's ceiling",
    ),
    (
        KERNELS,
        "j > len(rows)",
        "j >= len(rows)",
        "a retention table builds a reached set's row again, shifting every later row",
    ),
    (
        LAYERED,
        "if not view._live(i, v, i - 1):\n            return False",
        "if not view._live(i, v, i - 1):\n            pass",
        "an audited hitting stage's inner query walks on past its vertex's death stage",
    ),
    (
        LAYERED,
        "level.ith_set_of(e, self.i) == j",
        "level.ith_set_of(e, 1) == j",
        "every hitting stage takes the rank-1 sets",
    ),
    (
        LAYERS,
        "members = view.base.set_elements(j, view.meter)",
        "members = view.base.set_elements(j)",
        "set liveness stops charging the set's words",
    ),
    (
        LAYERS,
        "        for e in members:\n"
        "            if not live(i, e):\n"
        "                return None\n"
        "        return members\n",
        "        verdicts = [live(i, e) for e in members]\n"
        "        return members if all(verdicts) else None\n",
        "set liveness asks every element, past the first dead one",
    ),
    (
        STAGGERED,
        "cap = schedule.kappa(k, j) + SLOP",
        "cap = schedule.kappa(k, j) - SLOP",
        "a peeling round with exactly kappa survivors answers None",
    ),
    (
        STAGGERED,
        "f.n ** (1 / f.d) - SLOP",
        "f.n ** (1 / f.d) + SLOP",
        "hs_sqrt_approx tries budget n^(1/d) when that is integral",
    ),
    (
        TREEFUNC,
        "size_u <= size_w",
        "size_u < size_w",
        "a metered cycle vertex takes the successor's ban on a tie, not the minimum id's",
    ),
    (
        HASHING,
        "score < best[0]",
        "score <= best[0]",
        "a hash sweep tie goes to the last best member, not the smallest (a, b)",
    ),
    (
        INSTANCES,
        "meter.access()\n        return len(self._adj[v])",
        "pass\n        return len(self._adj[v])",
        "a metered degree query reads its word uncharged",
    ),
    (
        INSTANCES,
        "meter.access(len(self._adj[v]))",
        "pass",
        "a metered adjacency list is read uncharged",
    ),
    (
        INSTANCES,
        "meter.access(len(self._out[v]))",
        "pass",
        "a metered out-neighbour list is read uncharged",
    ),
    (
        INSTANCES,
        "meter.access(len(self._in[v]))",
        "pass",
        "a metered in-neighbour list is read uncharged",
    ),
    (
        INSTANCES,
        "meter.access(len(self.sets[j - 1]))",
        "pass",
        "a metered set is read uncharged",
    ),
    (
        INSTANCES,
        "meter.access(len(self._containing[e]))",
        "pass",
        "a metered list of an element's sets is read uncharged",
    ),
    (
        INSTANCES,
        "meter.access()\n        c = self._containing[e]",
        "pass\n        c = self._containing[e]",
        "a metered rank-i set query reads its word uncharged",
    ),
    (
        HASHING,
        "meter.charge_primitive()",
        "pass",
        "the prime search stops charging its trial divisions",
    ),
    (
        HASHING,
        "meter.tick_pass(self.p)",
        "pass",
        "a hash sweep stops counting a pass per member",
    ),
    (
        HASHING,
        "meter.access(sum(reads))",
        "pass",
        "a hash sweep stops charging the words its members read",
    ),
    (
        LAYERED,
        "view.meter.access()\n        around = view.base.neighbors(v)",
        "pass\n        around = view.base.neighbors(v)",
        "a stage subgraph's out query stops charging the rank-i word it reads",
    ),
    (
        LAYERED,
        "meter.access(2)",
        "pass",
        "a stage subgraph's children query stops charging a neighbour's two words",
    ),
    (
        LAYERED,
        "meter.access()\n                if w < v and live(depth, w)",
        "pass\n                if w < v and live(depth, w)",
        "an audited independent stage stops charging the neighbours it reads",
    ),
    (
        LAYERED,
        "view.meter.tick_pass()\n        if view.memoized:",
        "pass\n        if view.memoized:",
        "bd_maximal_is stops counting a pass per stage",
    ),
    (
        LAYERS,
        "meter.access()\n            if live(i, w):",
        "pass\n            if live(i, w):",
        "a graph level stops charging the neighbours whose liveness it asks",
    ),
    (
        LAYERS,
        "view.meter.tick_pass()\n    ids = range(",
        "pass\n    ids = range(",
        "enumerate_stage stops counting its pass",
    ),
    (
        TREEFUNC,
        "meter.charge_primitive(steps)",
        "pass",
        "a metered tour run stops charging its steps",
    ),
    (
        TREEFUNC,
        "meter.access(probes)",
        "pass",
        "a metered tour run stops charging its probes",
    ),
    (
        TREEFUNC,
        "meter.tick_pass()\n    meter.alloc(words)",
        "pass\n    meter.alloc(words)",
        "a tree or functional output stream stops counting its pass",
    ),
]


def first_failure(output):
    """The first ``FAILED``/``ERROR`` test id of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "?"


def run(path, old, new):
    """(verdict, seconds, detail) of one mutant."""
    text = (ROOT / path).read_text()
    found = text.count(old)
    if found != 1:
        return "no longer applies", 0.0, f"old text occurs {found} times"
    with tempfile.TemporaryDirectory(prefix="romapprox-mutant-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, copy / name, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy(source, copy / name)
        (copy / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode == 1:
        return "killed", seconds, first_failure(done.stdout)
    if done.returncode == 0:
        return "survived", seconds, "every not-slow test passed"
    return "pytest error", seconds, f"exit code {done.returncode}"


def main():
    bad = 0
    for path, old, new, reason in MUTANTS:
        verdict, seconds, detail = run(path, old, new)
        bad += verdict != "killed"
        print(f"{verdict:>17}  {seconds:5.1f} s  {Path(path).name}: {reason}; {detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
