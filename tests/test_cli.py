import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from romapprox import exact
from romapprox.cli import SOLVERS, main
from romapprox.instances import load_digraph, load_graph

TRI = "p 3 3\ne 1 2\ne 2 3\ne 1 3\n"
FAM = "h 4 3 2\ns 1 2\ns 2 3\ns 3 4\n"
C6 = "p 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
TREE6 = "p 6 5\ne 1 2\ne 2 3\ne 3 4\ne 3 5\ne 5 6\n"
# C4-free and 2-degenerate, with triangles, P4s and a 5-cycle
MIX = "p 7 9\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 4 5\ne 5 6\ne 6 7\ne 4 6\ne 2 7\n"
FAM4 = "h 5 4 3\ns 1 2\ns 2 3 4\ns 3 5\ns 1 5\n"
FUNC = "q 6 5\na 1 2\na 2 3\na 3 1\na 4 1\na 5 4\n"
TOUR = "q 4 6\na 1 2\na 2 3\na 3 1\na 1 4\na 2 4\na 4 3\n"

REPORT_KEYS = {
    "algorithm", "params", "audited", "solution", "size", "valid", "meter",
    "runtime_ms",
}
METER_KEYS = {
    "charged_peak_words", "primitive_words", "input_accesses", "pass_estimate",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_compare_exact(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, out = run(
        capsys, "solve", "--problem", "vc", "--algorithm", "bounded-degree",
        "--input", path, "--compare-exact",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == REPORT_KEYS | {"opt", "ratio"}
    assert set(report["meter"]) == METER_KEYS
    assert report["valid"] is True
    assert report["size"] == 2
    assert report["opt"] == 2
    assert report["ratio"] == 1.0


def test_solve_report_keys_without_compare(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, out = run(
        capsys, "solve", "--problem", "vc", "--algorithm", "bounded-degree",
        "--input", path,
    )
    assert code == 0
    assert set(json.loads(out)) == REPORT_KEYS


def test_solve_no_verdict(tmp_path, capsys):
    path = write(tmp_path, "fam.hg", FAM)
    code, out = run(
        capsys, "solve", "--problem", "hs", "--algorithm", "staggered",
        "--epsilon", "1.0", "--k", "0", "--input", path,
    )
    assert code == 2
    report = json.loads(out)
    assert set(report) == {"algorithm", "params", "audited", "verdict"}
    assert report["verdict"] == "NO"


def test_solve_c4free_ds_with_budget(tmp_path, capsys):
    star = write(tmp_path, "star.gr", "p 6 5\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 1 6\n")
    code, out = run(
        capsys, "solve", "--problem", "ds", "--algorithm", "c4free",
        "--k", "1", "--input", star,
    )
    assert code == 0
    assert json.loads(out)["solution"] == [1]
    path3 = write(tmp_path, "path3.gr", "p 3 2\ne 1 2\ne 2 3\n")
    code, out = run(
        capsys, "solve", "--problem", "ds", "--algorithm", "c4free",
        "--k", "0", "--input", path3,
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "NO"


def test_solve_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c6.gr", C6)
    argv = (
        "solve", "--problem", "ds", "--algorithm", "regular", "--d", "2",
        "--input", path, "--compare-exact",
    )
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "runtime_ms"}
    a, b = strip(first), strip(second)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["solution"] == [1, 3, 4, 6]
    assert a["opt"] == 2


def test_solve_usage_errors(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, _ = run(
        capsys, "solve", "--problem", "vc", "--algorithm", "avg-degree",
        "--input", path,
    )
    assert code == 1
    code, _ = run(
        capsys, "solve", "--problem", "hs", "--algorithm", "staggered",
        "--input", write(tmp_path, "fam.hg", FAM),
    )
    assert code == 1
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "nope", "--algorithm", "tree", "--input", path])
    assert info.value.code == 1
    # an unrecognised argument exits 1 too, not the NO verdict's 2
    with pytest.raises(SystemExit) as info:
        main([
            "solve", "--problem", "hs", "--algorithm", "multiplicity",
            "--input", write(tmp_path, "fam.hg", FAM), "--delta", "1",
        ])
    assert info.value.code == 1
    assert "unrecognized arguments: --delta 1" in capsys.readouterr().err


def test_solve_check_structure(tmp_path, capsys):
    c4 = write(tmp_path, "c4.gr", "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    code, _ = run(
        capsys, "solve", "--problem", "ds", "--algorithm", "c4free",
        "--input", c4, "--check-structure",
    )
    assert code == 1
    code, out = run(
        capsys, "solve", "--problem", "ds", "--algorithm", "c4free",
        "--input", write(tmp_path, "c6.gr", C6), "--check-structure",
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_solve_space_audit_same_solution(tmp_path, capsys):
    path = write(tmp_path, "c6.gr", C6)
    base = (
        "solve", "--problem", "vc", "--algorithm", "bounded-degree",
        "--input", path,
    )
    _, plain = run(capsys, *base)
    _, audited = run(capsys, *base, "--space-audit")
    assert json.loads(plain)["solution"] == json.loads(audited)["solution"]


def test_solve_functional_exact(tmp_path, capsys):
    code, out = run(capsys, "gen", "functional", "--n", "9", "--seed", "4")
    assert code == 0
    path = write(tmp_path, "f.dg", out)
    code, out = run(
        capsys, "solve", "--problem", "vc", "--algorithm", "functional",
        "--input", path, "--compare-exact",
    )
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["ratio"] == 1.0


def test_solve_text_format(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, out = run(
        capsys, "solve", "--problem", "vc", "--algorithm", "bounded-degree",
        "--input", path, "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert "size: 2" in lines
    assert "valid: true" in lines


def test_kernel_cmd(tmp_path, capsys):
    star = write(tmp_path, "star.gr", "p 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    code, out = run(capsys, "kernel", "--problem", "vc", "--k", "1", "--input", star)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "KERNEL"
    assert report["vertices"] == [1]
    fam = write(tmp_path, "fam.hg", FAM)
    code, out = run(capsys, "kernel", "--problem", "hs", "--k", "1", "--input", fam)
    assert code == 0
    report = json.loads(out)
    assert report["kernel"]["sets"] == [[1, 2], [2, 3], [3, 4]]
    code, out = run(capsys, "kernel", "--problem", "hs", "--k", "0", "--input", fam)
    assert code == 2
    assert json.loads(out)["verdict"] == "NO"


def test_exact_cmd(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, out = run(capsys, "exact", "--problem", "vc", "--input", path)
    assert code == 0
    report = json.loads(out)
    assert report["opt"] == 2
    assert report["solution"] == [1, 2]
    big = write(tmp_path, "big.gr", "p 17 0\n")
    code, _ = run(capsys, "exact", "--problem", "vc", "--input", big)
    assert code == 1


def test_validate_cmd(tmp_path, capsys):
    path = write(tmp_path, "tri.gr", TRI)
    code, out = run(
        capsys, "validate", "--problem", "vc", "--candidate", "1", "--input", path
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witness"] == ["uncovered-edge", [2, 3]]
    code, out = run(
        capsys, "validate", "--problem", "vc", "--candidate", "1,2", "--input", path
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, _ = run(capsys, "validate", "--problem", "vc", "--input", path)
    assert code == 1


def test_gen_deterministic_and_valid(capsys):
    checks = [
        (["gen", "tree", "--n", "10", "--seed", "1"], "tree", None, load_graph),
        (["gen", "c4free", "--n", "9", "--seed", "2"], "c4free", None, load_graph),
        (["gen", "degenerate", "--n", "10", "--d", "2", "--seed", "3"],
         "degenerate", 2, load_graph),
        (["gen", "regular", "--n", "8", "--d", "3", "--seed", "7"],
         "regular", 3, load_graph),
        (["gen", "regular", "--n", "64", "--d", "6", "--seed", "0"],
         "regular", 6, load_graph),
        (["gen", "tournament", "--n", "6", "--seed", "4"], "tournament", None,
         load_digraph),
        (["gen", "functional", "--n", "8", "--seed", "5"], "functional", None,
         load_digraph),
    ]
    for argv, kind, parameter, loader in checks:
        code, first = run(capsys, *argv)
        assert code == 0
        code, second = run(capsys, *argv)
        assert first == second
        ok, witness = exact.validate(kind, loader(first), parameter=parameter)
        assert ok, (kind, witness)


def test_gen_infeasible(capsys):
    code, _ = run(capsys, "gen", "regular", "--n", "7", "--d", "3")
    assert code == 1
    code, _ = run(capsys, "gen", "regular", "--n", "4", "--d", "4")
    assert code == 1
    code, _ = run(capsys, "gen", "degenerate", "--n", "5")
    assert code == 1


def test_bench_cmd(capsys):
    code, out = run(
        capsys, "bench", "--problem", "vc", "--algorithm", "bounded-degree",
        "--kind", "regular", "--n", "12", "--d", "3", "--runs", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["runs"]) == 3
    assert all(row["valid"] for row in report["runs"])
    assert report["aggregate"]["no_verdicts"] == 0
    assert report["aggregate"]["mean_size"] > 0
    code, _ = run(
        capsys, "bench", "--problem", "hs", "--algorithm", "sqrt",
        "--kind", "tree", "--n", "5",
    )
    assert code == 1
    code, _ = run(
        capsys, "bench", "--problem", "vc", "--algorithm", "tree",
        "--kind", "tournament", "--n", "5",
    )
    assert code == 1


def test_bench_rejects_runs_below_one(capsys):
    for runs in ("0", "-2"):
        code = main([
            "bench", "--problem", "vc", "--algorithm", "bounded-degree",
            "--kind", "regular", "--n", "6", "--d", "2", "--runs", runs,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --runs must be at least 1, got {runs}\n"


def test_bench_generator_d_is_not_a_degree_bound(capsys):
    # --d shapes the generated graph; the layered solvers read the max
    # degree off each generated instance.
    for problem, algorithm, kind, n, d, runs in (
        ("vc", "bounded-degree", "degenerate", "64", "2", 2),
        ("is", "maximal", "c4free", "20", "3", 1),
    ):
        code, out = run(
            capsys, "bench", "--problem", problem, "--algorithm", algorithm,
            "--kind", kind, "--n", n, "--d", d, "--runs", str(runs),
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["runs"]) == runs
        assert all(row["valid"] for row in report["runs"])


def test_bench_usage_error_order(capsys):
    # unknown pair, then the family refusal, then the generator kind,
    # then missing flags
    cases = [
        (("vc", "sqrt", "tree"), "no algorithm 'sqrt' for problem 'vc'"),
        (("hs", "staggered", "tournament"), "no generator produces set families"),
        (("ds", "regular", "tournament"), "generator kind 'tournament' does not"),
        (("ds", "regular", "tree"), "ds/regular requires --d"),
    ]
    for (problem, algorithm, kind), message in cases:
        code = main([
            "bench", "--problem", problem, "--algorithm", algorithm,
            "--kind", kind, "--n", "5",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_module_entry_point_exit_codes(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    tri = write(tmp_path, "tri.gr", TRI)
    fam = write(tmp_path, "fam.hg", FAM)
    bad = write(tmp_path, "bad.gr", "p 3 1\nx 1 2\n")
    cases = [
        (["solve", "--problem", "vc", "--algorithm", "bounded-degree",
          "--input", tri], 0),
        (["solve", "--problem", "hs", "--algorithm", "staggered",
          "--epsilon", "1.0", "--k", "0", "--input", fam], 2),
        (["solve", "--problem", "vc"], 1),
        (["solve", "--problem", "vc", "--algorithm", "bounded-degree",
          "--input", bad], 1),
    ]
    for argv, expected in cases:
        done = subprocess.run(
            [sys.executable, "-m", "romapprox", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert done.returncode == expected, (argv, done.stderr)


def test_parse_error_exit(tmp_path, capsys):
    bad = write(tmp_path, "bad.gr", "p 3 1\nx 1 2\n")
    code, _ = run(capsys, "solve", "--problem", "vc", "--algorithm",
                  "bounded-degree", "--input", bad)
    assert code == 1


# (problem, algorithm) -> (input, flags, size, opt, ratio); every row is
# run with --compare-exact and --check-structure and must be valid.
PER_SOLVER = {
    ("vc", "tree"): (TREE6, (), 3, 3, 1.0),
    ("is", "tree"): (TREE6, (), 3, 3, 1.0),
    ("vc", "functional"): (FUNC, (), 3, 3, 1.0),
    ("is", "functional"): (FUNC, (), 3, 3, 1.0),
    ("vc", "bounded-degree"): (MIX, (), 4, 4, 1.0),
    ("is", "maximal"): (MIX, (), 3, 3, 1.0),
    ("is", "avg-degree"): (MIX, (), 3, 3, 1.0),
    ("hs", "multiplicity"): (FAM4, (), 4, 2, 2.0),
    ("hs", "staggered"): (FAM4, ("--epsilon", "0.5"), 4, 2, 2.0),
    ("hs", "sqrt"): (FAM4, (), 5, 2, 2.5),
    ("ds", "c4free"): (MIX, (), 7, 2, 3.5),
    ("ds", "degenerate"): (MIX, ("--d", "2"), 7, 2, 3.5),
    ("ds", "regular"): (C6, ("--d", "2"), 4, 2, 2.0),
    ("vc", "staggered"): (MIX, ("--epsilon", "1.0"), 7, 4, 1.75),
    ("triangle-vd", "staggered"): (MIX, ("--epsilon", "1.0"), 6, 2, 3.0),
    ("cluster-vd", "staggered"): (MIX, ("--epsilon", "1.0"), 7, 2, 3.5),
    ("cograph-vd", "staggered"): (MIX, ("--epsilon", "1.0"), 7, 2, 3.5),
    ("threshold-vd", "staggered"): (MIX, ("--epsilon", "1.0"), 7, 2, 3.5),
    ("split-vd", "staggered"): (MIX, ("--epsilon", "1.0"), 7, 2, 3.5),
    ("tournament-fvs", "staggered"): (TOUR, ("--epsilon", "1.0"), 4, 1, 4.0),
}


def test_per_solver_table_covers_every_pair():
    assert set(PER_SOLVER) == set(SOLVERS)


@pytest.mark.parametrize("pair", sorted(PER_SOLVER), ids="/".join)
def test_solve_every_pair_compare_exact(tmp_path, capsys, pair):
    text, flags, size, opt, ratio = PER_SOLVER[pair]
    code, out = run(
        capsys, "solve", "--problem", pair[0], "--algorithm", pair[1],
        "--input", write(tmp_path, "in.txt", text), *flags,
        "--compare-exact", "--check-structure",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["valid"], report["size"], report["opt"], report["ratio"]) == (
        True, size, opt, ratio,
    )


# Algorithms whose --space-audit selects an audited mode: the layered
# and staggered routes and the metered tree and functional walks.
AUDITED_ALGORITHMS = {
    "tree", "functional", "bounded-degree", "maximal", "multiplicity", "staggered",
}


@pytest.mark.parametrize("pair", sorted(PER_SOLVER), ids="/".join)
def test_solve_reports_whether_it_ran_audited(tmp_path, capsys, pair):
    text, flags = PER_SOLVER[pair][:2]
    base = (
        "solve", "--problem", pair[0], "--algorithm", pair[1],
        "--input", write(tmp_path, "in.txt", text), *flags,
    )
    _, plain = run(capsys, *base)
    _, audit = run(capsys, *base, "--space-audit")
    plain, audit = json.loads(plain), json.loads(audit)
    assert plain["audited"] is False
    assert audit["audited"] is (pair[1] in AUDITED_ALGORITHMS)
    assert audit["solution"] == plain["solution"]


def test_bench_reports_whether_it_ran_audited(capsys):
    for algorithm, flags, audited in (
        ("bounded-degree", (), False),
        ("bounded-degree", ("--space-audit",), True),
        ("degenerate", ("--space-audit",), False),
    ):
        problem = "ds" if algorithm == "degenerate" else "vc"
        code, out = run(
            capsys, "bench", "--problem", problem, "--algorithm", algorithm,
            "--kind", "regular", "--n", "8", "--d", "3", "--runs", "1", *flags,
        )
        assert code == 0
        assert json.loads(out)["audited"] is audited


@pytest.mark.parametrize(
    "problem, algorithm, text, flags, kind",
    [
        ("vc", "tree", C6, (), "tree"),
        ("is", "functional", TOUR, (), "functional"),
        ("ds", "c4free", C4, (), "c4free"),
        ("ds", "degenerate", MIX, ("--d", "1"), "degenerate"),
        ("ds", "regular", TREE6, ("--d", "2"), "regular"),
        ("tournament-fvs", "staggered", FUNC, ("--epsilon", "1.0"), "tournament"),
    ],
)
def test_check_structure_rejects_wrong_class(
    tmp_path, capsys, problem, algorithm, text, flags, kind
):
    code = main([
        "solve", "--problem", problem, "--algorithm", algorithm,
        "--input", write(tmp_path, "in.txt", text), *flags, "--check-structure",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: input is not {kind}: witness ")


def test_check_structure_skips_degenerate_without_d(tmp_path, capsys):
    # MIX is 2-degenerate, not 1-degenerate: the check runs only with --d
    path = write(tmp_path, "in.txt", MIX)
    argv = ("solve", "--problem", "ds", "--algorithm", "degenerate",
            "--input", path, "--check-structure")
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, _ = run(capsys, *argv, "--d", "1")
    assert code == 1


@pytest.mark.parametrize("mode", [(), ("--space-audit",)])
def test_degenerate_understated_d_hits_round_limit(tmp_path, capsys, mode):
    # K5 is 4-degenerate; with --d 1 the peeling never empties w_h and
    # must stop at the round cap instead of looping
    k5 = "p 5 10\n" + "".join(
        f"e {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)
    )
    code = main([
        "solve", "--problem", "ds", "--algorithm", "degenerate", "--d", "1",
        "--input", write(tmp_path, "k5.gr", k5), *mode,
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "denser than 1-degenerate" in captured.err
