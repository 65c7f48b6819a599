import ast
import dataclasses
import json

import edgering.analysis
import edgering.cli
import edgering.ehrhart
import edgering.matching
from edgering.analysis import CSV_HEADER
from edgering.cli import main
from edgering.ehrhart import BudgetExceededError
from edgering.enumeration import MAX_N
from edgering.graphs import render_graph, two_triangles_path
from edgering.polytope import InvariantViolationError


def test_analyze_family_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--family", "complete(4)", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mat"] == 2
    assert payload["reg"] == 2
    assert payload["theorem"]["verdict"] == "holds"


def test_analyze_file_input(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(path), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["graph"]["bipartite"] is True
    assert payload["h_star"] == [1, 1]


def test_analyze_toric(tmp_path):
    path = tmp_path / "tt.txt"
    path.write_text(render_graph(two_triangles_path(2)))
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(path), "--toric", "--qmax", "6",
                 "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["normal"] is False
    assert payload["reg"] == 4
    assert payload["generator_profile"]["degrees"] == [5]
    assert payload["generator_profile"]["complete_up_to"] == 6


def test_analyze_errors(tmp_path, capsys):
    assert main(["analyze", "--family", "complete(4"]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1\n")
    assert main(["analyze", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_analyze_huge_vertex_count_without_edges(tmp_path, capsys):
    # refused as not connected before anything per vertex is allocated
    path = tmp_path / "huge.txt"
    path.write_text("1000000 0\n")
    assert main(["analyze", "--input", str(path)]) == 1
    assert "connected" in capsys.readouterr().err


def test_invariant_violation_has_its_own_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantViolationError("cross-check failed")

    monkeypatch.setattr(edgering.cli, "analyze", broken)
    assert main(["analyze", "--family", "complete(3)"]) == 3
    assert "internal error: cross-check failed" in capsys.readouterr().err


def test_exhausted_budget_has_its_own_exit_code(monkeypatch, capsys):
    # a BudgetExceededError is a RuntimeError, but not an operational error
    def over_budget(g):
        raise BudgetExceededError("interior search over budget")

    monkeypatch.setattr(edgering.ehrhart, "min_interior_q", over_budget)
    assert main(["analyze", "--family", "complete(3)"]) == 4
    assert "budget exceeded: interior search over budget" in capsys.readouterr().err


def test_edge_cover_invariant_has_the_bug_exit_code(monkeypatch, capsys):
    real = edgering.matching.EdgeCover
    monkeypatch.setattr(
        edgering.matching, "EdgeCover", lambda edges: real(frozenset(sorted(edges)[1:]))
    )
    assert main(["analyze", "--family", "path(4)"]) == 3
    assert "internal error: cover construction" in capsys.readouterr().err


def test_verify_theorem_cli(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify-theorem", "--nmax", "4", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["violations"] == []
    assert payload["connected_graphs_checked"] == 9
    assert payload["normal_graphs_verified"] == 9
    assert "0 violation(s)" in capsys.readouterr().out


def test_families_cli(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["families", "--rmax", "2", "--lmax", "1", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert all(line.endswith("match") for line in lines[1:])
    err = capsys.readouterr().err
    assert "unverified edge case" in err


def test_q5_cli(tmp_path, capsys):
    out = tmp_path / "q5.csv"
    assert main(["q5", "--m", "1", "--nmax", "4", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_max_reg"] == 0
    assert payload["scope"] == "empirical, bounded scope"
    assert "rows" not in payload


def test_toric_degree_bound_below_2_is_refused(capsys):
    # q5 refuses --qmax below 2 as analyze --toric does, instead of running
    # the survey at 2
    for qmax in ("1", "0", "-3"):
        assert main(["q5", "--m", "2", "--nmax", "5", "--qmax", qmax]) == 1, qmax
        assert main(["analyze", "--family", "cycle(4)", "--toric", "--qmax", qmax]) == 1, qmax
        out, err = capsys.readouterr()
        assert out == "" and err.count("error: q_max must be >= 2") == 2, qmax


def test_vertex_limit_exits_with_error(capsys):
    nmax = str(MAX_N + 1)
    assert main(["verify-theorem", "--nmax", nmax]) == 1
    assert main(["q5", "--m", "1", "--nmax", nmax]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: n_max must be between 2 and {MAX_N}") == 2


def test_subcommand_required():
    assert main([]) == 1


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # argparse's own status for a usage error is 2, the violation status
    assert main(["verify-theorem"]) == 1
    assert main(["verify-theorem", "--nmax", "x"]) == 1
    assert main(["analyze", "--bogus"]) == 1
    assert "usage:" in capsys.readouterr().err
    # --qmax bounds only the toric analysis, which would silently ignore it
    assert main(["analyze", "--family", "two_triangles_path(2)", "--qmax", "6"]) == 1
    assert "--toric" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_families_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    real = edgering.analysis.analyze

    def off_by_one(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, reg=report.reg + 1)

    monkeypatch.setattr(edgering.analysis, "analyze", off_by_one)
    out = tmp_path / "rows.csv"
    assert main(["families", "--rmax", "2", "--lmax", "1", "--csv", str(out)]) == 2
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 7
    assert all(row.endswith(",mismatch") for row in rows)
    err = capsys.readouterr().err.splitlines()
    mismatches = [ast.literal_eval(line.removeprefix("mismatch: "))
                  for line in err if line.startswith("mismatch: ")]
    assert len(mismatches) == len(rows)
    keys = ["family", "params", "d", "edge_count", "mat", "mu", "normal", "dim", "reg",
            "expected_reg", "expected_mat", "match"]
    for row in mismatches:
        assert list(row) == keys
        assert row["match"] is False
        assert row["reg"] == row["expected_reg"] + 1
