import json
import math
import os
import subprocess
import sys
import time

import pytest

import pstlab
from pstlab import cli, gapcert, scan
from pstlab.cli import main
from pstlab.gapcert import GapError
from pstlab.pst import PstError
from pstlab.spectra import SpectraError


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("3\n0 1\n1 2\n")
    return str(f)


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    return str(f)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decide_pst_exit_codes(capsys, p3_file, p4_file):
    code, payload = run_json(capsys, ["decide-pst", p3_file, "0", "2"])
    assert code == 0
    assert payload["result"] == "PST"
    assert payload["t_min"] == pytest.approx(math.pi / math.sqrt(2), rel=1e-10)
    assert payload["t_min_symbolic"] == "pi/(1*sqrt(2))"

    code, payload = run_json(capsys, ["decide-pst", p4_file, "0", "3"])
    assert code == 1
    assert payload["result"] == "NO_PST"
    assert payload["failing_condition"] == "ratio_condition_b"


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n$$$\n")
    assert main(["decide-pst", str(bad), "0", "1"]) == 2
    assert main(["decide-pst", str(tmp_path / "missing.txt"), "0", "1"]) == 2


def test_vertex_range_exit_3(capsys, p3_file):
    assert main(["decide-pst", p3_file, "0", "9"]) == 3


@pytest.mark.parametrize("command", ["analyze", "decide-pst", "bound", "bridge-check"])
def test_same_vertex_pair_exit_3(capsys, p3_file, command):
    assert main([command, p3_file, "1", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_accepts_same_vertex(capsys, p3_file):
    assert main(["simulate", p3_file, "1", "1", "--t-max", "1", "--steps", "5"]) == 0
    assert capsys.readouterr().out.startswith("t,fidelity\n0,1\n")


@pytest.mark.parametrize(
    "options",
    [
        ["--steps", "1"],
        ["--t-max", "-5", "--steps", "100"],
        ["--t-max", "inf"],
        ["--t-max", "nan"],
    ],
    ids=["one-step", "negative-t-max", "infinite-t-max", "nan-t-max"],
)
def test_simulate_bad_arguments_exit_2(capsys, p3_file, options):
    assert main(["simulate", p3_file, "0", "2", *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_unallocatable_grid_exit_2(capsys, p3_file):
    # 10^17 float64 samples (694 PiB) exceed any address space, so numpy
    # refuses the grid at once and allocates nothing
    assert main(["simulate", p3_file, "0", "2", "--steps", str(10**17)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_laplacian_non_integer_exit_4(tmp_path, capsys):
    f = tmp_path / "half.txt"
    f.write_text("2\n0 1 1/2\n")
    assert main(["decide-pst", str(f), "0", "1", "--matrix", "laplacian"]) == 4


def test_laplacian_with_a_loop_exit_4(tmp_path, capsys):
    f = tmp_path / "looped.txt"
    f.write_text("3\n0 1\n1 2\n0 0 1\n")
    assert main(["decide-pst", str(f), "0", "2", "--matrix", "laplacian"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: laplacian_form requires a loopless graph\n"


def test_laplacian_flag_p2(tmp_path, capsys):
    f = tmp_path / "p2.txt"
    f.write_text("2\n0 1\n")
    code, payload = run_json(
        capsys, ["decide-pst", str(f), "0", "1", "--matrix", "laplacian"]
    )
    assert code == 0
    assert payload["model"] == "laplacian"


def test_analyze_report(capsys, p4_file):
    code, payload = run_json(capsys, ["analyze", p4_file, "0", "3"])
    assert code == 0
    assert payload["cospectral"] is True
    assert payload["strongly_cospectral"] is True
    assert payload["gap_certificate"]["achieved_gap"] == pytest.approx(1.0)
    assert payload["residue_mass"]["mass"] == pytest.approx(1.0, abs=1e-6)
    assert "partition" in payload


def test_analyze_text_format(capsys, p4_file):
    code = main(["--format", "text", "analyze", p4_file, "0", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cospectral: True" in out


def test_scan_trees_to_file(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert main(["scan-trees", "--max-n", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_n"] == 5
    assert payload["per_order"][-1]["tree_count"] == 3


def test_scan_trees_stdout_and_determinism(capsys):
    assert main(["scan-trees", "--max-n", "4"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["scan-trees", "--max-n", "4", "--jobs", "2"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time_seconds")
    second.pop("wall_time_seconds")
    assert first == second


def test_scan_trees_gap_violation_exit_5(tmp_path, capsys, monkeypatch):
    # the scan certifies each strong pair by the core of certify_gap
    true_certify = gapcert._certify

    def certify(T, i, j, record, nbrs):
        if T.n == 5:
            raise GapError("planted violation")
        return true_certify(T, i, j, record, nbrs)

    monkeypatch.setattr(gapcert, "_certify", certify)
    out = tmp_path / "scan.json"
    assert main(["scan-trees", "--max-n", "6", "--out", str(out)]) == 5
    assert "gap-bound violation at n=5" in capsys.readouterr().err
    by_n = {e["n"]: e for e in json.loads(out.read_text())["per_order"]}
    violations = by_n[5]["gap_violations"]
    assert violations
    assert all(v["error"] == "planted violation" for v in violations)
    assert by_n[4]["gap_violations"] == by_n[6]["gap_violations"] == []


def test_scan_trees_bad_range(capsys):
    assert main(["scan-trees", "--max-n", "99"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_trees_rejects_jobs_below_one(capsys, jobs):
    assert main(["scan-trees", "--max-n", "4", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, i, j", [
    ("5\n2 3\n2 4\n", 3, 4),  # P3 plus two isolated vertices
    ("5\n0 1\n1 2\n3 4\n", 0, 2),  # P3 plus K2
    ("10\n0 1\n1 2 -1\n3 4\n4 5\n3 5\n6 7 2\n7 8\n8 9\n", 0, 2),
])
def test_analyze_p3_component(tmp_path, capsys, text, i, j):
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, payload = run_json(capsys, ["analyze", str(f), str(i), str(j)])
    assert code == 0
    assert payload["gap_certificate"]["equality_detected"]


def test_analyze_heavy_cut_edges(tmp_path, capsys):
    f = tmp_path / "p4w2.txt"
    f.write_text("4\n0 1 2\n1 2 2\n2 3 2\n")
    code, payload = run_json(capsys, ["analyze", str(f), "0", "3"])
    assert code == 0
    assert payload["gap_certificate"]["cut_edges_ok"]
    assert not payload["gap_certificate"]["hypotheses_ok"]


def test_analyze_gap_violation_exit_5(capsys, monkeypatch, p4_file):
    def certify_gap(G, i, j):
        raise GapError("planted violation")

    monkeypatch.setattr(cli, "certify_gap", certify_gap)
    assert main(["analyze", p4_file, "0", "3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: planted violation\n"


@pytest.mark.parametrize("error", [PstError, SpectraError])
def test_decide_pst_error_exit_5(capsys, monkeypatch, p3_file, error):
    def decide_pst(G, i, j, model="adjacency"):
        raise error("planted failure")

    monkeypatch.setattr(cli, "decide_pst", decide_pst)
    assert main(["decide-pst", p3_file, "0", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: planted failure\n"


def test_decide_pst_large_weights(tmp_path, capsys):
    # eigenvalues +-2^37 sqrt(2): the fit bisects past 2^-40 to pin
    # (2 theta)^2 = 2^77, and the walk oracle confirms the verdict
    w = 2**37
    f = tmp_path / "p3w.txt"
    f.write_text(f"3\n0 1 {w}\n1 2 {w}\n")
    start = time.perf_counter()
    code, payload = run_json(capsys, ["decide-pst", str(f), "0", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and payload["result"] == "PST"
    assert payload["spectrum"] == {"a": 0, "delta": 2, "b": [2 * w, 0, -2 * w]}
    assert payload["g"] == w and payload["k"] == [0, 1, 2]


def test_decide_pst_on_p3_with_large_prime_weights(tmp_path, capsys):
    # (2 theta)^2 = 8 w^2 with w = 2^31 - 1 prime: its square-free part is
    # found without trial division up to w
    w = 2**31 - 1
    f = tmp_path / "p3p.txt"
    f.write_text(f"3\n0 1 {w}\n1 2 {w}\n")
    start = time.perf_counter()
    code, payload = run_json(capsys, ["decide-pst", str(f), "0", "2"])
    assert time.perf_counter() - start < 5.0
    assert code == 0 and payload["result"] == "PST"
    assert payload["spectrum"] == {"a": 0, "delta": 2, "b": [2 * w, 0, -2 * w]}
    assert payload["g"] == w and payload["k"] == [0, 1, 2]


def test_simulate_csv(tmp_path, capsys, p3_file):
    out = tmp_path / "series.csv"
    code = main(
        ["simulate", p3_file, "0", "2", "--t-max", "4.0", "--steps", "100",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 101
    err = capsys.readouterr().err
    assert "peak" in err


def test_simulate_unwritable_exit_6(capsys, p3_file):
    code = main(["simulate", p3_file, "0", "2", "--out", "/nonexistent/dir/x.csv"])
    assert code == 6


@pytest.mark.parametrize("argv", [
    ["decide-pst", "P3", "0", "2"],
    ["analyze", "P3", "0", "2"],
    ["simulate", "P3", "0", "2"],
    ["scan-trees", "--max-n", "6"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exit_6_without_a_traceback(p3_file, argv):
    # the read end is closed before the command starts, so its first write
    # to standard output fails, as under `pstlab ... | true`
    argv = [p3_file if arg == "P3" else arg for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pstlab.__file__))}
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "pstlab.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert out.returncode == 6
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr, out.stderr


@pytest.mark.parametrize("command", ["scan-trees", "simulate"])
def test_out_to_a_directory_exit_6_without_litter(tmp_path, capsys, p3_file, command):
    target = tmp_path / "taken"
    target.mkdir()
    args = {
        "scan-trees": ["--max-n", "3"],
        "simulate": [p3_file, "0", "2", "--steps", "5"],
    }[command]
    assert main([command, *args, "--out", str(target)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.glob("*.tmp")) == []


def test_bound_command(capsys, p4_file):
    code, payload = run_json(capsys, ["bound", p4_file, "0", "3"])
    assert code == 0
    assert payload["bound"] == pytest.approx(math.sqrt(2), rel=1e-9)
    # non-strongly-cospectral pair is a usage error
    assert main(["bound", p4_file, "0", "1"]) == 2


def test_bridge_check_command(capsys, p4_file):
    code, payload = run_json(capsys, ["bridge-check", p4_file, "1", "2"])
    assert code == 0
    assert payload["within_unit_bound"] is True
    assert main(["bridge-check", p4_file, "0", "1"]) == 2  # not cospectral


@pytest.mark.parametrize("text", ["3\n0 1\n", "5\n0 1\n2 3\n3 4\n"], ids=["P2+K1", "P2+P3"])
def test_bridge_check_exempts_a_p2_component(tmp_path, capsys, text):
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, payload = run_json(capsys, ["bridge-check", str(f), "0", "1"])
    assert code == 0
    assert payload["is_p2"] is True
    assert payload["within_unit_bound"] is False
    assert capsys.readouterr().err == ""


def test_graph6_input(tmp_path, capsys):
    f = tmp_path / "p4.g6"
    f.write_text("Ch\n")
    code, payload = run_json(capsys, ["decide-pst", str(f), "0", "3"])
    assert code == 1
    assert payload["result"] == "NO_PST"


@pytest.fixture
def unbuilt_parser(monkeypatch):
    """No parser built yet, whatever ran before, and a count of the builds."""
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    return builds


USAGE_ERRORS = [
    ["decide-pst"],
    ["bogus"],
    ["decide-pst", "P3", "0"],
    ["analyze", "P3", "zero", "2"],
    ["decide-pst", "P3", "0", "2", "--matrix", "incidence"],
    ["--format", "yaml", "bound", "P4", "0", "3"],
]


def _argv(argv, p3_file, p4_file):
    return [{"P3": p3_file, "P4": p4_file}.get(arg, arg) for arg in argv]


def test_parser_is_built_once_per_process(capsys, unbuilt_parser, p3_file, p4_file):
    assert not unbuilt_parser
    for _ in range(3):
        assert main(["decide-pst", p3_file, "0", "2"]) == 0
        assert main(["bogus"]) == 2
        assert main(["analyze", p4_file, "0", "3"]) == 0
    assert len(unbuilt_parser) == 1


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_returns_2(capsys, p3_file, p4_file, argv):
    assert main(_argv(argv, p3_file, p4_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pstlab")
    assert "Traceback" not in captured.err


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pstlab")
    assert main(["decide-pst", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pstlab decide-pst")


def test_a_usage_error_leaves_the_next_call_intact(capsys, p3_file):
    code, fresh = run_json(capsys, ["decide-pst", p3_file, "0", "2"])
    assert main(["decide-pst", p3_file, "0", "2", "--matrix", "incidence"]) == 2
    capsys.readouterr()
    assert run_json(capsys, ["decide-pst", p3_file, "0", "2"]) == (code, fresh)
    assert main(["--format", "text", "decide-pst", p3_file, "0"]) == 2
    capsys.readouterr()
    assert run_json(capsys, ["decide-pst", p3_file, "0", "2"]) == (code, fresh)


def test_reused_parser_gives_the_output_of_a_fresh_one(capsys, monkeypatch, p3_file, p4_file):
    calls = [
        ["analyze", "P4", "0", "3"],
        ["bogus"],
        ["decide-pst", "P3", "0", "2"],
        ["decide-pst", "P3", "0", "2", "--matrix", "laplacian"],
        ["decide-pst", "P3", "0"],
        ["decide-pst", "P4", "0", "3", "--matrix", "adjacency"],
        ["bound", "P4", "0", "3"],
        ["--format", "yaml", "bound", "P4", "0", "3"],
        ["bridge-check", "P4", "1", "2"],
        ["--format", "text", "analyze", "P4", "0", "3"],
        ["analyze", "P3", "zero", "2"],
        ["--format", "text", "decide-pst", "P3", "0", "2"],
    ]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            code = main(_argv(argv, p3_file, p4_file))
            results.append((code, *capsys.readouterr()))
        return results

    monkeypatch.setattr(cli, "_parser", None)
    reused = run(fresh=False)
    assert run(fresh=True) == reused
    assert [code for code, _, _ in reused] == [0, 2, 0, 1, 2, 1, 0, 2, 0, 0, 2, 0]


@pytest.mark.parametrize("argv", [["bogus"], ["decide-pst", "P3", "0"]], ids=" ".join)
def test_module_usage_error_exits_2_with_the_usage_text(capsys, p3_file, p4_file, argv):
    argv = _argv(argv, p3_file, p4_file)
    assert main(argv) == 2
    err = capsys.readouterr().err
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pstlab.__file__))}
    out = subprocess.run([sys.executable, "-m", "pstlab.cli", *argv], capture_output=True,
                         env=env, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == err
