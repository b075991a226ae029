"""Command-line driver: subcommands, input plumbing, CSV output, exit codes."""

from __future__ import annotations

import csv

import pytest

import spworks as sw
from spworks.cli import main
from spworks.tensor import from_arrays

MATMUL = "A(i,j) = B(i,k) * C(k,j)"
ROWWISE = ["--expr", MATMUL, "--schedule", "reorder(i,k,j)"]
SMALL = ["--synthetic", "16x16:0.3:3", "--seed", "1"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# classify / explain


def test_classify_reports_scattering(capsys):
    code, out, _ = run_main(["classify", *ROWWISE], capsys)
    assert code == 0
    assert "class:        first-order dense scattering (scattering, order 1)" in out
    assert "insertion:    dense-workspace" in out


def test_classify_concordant_kernel(capsys):
    code, out, _ = run_main(["classify", "--expr", MATMUL], capsys)
    assert code == 0
    assert "scalar accumulation (scattering, order 0)" in out
    assert "insertion:    none" in out


def test_classify_honors_format_overrides(capsys):
    code, out, _ = run_main(
        ["classify", "--expr", MATMUL, "--format", "A=csc"], capsys)
    assert code == 0
    assert "sparse scattering" in out


def test_classify_schedule_from_file(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("# comment line\nreorder(i, k, j)\n", encoding="ascii")
    code, out, _ = run_main(
        ["classify", "--expr", MATMUL, "--schedule", str(sched)], capsys)
    assert code == 0
    assert "first-order dense scattering" in out


def test_explain_appends_plan(capsys):
    code, out, _ = run_main(["explain", *ROWWISE], capsys)
    assert code == 0
    assert "class:" in out
    assert "forall i in range(I):" in out
    assert "workspace W: DenseWs(order=1), dims={J}" in out
    assert "gather nonzeros W -> A(i, :)" in out


def test_explain_sparse_workspace_descriptor(capsys):
    code, out, _ = run_main(
        ["explain", "--expr", MATMUL, "--schedule", "reorder(k,i,j)",
         "--format", "B=dcsc", "--policy", "hash", "--cap", "128"], capsys)
    assert code == 0
    assert "insertion:    reordering-workspace" in out
    assert "policy=Hash" in out
    assert "capacity=128" in out
    assert "merge Acc -> All" in out


# run


def test_run_synthetic_with_verify(capsys):
    code, out, _ = run_main(["run", *ROWWISE, *SMALL, "--verify"], capsys)
    assert code == 0
    assert "result A: dims (16, 16)" in out
    assert "insertion: dense-workspace" in out
    assert "time_ns:" in out
    assert "inserts:" in out
    assert "verify: OK" in out


def test_run_file_inputs(tmp_path, capsys):
    b, c = sw.synthetic_pair(10, 10, 0.4, 2, seed=3)
    pb, pc = tmp_path / "b.mtx", tmp_path / "c.mtx"
    sw.write_matrix_market(pb, b)
    sw.write_matrix_market(pc, c)
    code, out, _ = run_main(
        ["run", *ROWWISE, f"B={pb}", f"C={pc}", "--verify"], capsys)
    assert code == 0
    assert "verify: OK" in out


def test_run_frostt_input(tmp_path, capsys):
    t = sw.synthetic_matrix(8, 8, 0.5, 2, seed=2)
    path = tmp_path / "b.tns"
    sw.write_frostt(path, t)
    code, out, _ = run_main(
        ["run", "--expr", "A(i) = B(i,k) * c(k)", f"B={path}",
         f"c={tmp_path / 'c.tns'}", "--verify"], capsys)
    assert code == 2  # c.tns was never written
    code2, out2, _ = run_main(
        ["run", "--expr", "A(j) = B(j,k)", f"B={path}", "--verify"], capsys)
    assert code2 == 0
    assert "verify: OK" in out2


def test_run_reduction_outermost(tmp_path, capsys):
    path = tmp_path / "b.mtx"
    sw.write_matrix_market(path, sw.synthetic_matrix(8, 8, 0.5, 2, seed=2))
    code, out, err = run_main(
        ["run", "--expr", "forall k, j: a(j) += B(k,j)", f"B={path}", "--verify"], capsys)
    assert code == 0, err
    assert "insertion: reordering-workspace" in out
    assert "verify: OK" in out


def test_run_writes_csv(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code, _, _ = run_main(
        ["run", *ROWWISE, *SMALL, "--csv", str(path)], capsys)
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["kernel"] == MATMUL
    assert rows[0]["policy"] == "bucket"
    assert rows[0]["dims"] == "16x16"
    assert int(rows[0]["nnz_in"]) > 0
    assert int(rows[0]["time_ns"]) > 0


def test_run_verify_failure_exits_one(monkeypatch, capsys):
    import spworks.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_verify", lambda *args: False)
    code, _, err = run_main(["run", *ROWWISE, *SMALL, "--verify"], capsys)
    assert code == 1
    assert "verify: FAIL" in err


def test_run_execution_modes(capsys):
    # execution has one mode: neither retired mode flag is an option
    for command, flag in [("run", "--pipeline"), ("bench", "--pipeline"),
                          ("run", "--double-buffer")]:
        with pytest.raises(SystemExit) as exc:
            run_main([command, *ROWWISE, *SMALL, flag], capsys)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# bench


def test_bench_policy_capacity_sweep(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out, _ = run_main(
        ["bench", *ROWWISE, *SMALL, "--policy", "bucket,coord",
         "--cap", "4,64", "--reps", "2", "--warmups", "0",
         "--csv", str(path), "--verify"], capsys)
    assert code == 0
    assert f"wrote 4 rows to {path}" in out
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == sw.CSV_FIELDS
        rows = list(reader)
    assert [(r["policy"], r["capacity"]) for r in rows] == [
        ("bucket", "4"), ("bucket", "64"), ("coord", "4"), ("coord", "64")]


def test_bench_stdout_table(capsys):
    code, out, _ = run_main(
        ["bench", *ROWWISE, *SMALL, "--reps", "1", "--warmups", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(sw.CSV_FIELDS)
    assert len(lines) == 2


def test_bench_rejects_bad_rounds(capsys):
    code, _, err = run_main(
        ["bench", *ROWWISE, *SMALL, "--reps", "0"], capsys)
    assert code == 2
    assert "--reps >= 1" in err


# ablation


def test_ablation_sweep_and_labels(tmp_path, capsys):
    path = tmp_path / "ablation.csv"
    code, _, _ = run_main(
        ["ablation", *ROWWISE, *SMALL, "--policy", "coord", "--cap", "32",
         "--reps", "1", "--warmups", "0", "--csv", str(path), "--verify"],
        capsys)
    assert code == 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == sw.CSV_FIELDS + ("label",)
        rows = list(reader)
    labels = [r["label"] for r in rows]
    assert labels[0] == "map-extreme"
    assert labels[-1] == "vector-extreme"
    assert all(label == "sweep" for label in labels[1:-1])
    caps = [int(r["capacity"]) for r in rows]
    assert caps[0] == 1
    assert all(c >= 1 for c in caps)


def test_ablation_warns_when_no_workspace(capsys):
    code, _, err = run_main(
        ["ablation", "--expr", MATMUL, *SMALL, "--reps", "1",
         "--warmups", "0"], capsys)
    assert code == 0
    assert "runs without a workspace" in err


# error handling and exit codes


@pytest.mark.parametrize("argv, fragment", [
    (["classify", "--expr", "A(i,j ="], "error:"),
    (["classify", "--expr", MATMUL, "--format", "Bcsr"], "--format needs T=FMT"),
    (["classify", "--expr", MATMUL, "--format", "Z=csr"], "unknown tensor"),
    (["classify", "--expr", MATMUL, "--format", "B=banded"], "unknown format name"),
    (["classify", "--expr", MATMUL, "--policy", "radix"], "error:"),
    (["classify", "--expr", MATMUL, "--policy", "bucket,hash"],
     "single --policy"),
    (["classify", "--expr", MATMUL, "--cap", "0"], "--cap must be at least 1"),
    (["classify", "--expr", MATMUL, "--cap", "many"], "must be integers"),
    (["classify", "--expr", MATMUL, "--cap", "4,8"], "single --cap"),
    (["run", "--expr", MATMUL], "no input for tensor B"),
    (["run", "--expr", MATMUL, "--synthetic", "64:0.1:4"],
     "--synthetic needs RxC:DENSITY:NNZPC"),
    (["run", "--expr", MATMUL, "B=x.csv", "C=y.csv"], "use .mtx or .tns"),
    (["run", "--expr", MATMUL, "BadSpec"], "inputs need T=PATH"),
    (["run", "--expr", MATMUL, "Z=x.mtx"], "unknown tensor"),
    (["run", "--expr", MATMUL, "--synthetic", "300x300:0.1:4", "--verify"],
     "exceeds the oracle guard"),
    (["run", "--expr", MATMUL, "--synthetic", "64x64:0.1:4", "--seed", "-1"],
     "seed -1 is negative"),
    (["run", "--expr", MATMUL + " + 2", *SMALL, "--verify"], "same reduction variables"),
])
def test_user_errors_exit_two(argv, fragment, capsys):
    code, _, err = run_main(argv, capsys)
    assert code == 2
    assert fragment in err


def test_result_variable_missing_from_the_expression_exits_two(capsys):
    # j indexes only the result; insertion rejects the workspace over it
    code, _, err = run_main(
        ["run", "--expr", "forall i, k, j: A(i,j) += B(i,k) * C(i,k)", *SMALL], capsys)
    assert code == 2
    assert "insertion variables [j] do not occur in the expression" in err


def test_input_order_mismatch_exits_two(tmp_path, capsys):
    t = from_arrays([[0], [0], [0]], [1.0], sw.coo(3), (2, 2, 2))
    path = tmp_path / "cube.tns"
    sw.write_frostt(path, t)
    code, _, err = run_main(
        ["run", *ROWWISE, f"B={path}", f"C={path}"], capsys)
    assert code == 2
    assert "has order 3, expression needs order 2" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_expr_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
