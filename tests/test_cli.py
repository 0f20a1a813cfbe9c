import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tomoforge
from tomoforge import (
    ValidationError,
    assemble_design,
    enumerate_minimal_sets,
    format_density,
    matrix_rank,
    matrix_to_params,
    parse_density,
    read_density,
    relative_error,
    write_density,
)
from tomoforge.cli import main
from tomoforge.model import HERMITICITY_TOL

import goldens
from conftest import density_text


@pytest.fixture
def density_files(tmp_path):
    a = tmp_path / "rho_all.txt"
    b = tmp_path / "rho_th.txt"
    write_density(a, goldens.RHO_ALL_READOUTS)
    write_density(b, goldens.RHO_PREDICTED)
    return a, b


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compare_matches_library(capsys, density_files):
    a, b = density_files
    code, out, _ = run(capsys, "compare", "--a", a, "--b", b)
    assert code == 0
    printed = out.split()[2]
    expected = relative_error(goldens.RHO_ALL_READOUTS, goldens.RHO_PREDICTED)
    assert printed == f"{expected:.10g}"
    assert abs(float(printed) - goldens.DELTA_ALL_QUOTED) < goldens.DELTA_TOL


def test_compare_frobenius_flag(capsys, density_files):
    a, b = density_files
    code, out, _ = run(capsys, "compare", "--a", a, "--b", b, "--norm", "frobenius")
    assert code == 0
    expected = relative_error(goldens.RHO_ALL_READOUTS, goldens.RHO_PREDICTED, norm="frobenius")
    assert out.split()[2] == f"{expected:.10g}"


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "--readouts", "all")
    assert code == 0
    assert "design: 73 rows x 16 columns" in out
    assert "rank: 16 of 16" in out
    assert "ill-determined combinations: 0" in out
    eig_line = next(line for line in out.splitlines() if line.startswith("eigenvalues"))
    eigs = sorted(float(v) for v in eig_line.split(":")[1].split())
    np.testing.assert_allclose(eigs, goldens.EIGENVALUES_FULL, atol=1e-9)


def test_analyze_no_trace_rank(capsys):
    code, out, _ = run(capsys, "analyze", "--readouts", "all", "--no-trace")
    assert code == 0
    assert "design: 72 rows x 16 columns (trace row: no)" in out
    assert "rank: 15 of 16" in out


def test_analyze_csv_matches_library(capsys):
    code, out, _ = run(capsys, "analyze", "--readouts", "1,2,3,5,10,11", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("# normal_matrix") + 1
    c = np.array([[float(v) for v in lines[start + i].split(",")] for i in range(16)])
    np.testing.assert_allclose(c, goldens.NORMAL_MATRIX_SIX, atol=1e-12)


def test_analyze_csv_rank_is_the_svd_rank(capsys, rng):
    for _ in range(40):
        ids = rng.choice(np.arange(1, 19), size=int(rng.integers(1, 19)), replace=False)
        for extra, trace in (([], True), (["--no-trace"], False)):
            code, out, _ = run(capsys, "analyze", "--readouts", ",".join(map(str, ids)), "--format", "csv", *extra)
            assert code == 0
            assert out.splitlines()[1] == "rows,cols,trace_row,rank"
            rank = int(out.splitlines()[2].split(",")[3])
            assert rank == matrix_rank(assemble_design(ids, include_trace=trace).matrix)


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ids,rank,min_eigenvalue"
    ids = [tuple(int(v) for v in line.split(",")[0].split("-")) for line in lines[1:]]
    assert set(ids) == set(goldens.MINIMAL_SETS_5)
    assert len(lines) - 1 == len(enumerate_minimal_sets(5))


def test_enumerate_conditioning_order(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "5", "--rank-by-conditioning", "--format", "csv")
    assert code == 0
    eigs = [float(line.rsplit(",", 1)[1]) for line in out.strip().splitlines()[1:]]
    assert eigs == sorted(eigs, reverse=True)


def test_simulate_reconstruct_round_trip(capsys, tmp_path):
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    dens = tmp_path / "in.txt"
    write_density(dens, rho)
    readings = tmp_path / "readings.csv"
    out_dens = tmp_path / "out.txt"
    code, out, _ = run(capsys, "simulate", "--density", dens, "--readouts", "all",
                       "--noise", "0", "--seed", "1", "--out", readings)
    assert code == 0
    assert "wrote 36 readings" in out
    code, out, _ = run(capsys, "reconstruct", "--readings", readings, "--out", out_dens)
    assert code == 0
    assert "truncated directions: 0" in out
    rebuilt = read_density(out_dens)
    assert relative_error(rebuilt, rho) < 1e-8
    np.testing.assert_allclose(rebuilt, rho, atol=1e-8)


def test_reconstruct_with_psd_projection(capsys, tmp_path):
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    dens = tmp_path / "in.txt"
    write_density(dens, rho)
    readings = tmp_path / "r.csv"
    out_dens = tmp_path / "out.txt"
    run(capsys, "simulate", "--density", dens, "--readouts", "all",
        "--noise", "0.05", "--seed", "4", "--out", readings)
    code, _, _ = run(capsys, "reconstruct", "--readings", readings, "--psd-project", "--out", out_dens)
    assert code == 0
    w = np.linalg.eigvalsh(read_density(out_dens))
    assert w.min() > -1e-10


def test_exit_code_2_on_bad_input(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "analyze", "--readouts", "1,99")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "compare", "--a", tmp_path / "missing.txt", "--b", tmp_path / "missing.txt")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--size", "30")
    assert code == 2
    dens = tmp_path / "in.txt"
    write_density(dens, np.eye(4) / 4)
    readings = tmp_path / "r.csv"
    for noise in ("nan", "inf"):
        code, _, err = run(capsys, "simulate", "--density", dens, "--readouts", "1,2",
                           "--noise", noise, "--out", readings)
        assert code == 2 and "sigma" in err
    for noise in (("--noise", "0.01"), ()):
        code, _, err = run(capsys, "simulate", "--density", dens, "--readouts", "1,2", "--seed", "-1",
                           *noise, "--out", readings)
        assert code == 2 and "seed out of range" in err
        assert not readings.exists()
    code, _, err = run(capsys, "simulate", "--density", dens, "--readouts", "1,2", "--out", tmp_path)
    assert code == 2 and "error:" in err
    run(capsys, "simulate", "--density", dens, "--readouts", "1,2", "--out", readings)
    for threshold in ("nan", "inf", "0"):
        code, _, err = run(capsys, "reconstruct", "--readings", readings, "--threshold", threshold,
                           "--out", tmp_path / "out.txt")
        assert code == 2 and "threshold" in err
    code, _, err = run(capsys, "analyze", "--readouts", "all", "--threshold", "nan")
    assert code == 2 and "threshold" in err
    readings.write_text("1,left,nan,0\n1,right,0,0\n2,left,0,0\n2,right,0,0\n")
    code, _, err = run(capsys, "reconstruct", "--readings", readings, "--out", tmp_path / "out.txt")
    assert code == 2 and "line 1" in err
    # a file that is not UTF-8 text, and an id written 1_0 (int() reads 10)
    readings.write_text("1_0,left,1_0.5,0\n")
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
    for bad in (readings, binary):
        code, _, err = run(capsys, "reconstruct", "--readings", bad, "--out", tmp_path / "out.txt")
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
    code, _, err = run(capsys, "compare", "--a", binary, "--b", binary)
    assert code == 2 and err.startswith(f"error: {binary}: not UTF-8 text")
    assert not (tmp_path / "out.txt").exists()
    # number flags, ids and TOMOFORGE_THRESHOLD refuse 1_0 and non-ASCII digits too
    for argv in (("enumerate", "--size", "0_5"), ("enumerate", "--size", "\u0665"),
                 ("analyze", "--readouts", "all", "--threshold", "1_0"),
                 ("simulate", "--density", dens, "--readouts", "1,2", "--seed", "1_0", "--out", tmp_path / "s.csv"),
                 ("simulate", "--density", dens, "--readouts", "1,2", "--noise", "0_1", "--out", tmp_path / "s.csv")):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage:") and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()
    code, _, err = run(capsys, "analyze", "--readouts", "1_0,\u0663,1,2,6,12,13")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    monkeypatch.setenv("TOMOFORGE_THRESHOLD", "0_1")
    code, _, err = run(capsys, "analyze", "--readouts", "all")
    assert code == 2 and err.startswith("error: TOMOFORGE_THRESHOLD='0_1'")


def test_exit_code_2_on_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bogus"])
    assert exc.value.code == 2


def test_exit_code_1_on_numerical_failure(capsys, tmp_path):
    rho = np.eye(4) / 4
    dens = tmp_path / "in.txt"
    write_density(dens, rho)
    readings = tmp_path / "r.csv"
    run(capsys, "simulate", "--density", dens, "--readouts", "1,2", "--noise", "0", "--seed", "1",
        "--out", readings)
    code, _, err = run(capsys, "reconstruct", "--readings", readings, "--threshold", "1e9",
                       "--out", tmp_path / "out.txt")
    assert code == 1
    assert "numerical failure" in err


def test_threshold_env_override(capsys, tmp_path, monkeypatch):
    rho = np.eye(4) / 4
    dens = tmp_path / "in.txt"
    write_density(dens, rho)
    readings = tmp_path / "r.csv"
    run(capsys, "simulate", "--density", dens, "--readouts", "all", "--noise", "0", "--seed", "1",
        "--out", readings)
    monkeypatch.setenv("TOMOFORGE_THRESHOLD", "0.05")
    code, out, _ = run(capsys, "reconstruct", "--readings", readings, "--out", tmp_path / "o.txt")
    assert code == 0
    assert "threshold: 0.05" in out
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "reconstruct", "--readings", readings, "--threshold", "0.25",
                       "--out", tmp_path / "o2.txt")
    assert code == 0
    assert "threshold: 0.25" in out
    monkeypatch.setenv("TOMOFORGE_THRESHOLD", "banana")
    code, _, err = run(capsys, "reconstruct", "--readings", readings, "--out", tmp_path / "o3.txt")
    assert code == 2 and "TOMOFORGE_THRESHOLD" in err
    for bad in ("nan", "-inf", "-0.5"):
        monkeypatch.setenv("TOMOFORGE_THRESHOLD", bad)
        code, _, err = run(capsys, "reconstruct", "--readings", readings, "--out", tmp_path / "o4.txt")
        assert code == 2 and "threshold" in err
    assert not (tmp_path / "o4.txt").exists()


def test_reconstruct_prior_file(capsys, tmp_path):
    rho = np.eye(4) / 4
    dens = tmp_path / "prior.txt"
    write_density(dens, rho)
    readings = tmp_path / "r.csv"
    run(capsys, "simulate", "--density", dens, "--readouts", "1,2,3,4", "--noise", "0",
        "--seed", "1", "--out", readings)
    code, out, _ = run(capsys, "reconstruct", "--readings", readings, "--prior", dens,
                       "--out", tmp_path / "out.txt")
    assert code == 0
    assert "truncated directions:" in out
    rebuilt = read_density(tmp_path / "out.txt")
    np.testing.assert_allclose(rebuilt, rho, atol=1e-9)


def _fresh_env():
    env = {k: v for k, v in os.environ.items() if k != "TOMOFORGE_THRESHOLD"}
    env["PYTHONPATH"] = str(Path(tomoforge.__file__).parents[1])
    return env


def fresh_process(*argv):
    """Run a command in a new interpreter, where it is the first in its process."""
    proc = subprocess.run([sys.executable, "-m", "tomoforge.cli", *map(str, argv)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("size", [6, 4])
def test_closed_stdout_ends_quietly(size):
    """A reader that stops early (``| head -1``) is no error: no stderr, exit 0.

    The read end is closed before the command starts, so its first write to
    the (block-buffered) stdout fails: during the run for size 6, whose
    1,183 lines overflow the buffer, at the final flush for size 4, whose
    one line does not."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "tomoforge.cli", "enumerate", "--size", str(size)],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.fixture
def readings_file(capsys, tmp_path):
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    dens = tmp_path / "in.txt"
    write_density(dens, rho)
    readings = tmp_path / "r.csv"
    code, _, _ = run(capsys, "simulate", "--density", dens, "--readouts", "1,2,6,12",
                     "--noise", "0.02", "--seed", "3", "--out", readings)
    assert code == 0
    return readings


def test_main_calls_share_one_parser(capsys, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(capsys, "analyze", "--readouts", "all")[0] == 0
    assert run(capsys, "analyze", "--readouts", "1,2,3,4,5")[0] == 0
    assert len(used) == 2 and used[0] is used[1]


def test_reconstruct_flags_do_not_leak(capsys, monkeypatch, tmp_path, readings_file):
    monkeypatch.delenv("TOMOFORGE_THRESHOLD", raising=False)
    out_path = tmp_path / "out.txt"
    first_out = fresh_process("reconstruct", "--readings", readings_file, "--out", out_path)
    first_file = out_path.read_bytes()
    out_path.unlink()
    code, out, _ = run(capsys, "reconstruct", "--readings", readings_file, "--threshold", "0.3",
                       "--psd-project", "--out", tmp_path / "flagged.txt")
    assert code == 0 and "threshold: 0.3" in out
    code, out, _ = run(capsys, "reconstruct", "--readings", readings_file, "--out", out_path)
    assert code == 0
    assert "threshold: 0.001" in out
    assert out == first_out
    assert out_path.read_bytes() == first_file


def test_analyze_flags_do_not_leak(capsys, monkeypatch):
    monkeypatch.delenv("TOMOFORGE_THRESHOLD", raising=False)
    first_out = fresh_process("analyze", "--readouts", "all")
    code, out, _ = run(capsys, "analyze", "--readouts", "all", "--no-trace")
    assert code == 0 and "rank: 15 of 16" in out
    code, out, _ = run(capsys, "analyze", "--readouts", "all")
    assert code == 0
    assert out == first_out


def test_valid_command_after_argparse_rejection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--readings", "r.csv"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "analyze", "--readouts", "all")
    assert code == 0 and "rank: 16 of 16" in out


def test_threshold_env_read_on_every_call(capsys, monkeypatch):
    monkeypatch.delenv("TOMOFORGE_THRESHOLD", raising=False)
    code, out, _ = run(capsys, "analyze", "--readouts", "all")
    assert code == 0 and "threshold: 0.001" in out
    monkeypatch.setenv("TOMOFORGE_THRESHOLD", "0.05")
    code, out, _ = run(capsys, "analyze", "--readouts", "all")
    assert code == 0 and "threshold: 0.05" in out


def test_simulate_rejects_line_break_in_source(capsys, tmp_path):
    dens = tmp_path / "rho\n1,left,0,0"
    write_density(dens, np.eye(4) / 4)
    readings = tmp_path / "r.csv"
    code, _, err = run(capsys, "simulate", "--density", dens, "--readouts", "1,2", "--out", readings)
    assert code == 2 and "line break" in err
    assert not readings.exists()


def _with_defect(defect):
    """The maximally mixed state with ``defect`` i in entry (1,2) and 0 in
    its (2,1) partner: a Hermiticity defect of exactly ``defect``."""
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = defect * 1j
    return rho


def _density_commands(capsys, tmp_path, readings_file, rho):
    """Run compare, simulate --density and reconstruct --prior on a file
    holding ``rho``; each command's exit code, stderr and whether it left
    its --out file."""
    dens = tmp_path / "defect.txt"
    dens.write_text(density_text(rho))
    sim, rec = tmp_path / "defect.csv", tmp_path / "defect_rec.txt"
    results = []
    for argv, out in (
        (("compare", "--a", dens, "--b", dens), None),
        (("simulate", "--density", dens, "--readouts", "1,2", "--out", sim), sim),
        (("reconstruct", "--readings", readings_file, "--prior", dens, "--out", rec), rec),
    ):
        code, _, err = run(capsys, *argv)
        results.append((code, err, out is not None and out.exists()))
    return results


def _assert_refused_by_every_command(results):
    for code, err, wrote in results:
        assert code == 2 and not wrote
        assert err.startswith("error: matrix is not Hermitian: elements (1,2) and (2,1)"), err
        assert "Warning" not in err


@pytest.mark.filterwarnings("error")
def test_density_defect_above_the_cut_is_refused_by_every_command(capsys, tmp_path, readings_file):
    rho = _with_defect(1e-5)
    _assert_refused_by_every_command(_density_commands(capsys, tmp_path, readings_file, rho))


@pytest.mark.filterwarnings("error")
def test_density_defect_at_the_cut_is_accepted_everywhere(capsys, tmp_path, readings_file):
    rho = _with_defect(HERMITICITY_TOL)
    assert parse_density(format_density(rho)).tobytes() == rho.tobytes()
    matrix_to_params(rho)
    results = _density_commands(capsys, tmp_path, readings_file, rho)
    assert [(code, wrote) for code, _, wrote in results] == [(0, False), (0, True), (0, True)]


@pytest.mark.filterwarnings("error")
def test_density_defect_just_above_the_cut_is_refused_everywhere(capsys, tmp_path, readings_file):
    rho = _with_defect(np.nextafter(HERMITICITY_TOL, 1))
    pair = r"not Hermitian: elements \(1,2\) and \(2,1\)"
    for refuse, arg in ((format_density, rho), (parse_density, density_text(rho)), (matrix_to_params, rho)):
        with pytest.raises(ValidationError, match=pair):
            refuse(arg)
    _assert_refused_by_every_command(_density_commands(capsys, tmp_path, readings_file, rho))
