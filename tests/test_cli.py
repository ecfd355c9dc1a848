import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wellprob as wp


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "wellprob", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for cmd in ("classical", "eigensolve", "momentum", "table1", "sweep", "bounce-sim"):
        assert cmd in cp.stdout


def test_table1_values(tmp_path: Path):
    cp = run_cli("table1", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "table1.csv")
    assert len(rows) == 3
    col = {name: i for i, name in enumerate(header)}
    for row, (e_ref, pp_ref, dp_ref) in zip(
            rows, [(10.066, 3.173, 2.916), (10.073, 3.174, 1.156), (10.105, 3.179, 0.332)]):
        assert abs(float(row[col["energy"]]) - e_ref) <= 0.001
        assert abs(float(row[col["p_plus"]]) - pp_ref) <= 0.002
        assert abs(float(row[col["delta_p"]]) - dp_ref) <= 0.002
        assert float(row[col["hbar_over_a"]]) == 0.04
    # the first row reproduces every reference cell to within 0.001
    for name in ("dev_energy", "dev_p_minus", "dev_p_plus", "dev_delta_p"):
        assert float(rows[0][col[name]]) <= 0.001


def test_classical_outputs_and_determinism(tmp_path: Path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[potential]\nkind = bouncer\n\n[constants]\nhbar = 1.0\nmass = 1.0\ng = 1.0\n\n"
        "[task]\nenergy = 2.0\nn_bins = 10\nn_draws = 100\nseed = 5\n\n"
        f"[output]\ndirectory = {tmp_path/'a'}\n")
    cp1 = run_cli("classical", "--config", str(cfg))
    assert cp1.returncode == 0, cp1.stderr
    cp2 = run_cli("classical", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert cp2.returncode == 0, cp2.stderr
    for name in ("classical_position.csv", "classical_momentum.csv",
                 "classical_meta.csv", "histogram_position.csv",
                 "histogram_momentum.csv", "draws.csv"):
        f1, f2 = tmp_path / "a" / name, tmp_path / "b" / name
        assert f1.exists(), name
        assert f1.read_bytes() == f2.read_bytes(), name  # bit-identical reruns
    header, rows = read_csv(tmp_path / "a" / "classical_position.csv")
    assert header == ["x", "density"]
    # density values carry 17 significant digits
    assert any(len(r[1].split(".")[-1]) > 10 for r in rows)


def test_classical_infinite_well_emits_delta_masses(tmp_path: Path):
    cp = run_cli("classical", "--out", str(tmp_path),
                 "--set", "potential.kind=infinite_well", "--set", "potential.a=25",
                 "--set", "task.energy=4.0")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "classical_momentum_delta.csv")
    assert header == ["p", "mass"]
    assert [float(r[1]) for r in rows] == [0.5, 0.5]
    assert sorted(float(r[0]) for r in rows) == [-2.0, 2.0]


def test_eigensolve_infinite_well(tmp_path: Path):
    cp = run_cli("eigensolve", "--out", str(tmp_path),
                 "--set", "potential.kind=infinite_well", "--set", "potential.a=25",
                 "--set", "task.e_max=0.1", "--set", "task.parity=even",
                 "--set", "task.index=1", "--set", "task.n_grid=512")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "eigenvalues.csv")
    energies = [float(r[header.index("energy")]) for r in rows]
    ks = [(n - 0.5) * np.pi / 25.0 for n in range(1, len(energies) + 1)]
    assert np.allclose(energies, [k * k for k in ks], rtol=1e-12)
    assert (tmp_path / "wavefunction.csv").exists()


def test_momentum_overlay_closed_court(tmp_path: Path):
    cp = run_cli("momentum", "--out", str(tmp_path),
                 "--set", "potential.kind=closed_court", "--set", "potential.a=25",
                 "--set", "potential.v0=10", "--set", "task.energy=10.066",
                 "--set", "task.n_grid=6001", "--set", "task.n_points=801")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "momentum_wavefunction.csv")
    assert header == ["p", "phi_re", "phi_im", "density", "classical_density"]
    dens = np.array([float(r[3]) for r in rows])
    overlay = np.array([float(r[4]) for r in rows])
    assert dens.max() > 0
    assert overlay.max() == pytest.approx(0.17147, abs=1e-4)


def test_sweep_csv(tmp_path: Path):
    cp = run_cli("sweep", "--out", str(tmp_path), "--set", "task.v0_list=10,6",
                 "--set", "task.e_target=10.0")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2
    pl = header.index("plateau_height")
    assert float(rows[0][pl]) < float(rows[1][pl])
    assert rows[0][header.index("classical_unreliable")] == "false"


def test_sweep_csv_flagged_row(tmp_path: Path):
    # no level within +-0.001 of E = 10.19 at V0 = 10: the row is flagged
    # and its plateau height, 1/(2 delta_p) with delta_p = nan, is nan
    cp = run_cli("sweep", "--out", str(tmp_path), "--set", "task.v0_list=10",
                 "--set", "task.e_target=10.19", "--set", "task.search_width=0.001")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1
    assert rows[0][header.index("flag")].startswith("no-eigenvalue")
    assert rows[0][header.index("plateau_height")] == "nan"


def test_sweep_flags_row_whose_window_exceeds_the_well(tmp_path: Path):
    # at V0 = 10.01 the level nearest 10.07 has p_minus = 0.249, so the window
    # 2 pi hbar / p_minus = 25.2 reaches past a = 25; the other rows compare
    cp = run_cli("sweep", "--out", str(tmp_path), "--set", "task.v0_list=10,10.01,6",
                 "--set", "task.e_target=10.07")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 3
    flags = [row[header.index("flag")] for row in rows]
    assert flags[0] == "" and flags[2] == ""
    assert flags[1].startswith("window-exceeds-well")
    assert rows[1][header.index("l2_gap_position")] == "nan"
    assert rows[1][header.index("parity")] in ("even", "odd")


def test_bounce_sim_outputs(tmp_path: Path):
    cp = run_cli("bounce-sim", "--out", str(tmp_path), "--seed", "12345")
    assert cp.returncode == 0, cp.stderr
    for name in ("bounce_trajectory.csv", "bounce_histogram_position.csv",
                 "bounce_histogram_momentum.csv", "bounce_draws.csv"):
        assert (tmp_path / name).exists(), name
    header, rows = read_csv(tmp_path / "bounce_histogram_momentum.csv")
    masses = [float(r[2]) for r in rows]
    assert abs(sum(masses) - 1.0) < 1e-9
    assert np.allclose(masses, masses[0])  # flat momentum histogram


def test_exit_code_config_error():
    cp = run_cli("classical", "--set", "potential.kind=closed_court",
                 "--set", "potential.a=25", "--set", "potential.v0=10",
                 "--set", "task.energy=5.0")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: config:")
    assert "\n" not in cp.stderr.strip()


def test_exit_code_missing_config_file():
    cp = run_cli("table1", "--config", "/definitely/not/a/file.ini")
    assert cp.returncode == 2


def test_exit_code_numerical_error():
    # nearest_level cannot find an eigenvalue in an empty search window
    cp = run_cli("momentum", "--set", "potential.kind=closed_court",
                 "--set", "potential.a=25", "--set", "potential.v0=10",
                 "--set", "task.energy=10.2", "--set", "task.search_width=0.01")
    assert cp.returncode == 3
    assert cp.stderr.startswith("error: numerical:")


# ---------------------------------------------------------------------------
# state selection: both wells, by index and by energy, and the rejections

CC10_ARGS = ("--set", "potential.kind=closed_court", "--set", "potential.a=25",
             "--set", "potential.v0=10", "--set", "task.e_max=12",
             "--set", "task.n_grid=2001")
IW_ARGS = ("--set", "potential.kind=infinite_well", "--set", "potential.a=25")


def read_column(path: Path, name: str) -> np.ndarray:
    header, rows = read_csv(path)
    return np.array([float(r[header.index(name)]) for r in rows])


def test_eigensolve_closed_court_by_index_and_parity(tmp_path: Path):
    cp = run_cli("eigensolve", "--out", str(tmp_path), *CC10_ARGS,
                 "--set", "task.index=2", "--set", "task.parity=even")
    assert cp.returncode == 0, cp.stderr
    spec = wp.closed_court(a=25.0, v0=10.0)
    even = [lv for lv in wp.spectrum(spec, 12.0) if lv.parity == "even"]
    assert np.array_equal(read_column(tmp_path / "eigenvalues.csv", "energy"),
                          [lv.energy for lv in even])
    state = wp.eigenstate_closed_court(spec, even[1].energy, "even", n_grid=2001, index=2)
    psi = read_column(tmp_path / "wavefunction.csv", "psi")
    assert np.allclose(psi, state.psi, rtol=0.0, atol=1e-12)


def test_eigensolve_closed_court_by_energy(tmp_path: Path, table1_levels):
    spec, level = table1_levels[0]  # nearest level to E = 10.066 at V0 = 10
    cp = run_cli("eigensolve", "--out", str(tmp_path), *CC10_ARGS,
                 "--set", "task.energy=10.066")
    assert cp.returncode == 0, cp.stderr
    assert level.energy in read_column(tmp_path / "eigenvalues.csv", "energy")
    state = wp.eigenstate_closed_court(spec, level.energy, level.parity, n_grid=2001,
                                       index=level.index)
    psi = read_column(tmp_path / "wavefunction.csv", "psi")
    assert np.allclose(psi, state.psi, rtol=0.0, atol=1e-12)


def test_momentum_infinite_well_writes_delta_masses(tmp_path: Path):
    cp = run_cli("momentum", "--out", str(tmp_path), *IW_ARGS,
                 "--set", "task.index=3", "--set", "task.parity=odd",
                 "--set", "task.n_grid=6001", "--set", "task.n_points=801")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "classical_momentum_delta.csv")
    assert header == ["p", "mass"]
    p_plus = 3.0 * np.pi / 25.0  # k = n pi / a for odd states, hbar = 2m = 1
    assert np.allclose(sorted(float(r[0]) for r in rows), [-p_plus, p_plus], rtol=1e-14)
    assert [float(r[1]) for r in rows] == [0.5, 0.5]
    assert (tmp_path / "momentum_wavefunction.csv").exists()


@pytest.mark.parametrize("args", [
    ("momentum", *IW_ARGS),
    ("momentum", "--set", "potential.kind=closed_court", "--set", "potential.a=25",
     "--set", "potential.v0=10"),
    ("momentum", "--set", "potential.kind=bouncer", "--set", "task.energy=2.0"),
    ("eigensolve", *IW_ARGS, "--set", "task.index=2"),
    ("eigensolve", *IW_ARGS, "--set", "task.energy=1.0"),
    ("eigensolve", *CC10_ARGS, "--set", "task.index=2"),
], ids=["infinite-well-without-index", "closed-court-without-energy", "bouncer",
        "eigensolve-infinite-well-index-without-parity",
        "eigensolve-infinite-well-by-energy",
        "eigensolve-closed-court-index-without-parity"])
def test_momentum_state_selection_config_errors(tmp_path: Path, args):
    cp = run_cli(*args, "--out", str(tmp_path))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: config:")
    assert "\n" not in cp.stderr.strip()
    assert not any(tmp_path.iterdir())  # a rejected request writes nothing


@pytest.mark.parametrize("args", [IW_ARGS, CC10_ARGS], ids=["infinite-well", "closed-court"])
def test_eigensolve_listing_without_state(tmp_path: Path, args):
    cp = run_cli("eigensolve", "--out", str(tmp_path), *args, "--set", "task.e_max=1")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "eigenvalues.csv").exists()
    assert not (tmp_path / "wavefunction.csv").exists()
