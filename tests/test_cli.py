import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import wellprob as wp
from wellprob import cli


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
                 "--set", "task.energy=10.0")
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
                 "--set", "task.energy=10.19", "--set", "task.search_width=0.001")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1
    assert rows[0][header.index("flag")].startswith("no-eigenvalue")
    assert rows[0][header.index("plateau_height")] == "nan"


def test_sweep_flags_row_whose_window_exceeds_the_well(tmp_path: Path):
    # at V0 = 10.01 the level nearest 10.07 has p_minus = 0.249, so the window
    # 2 pi hbar / p_minus = 25.2 reaches past a = 25; the other rows compare
    cp = run_cli("sweep", "--out", str(tmp_path), "--set", "task.v0_list=10,10.01,6",
                 "--set", "task.energy=10.07")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 3
    flags = [row[header.index("flag")] for row in rows]
    assert flags[0] == "" and flags[2] == ""
    assert flags[1].startswith("window-exceeds-well")
    assert rows[1][header.index("l2_gap_position")] == "nan"
    assert rows[1][header.index("parity")] in ("even", "odd")


def test_bounce_sim_outputs(tmp_path: Path):
    cp = run_cli("bounce-sim", "--out", str(tmp_path), "--set", "task.seed=12345")
    assert cp.returncode == 0, cp.stderr
    for name in ("bounce_trajectory.csv", "bounce_histogram_position.csv",
                 "bounce_histogram_momentum.csv", "bounce_draws.csv"):
        assert (tmp_path / name).exists(), name
    header, rows = read_csv(tmp_path / "bounce_histogram_momentum.csv")
    masses = [float(r[2]) for r in rows]
    assert abs(sum(masses) - 1.0) < 1e-9
    assert np.allclose(masses, masses[0])  # flat momentum histogram


def test_exit_code_config_error():
    # E = 5 < V0 = 10 is outside the supported regime, which the computation
    # (not the config) rejects
    cp = run_cli("classical", "--set", "potential.kind=closed_court",
                 "--set", "potential.a=25", "--set", "potential.v0=10",
                 "--set", "task.energy=5.0")
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: regime:")
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


# ---------------------------------------------------------------------------
# the column-wise CSV writer against the one-value-at-a-time reference

_BLOCK = cli._BLOCK_ROWS
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_SCALARS = st.one_of(st.floats(), st.integers(), st.booleans(), _TEXT)
_EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]


@st.composite
def _column(draw, n_rows: int):
    kind = draw(st.sampled_from(["float64", "float64-view", "float32", "int", "str",
                                 "bool", "mixed"]))
    if kind.startswith("float64"):
        col = draw(hnp.arrays(np.float64, 2 * n_rows,
                              elements=st.floats(allow_subnormal=True)
                              | st.sampled_from(_EDGE_FLOATS)))
        return col[::2] if kind == "float64-view" else col[:n_rows]
    if kind == "float32":
        return draw(hnp.arrays(np.float32, n_rows, elements=st.floats(width=32)))
    if kind == "int":
        return draw(hnp.arrays(np.int64, n_rows)).tolist()
    if kind == "bool":
        return draw(hnp.arrays(np.bool_, n_rows)).tolist()
    pool = draw(st.lists(_TEXT if kind == "str" else _SCALARS, min_size=1, max_size=8))
    return [pool[i % len(pool)] for i in range(n_rows)]


@st.composite
def _tables(draw):
    n_rows = draw(st.sampled_from([0, 1, _BLOCK, _BLOCK + 1]) | st.integers(0, 3 * _BLOCK))
    columns = draw(st.lists(_column(n_rows), min_size=1, max_size=5))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=60, deadline=None)
@example(table=(["x", "y"], [np.array(_EDGE_FLOATS), np.array(_EDGE_FLOATS[::-1])]))
@example(table=(["key", "value"], [["energy", "parity", "index", "flag"],
                                   [10.066, "odd", 3, True]]))
@given(table=_tables())
def test_writer_bytes_equal_reference(tmp_path_factory, table):
    header, columns = table
    d = tmp_path_factory.mktemp("csv")
    got = cli._write_csv(d / "columns.csv", header, columns)
    ref = oracles.write_csv_rows(d / "rows.csv", header, zip(*columns))
    assert got == d / "columns.csv"
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("columns", [
    (np.zeros(3), np.zeros(4)),
    (np.zeros(_BLOCK + 1), list(range(_BLOCK))),
    (["a"], []),
    (np.zeros(3),),
], ids=["short-second", "short-list", "empty-second", "missing-column"])
def test_writer_rejects_columns_that_do_not_fill_the_table(tmp_path: Path, columns):
    with pytest.raises(ValueError, match="do not fill"):
        cli._write_csv(tmp_path / "bad.csv", ("a", "b"), columns)


def test_writer_memory_is_bounded_by_the_block(tmp_path: Path):
    # a 12001-row table is the default eigenstate grid; formatting it whole
    # holds every line at once (about 2.1 MB), one block about 0.3 MB
    x = np.linspace(-25.0, 25.0, 12001)
    columns = (x, np.sin(x), np.sin(x) ** 2)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "table.csv", ("x", "psi", "density"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6, peak
    assert (tmp_path / "table.csv").read_bytes().count(b"\n") == 12002


_BYTE_IDENTITY_RUNS = {
    "table1": ("table1",),
    "sweep": ("sweep",),
    "eigensolve-closed-court": ("eigensolve", *CC10_ARGS, "--set", "task.energy=10.066"),
    "eigensolve-infinite-well": ("eigensolve", *IW_ARGS, "--set", "task.e_max=0.1",
                                 "--set", "task.index=2", "--set", "task.parity=odd"),
    "momentum-closed-court": ("momentum", "--set", "potential.kind=closed_court",
                              "--set", "potential.a=25", "--set", "potential.v0=10",
                              "--set", "task.energy=10.066"),
    "momentum-infinite-well": ("momentum", *IW_ARGS, "--set", "task.index=3",
                               "--set", "task.parity=even"),
    "classical-bouncer": ("classical", "--set", "potential.kind=bouncer",
                          "--set", "task.energy=2", "--set", "task.n_bins=20",
                          "--set", "task.n_draws=1500"),
    "classical-infinite-well": ("classical", *IW_ARGS, "--set", "task.energy=4",
                                "--set", "task.n_bins=20", "--set", "task.n_draws=500"),
    "classical-closed-court": ("classical", "--set", "potential.kind=closed_court",
                               "--set", "potential.a=25", "--set", "potential.v0=10",
                               "--set", "task.energy=10.5", "--set", "task.n_bins=20",
                               "--set", "task.n_draws=500"),
    "bounce-sim": ("bounce-sim",),
}


def _reference_writer(path, header, columns):
    assert len(columns) == len(header)
    assert len({len(col) for col in columns}) <= 1
    return oracles.write_csv_rows(path, header, zip(*columns))


def test_cli_csv_bytes_equal_reference_writer(tmp_path: Path, monkeypatch, capsys):
    for name, argv in _BYTE_IDENTITY_RUNS.items():
        assert cli.main([*argv, "--out", str(tmp_path / "package" / name)]) == 0, name
    monkeypatch.setattr(cli, "_write_csv", _reference_writer)
    for name, argv in _BYTE_IDENTITY_RUNS.items():
        assert cli.main([*argv, "--out", str(tmp_path / "reference" / name)]) == 0, name
    capsys.readouterr()
    for name in _BYTE_IDENTITY_RUNS:
        package = sorted((tmp_path / "package" / name).iterdir())
        reference = sorted((tmp_path / "reference" / name).iterdir())
        assert [p.name for p in package] == [p.name for p in reference], name
        for got, ref in zip(package, reference):
            assert got.read_bytes() == ref.read_bytes(), (name, got.name)


# ---------------------------------------------------------------------------
# the parser is built once; configs are checked before anything runs

def test_parser_is_shared_without_leaking_overrides(tmp_path: Path, capsys):
    assert cli.build_parser() is cli.build_parser()
    bouncer = ("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2")
    assert cli.main([*bouncer, "--set", "task.n_bins=8", "--set", "task.n_draws=50",
                     "--out", str(tmp_path / "first")]) == 0
    assert cli.main([*bouncer, "--out", str(tmp_path / "second")]) == 0
    capsys.readouterr()
    first = {p.name for p in (tmp_path / "first").iterdir()}
    second = {p.name for p in (tmp_path / "second").iterdir()}
    assert {"draws.csv", "histogram_position.csv"} <= first
    assert second == {"classical_position.csv", "classical_momentum.csv",
                      "classical_meta.csv"}


@pytest.mark.parametrize("args", [
    ("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2",
     "--set", "task.n_bins=1"),
    ("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2",
     "--set", "task.n_bins=-3"),
    ("bounce-sim", "--set", "task.n_bins=1"),
    ("bounce-sim", "--set", "task.n_bins=-3"),
    ("bounce-sim", "--set", "task.n_draws=10000001"),
    ("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2",
     "--set", "task.n_draws=10000001"),
], ids=["classical-n_bins-1", "classical-n_bins-negative", "bounce-sim-n_bins-1",
        "bounce-sim-n_bins-negative", "bounce-sim-n_draws-over-cap",
        "classical-n_draws-over-cap"])
def test_bad_task_sizes_exit_2_before_any_work(tmp_path: Path, capsys, args):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main([*args, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "task.n_" in err
    assert "\n" not in err.strip()
    assert peak < 1e6, peak  # nothing sized by the task was allocated
    assert not out.exists()


CC10_KIND = ("--set", "potential.kind=closed_court", "--set", "potential.a=25",
             "--set", "potential.v0=10")


@pytest.mark.parametrize("args, category", [
    (("eigensolve", *CC10_KIND, "--set", "task.e_max=inf"), "config"),
    (("eigensolve", *CC10_KIND, "--set", "task.e_max=nan"), "config"),
    (("eigensolve", *CC10_KIND, "--set", "task.e_max=6000"), "regime"),
    (("table1", "--set", "task.search_width=-1"), "config"),
    (("table1", "--set", "task.search_width=0"), "config"),
    (("table1", "--set", "task.search_width=nan"), "config"),
    (("sweep", "--set", "task.search_width=-2"), "config"),
    (("sweep", "--set", "task.energy=nan"), "config"),
    (("sweep", "--set", "task.e_target=nan"), "config"),  # the removed spelling
    (("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2",
      "--set", "constants.hbar=-1"), "config"),
    (("sweep", "--set", "task.v0_list=10,nan"), "config"),
], ids=["eigensolve-e_max-inf", "eigensolve-e_max-nan", "eigensolve-e_max-past-airy-range",
        "table1-search_width-negative", "table1-search_width-0", "table1-search_width-nan",
        "sweep-search_width-negative", "sweep-energy-nan", "sweep-e_target-nan",
        "classical-hbar-negative",
        "sweep-v0_list-nan"])
def test_unusable_values_exit_2(tmp_path: Path, capsys, args, category):
    # before these checks: a scan without end, a header-only listing,
    # "no eigenvalue" (exit 3), every row flagged (exit 0) or a traceback (exit 1);
    # an e_max past the Airy range is rejected by the scan, as a regime error
    assert cli.main([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("command", ["momentum", "eigensolve"])
@pytest.mark.parametrize("index", ["0", "-2"])
def test_state_index_below_one_exits_2(tmp_path: Path, command, index):
    # index 0 under momentum once ended in a ValueError traceback (exit 1)
    cp = run_cli(command, *IW_ARGS, "--set", f"task.index={index}",
                 "--set", "task.parity=even", "--out", str(tmp_path / "out"))
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: config: task.index must be >= 1")
    assert not (tmp_path / "out").exists()


def test_infinite_well_listing_past_the_level_cap_fails_fast(tmp_path: Path, capsys):
    # at a = 25, e_max = 1e8 holds about 1.6e5 levels, more than a spectrum holds
    out = tmp_path / "out"
    start = time.perf_counter()
    code = cli.main(["eigensolve", *IW_ARGS, "--set", "task.e_max=1e8", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error: regime:")
    assert not out.exists()


def _raise_support_error(*args, **kwargs):
    raise wp.SupportError("grid leaves the allowed region")


@pytest.mark.parametrize("args, category, code", [
    (("momentum", *IW_ARGS), "config", 2),
    (("classical", *CC10_KIND, "--set", "task.energy=5"), "regime", 2),
    (("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2"), "support", 2),
    (("momentum", *IW_ARGS, "--set", "task.index=3", "--set", "task.parity=even",
      "--set", "task.n_grid=101"), "resolution", 2),
    (("momentum", *CC10_KIND, "--set", "task.energy=10.2", "--set", "task.search_width=0.01"),
     "numerical", 3),
], ids=["config", "regime", "support", "resolution", "numerical"])
def test_each_error_category_has_its_label_and_exit_code(tmp_path: Path, capsys, monkeypatch,
                                                          args, category, code):
    if category == "support":  # no CLI input reaches a SupportError: the default grids
        # stay inside the allowed region, so the density raises it here
        monkeypatch.setattr(cli, "classical_position_density", _raise_support_error)
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}: ")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("args, message", [
    (("sweep", "--set", "task.v0_list=-1"), "task.v0_list entry must be >= 0"),
    (("sweep", "--set", "potential.a=-3"), "potential.a must be > 0"),
    (("classical", *CC10_KIND, "--set", "potential.a=0", "--set", "task.energy=10.066"),
     "potential.a must be > 0"),
    (("classical", "--set", "potential.kind=closed_court", "--set", "potential.a=25",
      "--set", "potential.v0=-1", "--set", "task.energy=2"), "potential.v0 must be >= 0"),
    (("bounce-sim", "--set", "task.seed=-3"), "task.seed must be in [0, 2^128)"),
    (("bounce-sim", "--set", f"task.seed={2 ** 128}"), "task.seed must be in [0, 2^128)"),
    (("bounce-sim", "--set", "task.n_draws=-1"), "task.n_draws must be >= 0"),
    (("classical", "--set", "potential.kind=bouncer", "--set", "task.energy=2",
      "--set", "task.n_draws=-5"), "task.n_draws must be >= 0"),
    (("classical", *IW_ARGS, "--set", "potential.v0=3", "--set", "task.energy=4"),
     "v0 applies to the closed court only"),
    (("classical", "--set", "potential.kind=bouncer", "--set", "potential.v0=1",
      "--set", "task.energy=2"), "v0 applies to the closed court only"),
], ids=["sweep-v0_list-negative", "sweep-a-negative", "classical-a-zero",
        "classical-v0-negative", "bounce-sim-seed-negative", "bounce-sim-seed-2^128",
        "bounce-sim-n_draws-negative", "classical-n_draws-negative",
        "classical-infinite-well-v0", "classical-bouncer-v0"])
def test_out_of_range_values_exit_2_as_config_errors(tmp_path: Path, args, message):
    # these were ValueError tracebacks (exit 1), or a negative n_draws read as
    # "no draws" by classical and as 1000 draws by bounce-sim, or a v0 that
    # the bouncer and the infinite well dropped without a word
    cp = run_cli(*args, "--out", str(tmp_path / "out"))
    assert cp.returncode == 2
    assert cp.stderr.startswith(f"error: config: {message}")
    assert "\n" not in cp.stderr.strip()
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_a_philox_key(tmp_path: Path):
    assert cli.main(["bounce-sim", "--set", f"task.seed={2 ** 128 - 1}",
                     "--out", str(tmp_path)]) == 0


def test_classical_closed_court_near_the_infinite_well(tmp_path: Path):
    # at V0 = 1e-12 the old nodes, uniform in sqrt(E - V), collapsed into a
    # grid that was not increasing (a ValueError traceback, exit 1)
    cp = run_cli("classical", "--set", "potential.kind=closed_court", "--set", "potential.a=25",
                 "--set", "potential.v0=1e-12", "--set", "task.energy=10",
                 "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    x, density = np.loadtxt(tmp_path / "classical_position.csv", delimiter=",",
                            skiprows=1, unpack=True)
    meta = dict(row for row in read_csv(tmp_path / "classical_meta.csv")[1])
    assert abs(np.trapezoid(density, x) + float(meta["position_omitted_mass"]) - 1.0) < 1e-9
    p, p_density = np.loadtxt(tmp_path / "classical_momentum.csv", delimiter=",",
                              skiprows=1, unpack=True)
    assert np.all(np.diff(p) > 0.0)
    # the band is 1.6e-13 wide: a plateau from the exact sides/(T F), not from
    # the rounded band edges, gave it a mass of 1.0027
    mass = sum(np.trapezoid(p_density[band], p[band]) for band in (p < 0.0, p > 0.0))
    assert abs(mass - 1.0) <= 1e-12, mass
