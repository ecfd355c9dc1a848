import math
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import wellprob as wp
from wellprob import _csvfmt, cli


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


def test_classical_meta_of_the_infinite_well_has_a_band_of_no_width(tmp_path: Path):
    # the infinite well is the closed court's F = 0 arc: p_minus = p_plus, delta_p = 0
    assert cli.main(["classical", "--out", str(tmp_path),
                     "--set", "potential.kind=infinite_well", "--set", "potential.a=25",
                     "--set", "task.energy=4.0"]) == 0
    header, rows = read_csv(tmp_path / "classical_meta.csv")
    meta = {key: float(value) for key, value in rows}
    assert meta["p_minus"] == meta["p_plus"] == 2.0
    assert meta["delta_p"] == 0.0


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


def test_sweep_reaches_the_infinite_well_limit(tmp_path: Path):
    # no origin argument is too deep for the level solve: every row down to
    # V0 = 1e-8 finds its level and compares
    assert cli.main(["sweep", "--out", str(tmp_path), "--set",
                     "task.v0_list=10,1,0.01,0.0001,1e-06,1e-08", "--set", "task.energy=10"]) == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 6
    assert [row[header.index("flag")] for row in rows] == [""] * 6


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


def _bounce_sim_bytes(out: Path, *sets: str) -> dict:
    argv = ["bounce-sim", "--out", str(out), "--set", "task.seed=7"]
    for s in sets:
        argv += ["--set", s]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_bounce_sim_reads_mass_and_g(tmp_path: Path, capsys):
    # with no potential.kind the bouncer is the config's, constants included
    default = _bounce_sim_bytes(tmp_path / "default")
    heavy = ("constants.g=2", "constants.mass=3")
    implicit = _bounce_sim_bytes(tmp_path / "implicit", *heavy)
    explicit = _bounce_sim_bytes(tmp_path / "explicit", "potential.kind=bouncer", *heavy)
    capsys.readouterr()
    assert implicit == explicit
    assert implicit["bounce_trajectory.csv"] != default["bounce_trajectory.csv"]
    # E = 2 at m g = 6: the apex is at H = E / (m g) = 1/3
    z = read_column(tmp_path / "implicit" / "bounce_trajectory.csv", "z")
    assert z.max() == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_quantum_number_columns(tmp_path: Path, capsys):
    # n is appended to each table; every earlier column keeps its place
    assert cli.main(["table1", "--out", str(tmp_path / "t1")]) == 0
    header, rows = read_csv(tmp_path / "t1" / "table1.csv")
    assert header.index("n") == len(header) - 1 and header.index("index") == 4
    assert [(r[header.index("index")], r[-1]) for r in rows] == [
        ("1", "34"), ("8", "42"), ("17", "48")]
    assert cli.main(["eigensolve", "--out", str(tmp_path / "iw"), *IW_ARGS,
                     "--set", "task.e_max=0.1"]) == 0
    header, rows = read_csv(tmp_path / "iw" / "eigenvalues.csv")
    assert header == ["index", "parity", "energy", "residual", "n"]
    assert [int(r[4]) for r in rows] == [
        2 * int(r[0]) - (r[1] == "even") for r in rows] == list(range(1, len(rows) + 1))
    assert cli.main(["momentum", "--out", str(tmp_path / "mom"), *CC10_ARGS,
                     "--set", "task.energy=10.066", "--set", "task.n_grid=6001",
                     "--set", "task.n_points=101"]) == 0
    _, meta = read_csv(tmp_path / "mom" / "momentum_meta.csv")
    assert [r[0] for r in meta] == ["energy", "parity", "index", "residual", "hbar", "n"]
    assert meta[-1][1] == "34"
    assert cli.main(["sweep", "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    header, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert header[-2:] == ["flag", "n"]
    assert [r[-1] for r in rows] == ["34", "42", "48"]


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


def test_eigensolve_by_energy_writes_the_listed_level(tmp_path: Path, capsys):
    # an even-only listing: the nearest level to 10.066 is odd (n = 34), and
    # was written beside a listing that does not hold it
    assert cli.main(["eigensolve", "--out", str(tmp_path), *CC10_ARGS,
                     "--set", "task.parity=even", "--set", "task.energy=10.066"]) == 0
    energies = read_column(tmp_path / "eigenvalues.csv", "energy")
    psi = read_column(tmp_path / "wavefunction.csv", "psi")
    spec = wp.closed_court(a=25.0, v0=10.0)
    level = next(lv for lv in wp.spectrum(spec, 12.0) if lv.n == 35)
    assert level.parity == "even" and level.energy == energies[0]
    assert level.energy == pytest.approx(10.30606, abs=1e-5)
    state = wp.eigenstate_closed_court(spec, level.energy, "even", n_grid=2001, index=1)
    assert np.array_equal(psi, state.psi)


def test_eigensolve_by_energy_above_the_listing_exits_3(tmp_path: Path, capsys):
    # e_max = 10.05 lists no level near 10.066; the level at 10.06592 was written
    out = tmp_path / "out"
    assert cli.main(["eigensolve", "--out", str(out), *CC10_ARGS,
                     "--set", "task.e_max=10.05", "--set", "task.energy=10.066"]) == 3
    assert capsys.readouterr().err.startswith("error: numerical: no listed level")
    assert not out.exists()


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
    # and a mixed table: every cell of a block goes through fmt, row by row
    n = 12001
    columns = (list(range(-n, n, 2)), [f"s{i % 97}\u00e9" for i in range(n)],
               [i % 3 == 0 for i in range(n)], x)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "mixed.csv", ("i", "s", "b", "x"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6, peak
    ref = oracles.write_csv_rows(tmp_path / "mixed-rows.csv", ("i", "s", "b", "x"), zip(*columns))
    assert (tmp_path / "mixed.csv").read_bytes() == ref.read_bytes()


def test_writer_memory_with_one_wide_text_cell(tmp_path: Path):
    # a cell is laid out at its own width, not padded to its column's widest
    columns = (list(range(_BLOCK)), ["x"] * (_BLOCK - 1) + ["y" * 200_000])
    tracemalloc.start()
    try:
        got = cli._write_csv(tmp_path / "wide.csv", ("i", "s"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak
    ref = oracles.write_csv_rows(tmp_path / "rows.csv", ("i", "s"), zip(*columns))
    assert got.read_bytes() == ref.read_bytes()


def _exact_ties(rng) -> list:
    """Doubles x = r / 2^e (r odd) whose x 10^(16 - k), k = floor(log10 |x|),
    is a half-integer: 17-digit rounding ties, such as 1523937510000000.25."""
    ties = [1523937510000000.25]
    for e in range(2, 25):  # k = 17 - e
        lo = math.ceil(Fraction(10) ** (17 - e) * 2 ** e)
        hi = min(math.floor(Fraction(10) ** (18 - e) * 2 ** e), 2 ** 53)
        for r in rng.integers(lo, hi, size=40) | 1:
            x = int(r) / 2 ** e
            k = Decimal(x).adjusted()
            if (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2:
                ties.append(x)
    return ties


def _hand_backs(monkeypatch) -> list:
    """Record the values the float kernel hands to ``fmt`` one at a time."""
    seen, one_value = [], _csvfmt.fmt

    def fmt(value):
        seen.append(value)
        return one_value(value)

    monkeypatch.setattr(_csvfmt, "fmt", fmt)
    return seen


def test_writer_float_cells_equal_percent_17g(tmp_path: Path, monkeypatch):
    rng = np.random.default_rng(20)
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    ties = np.array(_exact_ties(rng))
    assert len(ties) > 400
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                        99999999999999999.0, 9.9999999999999995e16, 1e-5, 0.0001, 1e16, 1e17])
    subnormals = rng.integers(1, 2 ** 52, size=1000).view(np.float64)
    finite = np.concatenate([powers, ties, special, subnormals])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        finite = np.concatenate([finite, np.nextafter(finite, np.inf),
                                 np.nextafter(finite, -np.inf)])
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(np.float64)
    values = np.concatenate([finite, -finite, bits])
    handed_back = _hand_backs(monkeypatch)
    chunk = 1 << 17
    for start in range(0, len(values), chunk):
        col = values[start:start + chunk]
        got = cli._write_csv(tmp_path / "x.csv", ("x",), (col,)).read_text().split("\n")
        assert got[0] == "x" and got[-1] == ""
        expected = ["%.17g" % v for v in col.tolist()]
        bad = [(v, g) for v, g, e in zip(col.tolist(), got[1:-1], expected) if g != e]
        assert len(got) == len(col) + 2 and not bad, bad[:5]
    # what the kernel hands back is non-finite, outside [1e-280, 1e280] or
    # within 1e-6 of a rounding tie, judged on the exact value; the ties all
    # come back
    assert set(ties.tolist()) <= set(handed_back)
    with localcontext() as ctx:
        ctx.prec = 1200
        for v in handed_back:
            if math.isfinite(v) and 1e-280 <= abs(v) <= 1e280:
                d = abs(Decimal(v))
                y = d.scaleb(16 - d.adjusted())
                assert abs(y - int(y) - Decimal("0.5")) < Decimal("1e-6"), v


def test_writer_takes_no_fallback_on_a_grid_and_its_sine(tmp_path: Path, monkeypatch):
    x = np.linspace(-25.0, 25.0, 12001)
    handed_back = _hand_backs(monkeypatch)
    got = cli._write_csv(tmp_path / "grid.csv", ("x", "psi"), (x, np.sin(x)))
    assert handed_back == []
    ref = oracles.write_csv_rows(tmp_path / "rows.csv", ("x", "psi"), zip(x, np.sin(x)))
    assert got.read_bytes() == ref.read_bytes()


def _layout_key(cell: str) -> tuple:
    """(form, last, sign) of a ``%.17g`` cell: form is the exponent k for
    0 <= k <= 16 and for the 0.ddd forms (-4 <= k <= -1), "e2" or "e3" for
    the exponent form by its exponent's digits, "zero" for +-0; last is the
    place of the last nonzero digit among the 17."""
    sign, body = cell.startswith("-"), cell.lstrip("-")
    if body == "0":
        return "zero", 0, sign
    if "e" in body:
        mantissa, exponent = body.split("e")
        form, digits = ("e3" if abs(int(exponent)) >= 100 else "e2"), mantissa.replace(".", "")
    elif body.startswith("0."):
        fraction = body[2:]
        digits = fraction.lstrip("0")
        form = len(digits) - len(fraction) - 1
    else:
        form, digits = len(body.split(".")[0]) - 1, body.replace(".", "")
    return form, len(digits.rstrip("0")) - 1, sign


def _near_tie(v: float) -> bool:
    """Whether |v| 10^(16 - k) lies within 1e-6 of a half-integer."""
    d = abs(Decimal(v))
    y = d.scaleb(16 - d.adjusted())
    return abs(y - int(y) - Decimal("0.5")) < Decimal("1e-6")


def test_writer_formats_every_layout_code(tmp_path: Path, monkeypatch):
    # one value for each form, last nonzero digit and sign the float kernel
    # lays out, found by trial from random digits and skipping the near-ties
    # it hands back; all of them go through the kernel, none through fmt
    rng = np.random.default_rng(28)
    exponents = {**{k: [k] for k in range(-4, 17)},
                 "e2": [-5, -17, -99, 17, 42, 99], "e3": [-100, -280, -123, 100, 279, 201]}
    values = [0.0, -0.0]
    for form, ks in exponents.items():
        for last in range(17):
            for sign in (False, True):
                for _ in range(500):
                    d = rng.integers(0, 10, 17)
                    d[0] = d[last] = rng.integers(1, 10)
                    digits = "".join(map(str, d[1:last + 1]))
                    v = float(f"{'-' if sign else ''}{d[0]}.{digits}e{rng.choice(ks)}")
                    if _layout_key("%.17g" % v) == (form, last, sign) and not _near_tie(v):
                        values.append(v)
                        break
                else:
                    pytest.fail(f"no value found for {(form, last, sign)}")
    assert len({_layout_key("%.17g" % v) for v in values}) == 23 * 17 * 2 + 2
    handed_back = _hand_backs(monkeypatch)
    got = cli._write_csv(tmp_path / "x.csv", ("x",), (np.array(values),)).read_text()
    assert got.split("\n")[1:-1] == ["%.17g" % v for v in values]
    assert handed_back == []


@st.composite
def _float_tables(draw):
    """1-5 float64 columns of 1-2100 rows, so blocks split mid-table: random
    bit patterns, values spread over decades, short decimals, specials."""
    n_rows, n_cols = draw(st.integers(1, 2100)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for form in draw(st.lists(st.sampled_from(["bits", "decades", "short", "special"]),
                              min_size=n_cols, max_size=n_cols)):
        if form == "bits":
            col = rng.integers(0, 2 ** 64, n_rows, dtype=np.uint64).view(np.float64)
        elif form == "decades":
            col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
        elif form == "short":
            col = np.round(rng.standard_normal(n_rows) * 10.0 ** rng.integers(-3, 6), 4)
        else:
            col = rng.choice(np.array(_EDGE_FLOATS + [0.5, 100.0, 1e16, 1e17, 1e-5]), n_rows)
        columns.append(col)
    return [f"c{i}" for i in range(n_cols)], columns


@settings(max_examples=40, deadline=None)
@example(table=(["x", "y"], [np.linspace(-1.0, 1.0, 2 * _BLOCK + 1),
                             np.full(2 * _BLOCK + 1, -0.0)]))
@given(table=_float_tables())
def test_writer_float_tables_equal_reference(tmp_path_factory, table):
    header, columns = table
    d = tmp_path_factory.mktemp("floats")
    got = cli._write_csv(d / "columns.csv", header, columns)
    ref = oracles.write_csv_rows(d / "rows.csv", header, zip(*columns))
    assert got.read_bytes() == ref.read_bytes()


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


def test_cli_blocks_are_all_float64_arrays_or_hold_none(tmp_path: Path, monkeypatch, capsys):
    # the writer's kernel takes a block whose columns are all float64 arrays;
    # a block that mixes them with other columns goes value by value
    kinds, encode_rows = [], cli.encode_rows

    def spy(columns):
        kinds.append({isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns})
        return encode_rows(columns)

    monkeypatch.setattr(cli, "encode_rows", spy)
    for name, argv in _BYTE_IDENTITY_RUNS.items():
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
    capsys.readouterr()
    assert {True} in kinds and {False} in kinds
    assert all(len(k) == 1 for k in kinds), kinds


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
    (("eigensolve", *CC10_KIND, "--set", "task.e_max=1e9"), "regime"),
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
    # an e_max past the Airy range is rejected by the level solve, as a regime error
    assert cli.main([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}:")
    assert "\n" not in err.strip()


_BOUNCER = ("potential.kind=bouncer",)
_IW = ("potential.kind=infinite_well", "task.index=2", "task.parity=odd")


@pytest.mark.parametrize("command, sets", [
    ("classical", (*_BOUNCER, "constants.g=1e-200", "task.energy=1e200")),
    ("classical", (*_BOUNCER, "constants.g=1e-8", "task.energy=1e300")),
    ("classical", (*_BOUNCER, "task.energy=1e-310")),
    ("classical", (*_BOUNCER, "constants.g=1e8", "task.energy=1e-300")),
    ("bounce-sim", ("constants.mass=1e-300", "task.energy=1e-300")),
    ("bounce-sim", ("constants.mass=1e200",)),
    ("bounce-sim", ("constants.g=1e200", "task.energy=1e-300")),
    ("momentum", (*_IW, "potential.a=1e6", "constants.hbar=1e200")),
    ("momentum", (*_IW, "potential.a=1e-9", "constants.mass=1e-300")),
    ("eigensolve", ("potential.kind=closed_court", "potential.a=1e200", "potential.v0=1e-300",
                    "task.energy=10.5")),
    ("eigensolve", ("potential.kind=closed_court", "potential.a=25", "potential.v0=10",
                    "constants.hbar=1e200")),
], ids=["bouncer-x_out-overflows", "bouncer-x_out-overflows-at-1e300",
        "bouncer-density-overflows", "bouncer-density-overflows-at-g-1e8",
        "bounce-sim-p_plus-underflows", "bounce-sim-2mF-overflows",
        "bounce-sim-x_out-underflows", "infinite-well-energy-overflows",
        "infinite-well-energy-over-mass-overflows", "closed-court-airy-scales-nan",
        "closed-court-hbar-squared-overflows"])
def test_scales_out_of_double_range_exit_2(tmp_path: Path, command, sets):
    # before these checks: a traceback (exit 1), or exit 0 with inf or nan
    # densities in the CSV files; and classical, bounce-sim and momentum
    # once made the output directory before the work that fails, leaving it empty
    argv = [command, "--out", str(tmp_path / "out")]
    for s in sets:
        argv += ["--set", s]
    cp = run_cli(*argv)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr.startswith("error: regime:")
    assert cp.stderr.count("\n") == 1, cp.stderr
    assert not (tmp_path / "out").exists()


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
    (("classical", "--set", "potential.kind=bouncer", "--set", "potential.a=7",
      "--set", "task.energy=2"), "a applies to the wells only"),
    (("sweep", "--set", "task.v0_list=10", "--set", "potential.kind=bouncer"),
     "sweep runs the closed court only"),
    (("sweep", "--set", "task.v0_list=10", "--set", "potential.v0=3"),
     "sweep takes V0 from task.v0_list"),
    (("sweep", "--set", "task.v0_list="), "task.v0_list is empty"),
], ids=["sweep-v0_list-negative", "sweep-a-negative", "classical-a-zero",
        "classical-v0-negative", "bounce-sim-seed-negative", "bounce-sim-seed-2^128",
        "bounce-sim-n_draws-negative", "classical-n_draws-negative",
        "classical-infinite-well-v0", "classical-bouncer-v0", "classical-bouncer-a",
        "sweep-bouncer", "sweep-v0", "sweep-v0_list-empty"])
def test_out_of_range_values_exit_2_as_config_errors(tmp_path: Path, args, message):
    # these were ValueError tracebacks (exit 1), or a negative n_draws read as
    # "no draws" by classical and as 1000 draws by bounce-sim, or a v0 that
    # the bouncer and the infinite well dropped without a word (and an a
    # that the bouncer dropped, and a kind or v0 that sweep dropped)
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


# ---------------------------------------------------------------------------
# the arc decides: a zero-width band is the delta pair, whatever the kind

_CLASSICAL_FILES = ("task.n_bins=20", "task.n_draws=500")


def _classical_bytes(out: Path, *sets: str) -> dict:
    argv = ["classical", "--out", str(out)]
    for s in sets:
        argv += ["--set", s]
    assert cli.main(argv) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_classical_closed_court_at_v0_0_is_the_infinite_well(tmp_path: Path, capsys):
    # V0 = 0 was refused as "degenerate" (exit 2); its arc is the infinite well's
    court = _classical_bytes(tmp_path / "court", "potential.kind=closed_court", "potential.a=25",
                             "potential.v0=0", "task.energy=4", *_CLASSICAL_FILES)
    well = _classical_bytes(tmp_path / "well", "potential.kind=infinite_well", "potential.a=25",
                            "task.energy=4", *_CLASSICAL_FILES)
    assert "classical_momentum_delta.csv" in court
    assert court == well


def test_classical_closed_court_below_rounding_writes_the_delta_pair(tmp_path: Path, capsys):
    # V0 = 1e-17 leaves p_minus == p_plus at E = 10: "the momentum band has zero width", exit 2
    court = _classical_bytes(tmp_path / "court", "potential.kind=closed_court", "potential.a=25",
                             "potential.v0=1e-17", "task.energy=10")
    well = _classical_bytes(tmp_path / "well", "potential.kind=infinite_well", "potential.a=25",
                            "task.energy=10")
    assert "classical_momentum.csv" not in court
    assert court["classical_momentum_delta.csv"] == well["classical_momentum_delta.csv"]


def test_momentum_overlay_in_small_units_is_the_band(tmp_path: Path, capsys):
    # p_plus = 4.5e-15: an absolute 1e-12 slack put all 4001 momenta on the band, mass 8.68
    assert cli.main(["momentum", "--out", str(tmp_path), *CC10_KIND, "--set", "task.energy=10.066",
                     "--set", "constants.hbar=1e-15", "--set", "constants.mass=1e-30"]) == 0
    p, overlay = (read_column(tmp_path / "momentum_wavefunction.csv", name)
                  for name in ("p", "classical_density"))
    energy = float(dict(read_csv(tmp_path / "momentum_meta.csv")[1])["energy"])
    arc = wp.classical_state(wp.closed_court(a=25.0, v0=10.0, hbar=1e-15, mass=1e-30), energy)
    # the grid spans +-8 p_plus, so one node sits within rounding of each edge p_plus
    slack = 1e-12 * arc.p_plus
    band = (np.abs(p) >= arc.p_minus - slack) & (np.abs(p) <= arc.p_plus + slack)
    assert np.array_equal(overlay > 0.0, band) and np.mean(band) == pytest.approx(0.115, abs=1e-3)
    # the trapezoid misses at most half a cell of the plateau at each of the four edges
    assert abs(np.trapezoid(overlay, p) - 1.0) <= 2.0 * (p[1] - p[0]) * overlay.max()
