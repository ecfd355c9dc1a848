import re
import shutil
import sys
from pathlib import Path

import wellprob as wp

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import drift  # noqa: E402


def _copy_tree(root: Path) -> Path:
    shutil.copytree(Path(wp.__file__).parent, root / "src" / "wellprob",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _files(report: dict):
    return [(case, name, file) for case, run in report.items()
            for name, file in run["files"].items()]


def test_identical_trees_report_every_file_byte_identical(tmp_path: Path):
    old, new = _copy_tree(tmp_path / "old"), _copy_tree(tmp_path / "new")
    report = drift.compare_trees(old, new)
    assert set(report) == set(drift.MATRIX)
    for case, run in report.items():
        assert run["exit"] == [0, 0] and run["stderr_equal"], case
        assert run["files"] and not run["only_old"] and not run["only_new"], case
    assert all(file["byte_identical"] for _, _, file in _files(report))
    # residuals are noise on both sides: each side's peak, not their ratio
    peaks = [file["column_drift"]["residual"] for _, _, file in _files(report)
             if "residual" in file["column_drift"]]
    assert peaks and all(p["old"] == p["new"] for p in peaks)


def test_a_perturbed_constant_shows_as_drift(tmp_path: Path):
    old, new = _copy_tree(tmp_path / "old"), _copy_tree(tmp_path / "new")
    cli = new / "src" / "wellprob" / "cli.py"
    text, count = re.subn(r"\(10\.0, 25\.0, 10\.066,", "(10.0, 25.0, 10.0661,",
                          cli.read_text(encoding="utf-8"))
    assert count == 1
    cli.write_text(text, encoding="utf-8")
    report = drift.compare_trees(old, new, {"table1": drift.MATRIX["table1"]})
    table = report["table1"]["files"]["table1.csv"]
    assert not table["byte_identical"]
    assert table["header_equal"] and table["rows_equal"] and table["text_equal"]
    # the reference energy moved by 1e-4; the level it selects only by
    # rounding (the search window moved with it)
    assert abs(table["column_drift"]["energy_ref"] - 1e-4 / 10.105) < 1e-12
    assert table["column_drift"]["energy"] < 1e-14
    # |energy - energy_ref| moved by the same 1e-4, quoted against the energy
    # (about 10.105), not against the deviation itself
    assert abs(table["column_drift"]["dev_energy"] - 1e-4 / 10.105) < 1e-9
