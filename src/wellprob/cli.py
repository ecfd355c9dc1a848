"""Command-line frontend writing plain-CSV data files.

Commands: classical, eigensolve, momentum, table1, sweep, bounce-sim, each
a thin wrapper over the library.  A package error is printed as one line,
``error: <category>: <message>``, with the category its class names
(config, regime, support, resolution or numerical).  Exit codes: 0
success, 3 numerical failure, 2 any other error.  All floats are written
with 17 significant digits and LF line endings so repeated runs are
byte-identical.  ``_write_csv`` takes each table as columns and streams it
in blocks of ``_BLOCK_ROWS`` rows, so its memory is bounded by a block (a
few hundred kB), not by the file.  ``_csvfmt`` formats a block on one of
two paths.  When every column is a float64 array, each cell gets exactly
the bytes of ``'%.17g' % v``, from integer digits computed in bulk with
double-double arithmetic and laid out in 32-byte slot rows (the exactness
argument and the layout are in that module); nan, inf, |v| outside
[1e-280, 1e280] and near-ties go through ``_csvfmt.fmt``
(``format(v, ".17g")``) one value at a time.  Any other block goes through
``_csvfmt.fmt`` row by row, value by value.  ``classical`` and
``bounce-sim`` draw one measurement sample per run, for their draws table;
their histograms are exact time fractions and draw none.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._csvfmt import encode_rows
from .classical import (classical_momentum_density, classical_position_density,
                        measurement_histogram, momentum_delta_masses,
                        sample_measurements, trajectory)
from .compare import plateau_height, v0_sweep
from .config import RunConfig, apply_overrides, parse_file
from .errors import ConfigError, NumericalError, WellProbError
from .model import PotentialKind, PotentialSpec, classical_state, closed_court
from .quantum import (EigenLevel, Eigenstate, eigenstate_closed_court,
                      eigenstate_infinite_well, momentum_transform, nearest_level,
                      spectrum)

# Reference closed-court parameters being reproduced: (v0, a, E, p-, p+, dp)
# with hbar = 2m = 1.  Note the quoted (6, 25) row is internally inconsistent:
# its p- does not equal p+ - dp (nor sqrt(E - V0)); deviations are reported
# against the quoted numbers as-is.
TABLE1_ROWS = (
    (10.0, 25.0, 10.066, 0.257, 3.173, 2.916),
    (6.0, 25.0, 10.073, 2.108, 3.174, 1.156),
    (2.0, 25.0, 10.105, 2.847, 3.179, 0.332),
)


# Rows per formatted block: bounds the writer's memory by the block, not the file.
_BLOCK_ROWS = 1024


def _write_csv(path: Path, header, columns) -> Path:
    """Write ``header`` and one equal-length sequence per column as CSV.

    A float64 array column's cells are those of ``'%.17g' % v``; any
    other column's are ``_csvfmt.fmt(v)``, value by value.  ValueError when
    the columns do not fill a table of ``header``'s width.
    """
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(col) != n_rows for col in columns):
        raise ValueError(f"CSV columns of lengths {[len(col) for col in columns]} "
                         f"do not fill a {len(header)}-column table")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write(encode_rows([col[start:start + _BLOCK_ROWS] for col in columns]))
    return path


def _write_tables(cfg: RunConfig, tables) -> list[Path]:
    """Write each (file name, header, columns) table into the output
    directory.  Commands compute every table first, so a run that fails
    leaves no directory behind."""
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out / name, header, columns) for name, header, columns in tables]


def _require_energy(cfg: RunConfig) -> float:
    if cfg.task.energy is None:
        raise ConfigError("task.energy is required for this command")
    return cfg.task.energy


def _e_max(cfg: RunConfig) -> float:
    return cfg.task.e_max if cfg.task.e_max is not None else 12.0


def _select_state(cfg: RunConfig, spec: PotentialSpec, levels: list[EigenLevel] | None = None
                  ) -> Eigenstate | None:
    """The normalized eigenstate named by the task options, which carries
    its level's energy, parity, index, residual and quantum number.

    Infinite-well states are named by task.index and task.parity, closed-court
    states by task.energy (the nearest level).  ``levels`` is the eigensolve
    listing: with it a closed-court state is named by index and parity or
    is the listed level nearest task.energy (NumericalError if none is within
    +-task.search_width), and a task that names neither gives None.  A named
    state that cannot be selected otherwise raises ConfigError.
    """
    t = cfg.task
    by_index = t.index is not None and t.parity in ("even", "odd")
    if levels is not None and t.index is None and t.energy is None:
        return None
    if spec.kind is PotentialKind.INFINITE_WELL:
        if not by_index:
            raise ConfigError("infinite well needs task.index and task.parity=even|odd")
        return eigenstate_infinite_well(spec, t.index, t.parity, n_grid=t.n_grid)
    if spec.kind is not PotentialKind.CLOSED_COURT:
        raise ConfigError("no quantum states for this potential kind in this artifact")
    if levels is not None and by_index:
        named = [lv for lv in levels if lv.parity == t.parity and lv.index == t.index]
        if not named:
            raise ConfigError(f"no {t.parity} level #{t.index} below e_max={_e_max(cfg)}")
        level = named[0]
    elif levels is not None and t.energy is not None:
        near = [lv for lv in levels if abs(lv.energy - t.energy) <= t.search_width]
        if not near:
            raise NumericalError(f"no listed level within +-{t.search_width} of E={t.energy}")
        level = min(near, key=lambda lv: abs(lv.energy - t.energy))
    elif t.energy is not None:
        level = nearest_level(spec, t.energy, search_width=t.search_width)
    else:
        raise ConfigError("closed court needs task.energy, or task.index with "
                          "task.parity=even|odd in eigensolve, to select a state")
    return eigenstate_closed_court(spec, level.energy, level.parity,
                                   n_grid=t.n_grid, index=level.index)


def _histograms(prefix: str, spec: PotentialSpec, energy: float, n_bins: int) -> list[tuple]:
    """The position and momentum projection histograms, one table each.
    They carry no draws: a run's draws table is its one sample."""
    tables = []
    for variable in ("position", "momentum"):
        hist = measurement_histogram(spec, energy, n_bins, variable, n_draws=0, seed=0)
        tables.append((f"{prefix}histogram_{variable}.csv", ("bin_lo", "bin_hi", "mass"),
                       (hist.bin_edges[:-1], hist.bin_edges[1:], hist.bin_mass)))
    return tables


def cmd_classical(cfg: RunConfig) -> list[Path]:
    spec = cfg.spec()
    energy = _require_energy(cfg)
    state = classical_state(spec, energy)

    pos = classical_position_density(spec, energy, n_points=cfg.task.n_points)
    meta = [("energy", energy), ("tau", state.tau), ("period", state.period),
            ("p_minus", state.p_minus), ("p_plus", state.p_plus),
            ("delta_p", state.delta_p),
            ("turning_lo", state.turning_points[0]),
            ("turning_hi", state.turning_points[1]),
            ("position_omitted_mass", pos.omitted_mass)]
    tables = [("classical_position.csv", ("x", "density"), (pos.grid, pos.values)),
              ("classical_meta.csv", ("key", "value"), list(zip(*meta)))]

    if state.p_minus == state.p_plus:  # a zero-width band: the delta pair
        tables.append(("classical_momentum_delta.csv", ("p", "mass"),
                       list(zip(*momentum_delta_masses(spec, energy)))))
    else:
        mom = classical_momentum_density(spec, energy, n_points=cfg.task.n_points)
        tables.append(("classical_momentum.csv", ("p", "density"), (mom.grid, mom.values)))

    if cfg.task.n_bins:
        tables += _histograms("", spec, energy, cfg.task.n_bins)
    if cfg.task.n_draws:
        draws = sample_measurements(spec, energy, cfg.task.n_draws, cfg.task.seed)
        tables.append(("draws.csv", ("t", "position", "momentum"),
                       (draws.times, draws.positions, draws.momenta)))
    return _write_tables(cfg, tables)


def cmd_eigensolve(cfg: RunConfig) -> list[Path]:
    spec = cfg.spec()
    if spec.kind is PotentialKind.BOUNCER:
        raise ConfigError("eigensolve supports the well potentials only")
    parity = cfg.task.parity
    levels = [lv for lv in spectrum(spec, _e_max(cfg)) if parity in ("both", lv.parity)]
    state = _select_state(cfg, spec, levels)
    tables = [("eigenvalues.csv", ("index", "parity", "energy", "residual", "n"),
               ([lv.index for lv in levels], [lv.parity for lv in levels],
                [lv.energy for lv in levels], [lv.residual for lv in levels],
                [lv.n for lv in levels]))]
    if state is not None:
        tables.append(("wavefunction.csv", ("x", "psi", "density"),
                       (state.grid, state.psi, state.psi ** 2)))
    return _write_tables(cfg, tables)


def cmd_momentum(cfg: RunConfig) -> list[Path]:
    spec = cfg.spec()
    state = _select_state(cfg, spec)
    wave = momentum_transform(state, n_points=cfg.task.n_points)
    tables, arc = [], classical_state(spec, state.energy)
    if arc.p_minus != arc.p_plus:
        overlay = classical_momentum_density(spec, state.energy, grid=wave.grid).values
    else:  # a zero-width band: the delta pair, and no density to overlay
        overlay = np.zeros_like(wave.grid)
        tables.append(("classical_momentum_delta.csv", ("p", "mass"),
                       list(zip(*momentum_delta_masses(spec, state.energy)))))
    tables.insert(0, ("momentum_wavefunction.csv",
                      ("p", "phi_re", "phi_im", "density", "classical_density"),
                      (wave.grid, wave.phi.real, wave.phi.imag, wave.density, overlay)))
    meta = [("energy", state.energy), ("parity", state.parity), ("index", state.index),
            ("residual", state.residual), ("hbar", spec.constants.hbar), ("n", state.n)]
    tables.append(("momentum_meta.csv", ("key", "value"), list(zip(*meta))))
    return _write_tables(cfg, tables)


def cmd_table1(cfg: RunConfig) -> list[Path]:
    rows = []
    for v0, a, e_ref, pm_ref, pp_ref, dp_ref in TABLE1_ROWS:
        spec = closed_court(a=a, v0=v0, hbar=1.0, mass=0.5)
        level = nearest_level(spec, e_ref, search_width=cfg.task.search_width)
        st = classical_state(spec, level.energy)
        rows.append((v0, a, level.energy, level.parity, level.index,
                     st.p_minus, st.p_plus, st.delta_p, spec.constants.hbar / a,
                     e_ref, pm_ref, pp_ref, dp_ref,
                     abs(level.energy - e_ref), abs(st.p_minus - pm_ref),
                     abs(st.p_plus - pp_ref), abs(st.delta_p - dp_ref), level.n))
    header = ("v0", "a", "energy", "parity", "index", "p_minus", "p_plus",
              "delta_p", "hbar_over_a", "energy_ref", "p_minus_ref", "p_plus_ref",
              "delta_p_ref", "dev_energy", "dev_p_minus", "dev_p_plus", "dev_delta_p", "n")
    return _write_tables(cfg, [("table1.csv", header, list(zip(*rows)))])


def cmd_sweep(cfg: RunConfig) -> list[Path]:
    t, p = cfg.task, cfg.potential
    if p.kind not in (None, PotentialKind.CLOSED_COURT.value):
        raise ConfigError(f"sweep runs the closed court only, got potential.kind {p.kind!r}")
    if p.v0 is not None:
        raise ConfigError(f"sweep takes V0 from task.v0_list, got potential.v0 {p.v0!r}")
    a = p.a if p.a is not None else 25.0
    e_target = t.energy if t.energy is not None else 10.0
    v0_list = t.v0_list if t.v0_list is not None else (10.0, 6.0, 2.0)
    reports = v0_sweep(a=a, hbar=cfg.constants.hbar, mass=cfg.constants.mass,
                       e_target=e_target, v0_list=v0_list,
                       search_width=t.search_width)
    rows = []
    for v0, rep in zip(v0_list, reports, strict=True):
        rows.append((v0, rep.energy, rep.parity, rep.index, rep.window,
                     rep.l2_gap_position, rep.support_mass_momentum,
                     rep.delta_p_classical, plateau_height(rep), rep.delta_p_intrinsic,
                     rep.classical_unreliable, rep.flag, rep.n))
    header = ("v0", "energy", "parity", "index", "window", "l2_gap_position",
              "support_mass_momentum", "delta_p_classical", "plateau_height",
              "delta_p_intrinsic", "classical_unreliable", "flag", "n")
    return _write_tables(cfg, [("sweep.csv", header, list(zip(*rows)))])


def cmd_bounce_sim(cfg: RunConfig) -> list[Path]:
    if cfg.potential.kind is None:
        cfg = dataclasses.replace(cfg, potential=dataclasses.replace(
            cfg.potential, kind=PotentialKind.BOUNCER.value))
    spec = cfg.spec()
    if spec.kind is not PotentialKind.BOUNCER:
        raise ConfigError("bounce-sim needs a bouncer potential")
    t = cfg.task
    energy = t.energy if t.energy is not None else 2.0
    n_draws = t.n_draws or 1000
    state = classical_state(spec, energy)
    times = np.linspace(0.0, state.period, 801)
    z, p = trajectory(spec, energy, times)
    draws = sample_measurements(spec, energy, n_draws, t.seed)
    return _write_tables(cfg, [
        ("bounce_trajectory.csv", ("t", "z", "p"), (times, z, p)),
        *_histograms("bounce_", spec, energy, t.n_bins or 25),
        ("bounce_draws.csv", ("t", "z", "p"), (draws.times, draws.positions, draws.momenta))])


_COMMANDS = {
    "classical": cmd_classical,
    "eigensolve": cmd_eigensolve,
    "momentum": cmd_momentum,
    "table1": cmd_table1,
    "sweep": cmd_sweep,
    "bounce-sim": cmd_bounce_sim,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="wellprob",
        description="Classical and quantum probability densities for 1D wells "
                    "(bouncer, infinite well, linear well with walls)")
    parser.add_argument("--version", action="version", version=f"wellprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classical": "classical densities, projection histograms, measurement draws",
        "eigensolve": "bound-state energies and a selected wavefunction",
        "momentum": "momentum-space wavefunction with classical overlay",
        "table1": "one-shot reproduction of the closed-court parameter table",
        "sweep": "classical/quantum comparison along decreasing V0",
        "bounce-sim": "bouncer trajectory, histograms, and random measurements",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", metavar="PATH", help="INI run configuration")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                       default=[], help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_file(args.config) if args.config else RunConfig()
        overrides = list(args.set)
        if args.out:
            overrides.append(f"output.directory={args.out}")
        cfg = apply_overrides(cfg, overrides)
        written = _COMMANDS[args.command](cfg)
    except WellProbError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 3 if exc.category == "numerical" else 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
