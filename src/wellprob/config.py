"""Run configuration: a small sectioned key=value format (INI dialect).

Four sections, all optional, unknown keys rejected:

    [potential]   kind = bouncer | infinite_well | closed_court
                  a = <half-width>      (well kinds)
                  v0 = <ramp height>    (closed court)
    [constants]   hbar, mass, g         (defaults hbar=1, mass=0.5, g=1)
    [task]        command parameters (energy, e_max, parity, index, n_grid,
                  n_points, n_bins, n_draws, seed, v0_list, search_width)
    [output]      directory             (CSV files are written there)

The section dataclasses are the schema: each key is parsed by the type its
field is annotated with (float: a finite float; int; str; tuple[float, ...]:
comma-separated finite floats), and ``[constants]`` is ``model.Constants``
itself.  Values are checked when a config is built: a, hbar, mass, g and
search_width are > 0, v0, the v0_list entries and n_draws are >= 0, v0_list
is not empty, seed is a Philox key in [0, 2^128), index is at least 1, n_grid
and n_points are at least 16, n_bins is 0 (no histograms) or at least 2, and
no grid, bin or draw count exceeds 10^7.

``parse_text`` -> ``emit_text`` round-trips: emitting writes every field in
canonical order, so parse(emit(parse(s))) == parse(s).  Individual keys can
be overridden with strings of the form ``section.key=value``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .model import Constants, PotentialKind, PotentialSpec


@dataclass(frozen=True)
class TaskOptions:
    energy: float | None = None
    e_max: float | None = None
    parity: str = "both"
    index: int | None = None
    n_grid: int = 12001
    n_points: int = 4001
    n_bins: int = 0
    n_draws: int = 0
    seed: int = 12345
    v0_list: tuple[float, ...] | None = None
    search_width: float = 1.0


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"


@dataclass(frozen=True)
class PotentialOptions:
    kind: str | None = None
    a: float | None = None
    v0: float | None = None


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialOptions = field(default_factory=PotentialOptions)
    constants: Constants = field(default_factory=Constants)
    task: TaskOptions = field(default_factory=TaskOptions)
    output: OutputOptions = field(default_factory=OutputOptions)

    def spec(self) -> PotentialSpec:
        """Build the PotentialSpec; requires [potential] kind.  PotentialSpec
        decides which of a and v0 the kind takes; only a bouncer's a, which
        PotentialSpec keeps for library callers, is refused here."""
        p = self.potential
        if p.kind is None:
            raise ConfigError("potential.kind is required for this command")
        try:
            kind = PotentialKind(p.kind)
        except ValueError:
            raise ConfigError(
                f"unknown potential.kind {p.kind!r} "
                f"(expected bouncer | infinite_well | closed_court)") from None
        if kind is PotentialKind.BOUNCER and p.a is not None:
            raise ConfigError(f"a applies to the wells only, got {p.a!r}")
        try:
            return PotentialSpec(kind, self.constants, a=p.a, v0=p.v0 or 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_SECTIONS = {
    "potential": PotentialOptions,
    "constants": Constants,
    "task": TaskOptions,
    "output": OutputOptions,
}

# Largest grid, bin or draw count a run may ask for, checked before any
# array is allocated (10^7 float64 samples are 80 MB per array).
_MAX_SAMPLES = 10_000_000


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# A parser per annotation; the annotations are strings (postponed
# evaluation), and ``T | None`` parses as T.
_PARSE_TYPE = {
    "float": _finite,
    "int": int,
    "str": str,
    "tuple[float, ...]": lambda raw: tuple(_finite(tok) for tok in raw.split(",") if tok.strip()),
}
_PARSERS = {section: {f.name: _PARSE_TYPE[f.type.removesuffix(" | None")] for f in fields(cls)}
            for section, cls in _SECTIONS.items()}


def _convert(section: str, key: str, raw: str):
    if section not in _PARSERS:
        raise ConfigError(f"unknown config section [{section}]")
    parse = _PARSERS[section].get(key)
    if parse is None:
        raise ConfigError(f"unknown key {section}.{key}")
    raw = raw.strip()
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from None


def parse_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    raw: dict[str, dict] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            raw.setdefault(section, {})[key] = _convert(section, key, value)
    return _build(raw)


def _build(raw: dict[str, dict]) -> RunConfig:
    try:  # Constants checks its own values
        cfg = RunConfig(**{section: cls(**raw.get(section, {}))
                           for section, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    t, p = cfg.task, cfg.potential
    for name, v in (("task.search_width", t.search_width), ("potential.a", p.a)):
        if v is not None and not v > 0.0:
            raise ConfigError(f"{name} must be > 0, got {v!r}")
    if t.v0_list == ():
        raise ConfigError("task.v0_list is empty: give at least one V0")
    for name, v in (("potential.v0", p.v0), ("task.n_draws", t.n_draws),
                    *(("task.v0_list entry", v) for v in t.v0_list or ())):
        if v is not None and v < 0:
            raise ConfigError(f"{name} must be >= 0, got {v!r}")
    if not 0 <= t.seed < 2 ** 128:
        raise ConfigError(f"task.seed must be in [0, 2^128), the Philox key range, got {t.seed}")
    if t.parity not in ("even", "odd", "both"):
        raise ConfigError(f"task.parity must be even|odd|both, got {t.parity!r}")
    if t.index is not None and t.index < 1:
        raise ConfigError(f"task.index must be >= 1, got {t.index}")
    for name in ("n_grid", "n_points"):
        if getattr(t, name) < 16:
            raise ConfigError(f"task.{name} unreasonably small")
    if t.n_bins < 0 or t.n_bins == 1:
        raise ConfigError(f"task.n_bins must be 0 (no histograms) or >= 2, got {t.n_bins}")
    for name in ("n_grid", "n_points", "n_bins", "n_draws"):
        if getattr(t, name) > _MAX_SAMPLES:
            raise ConfigError(f"task.{name} = {getattr(t, name)} exceeds the cap of "
                              f"{_MAX_SAMPLES} samples")
    return cfg


def parse_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply ``section.key=value`` strings on top of a parsed config."""
    raw = _as_raw(cfg)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        section, key = section.strip(), key.strip()
        raw.setdefault(section, {})[key] = _convert(section, key, value)
    return _build(raw)


def _as_raw(cfg: RunConfig) -> dict[str, dict]:
    return {section: {key: v for key, v in vars(getattr(cfg, section)).items() if v is not None}
            for section in _SECTIONS}


def emit_text(cfg: RunConfig) -> str:
    """Canonical text form: every non-None field, fixed order, LF endings."""
    lines = []
    for section, vals in _as_raw(cfg).items():
        if vals:
            lines.append(f"[{section}]")
            lines += [f"{key} = {','.join(map(repr, v)) if isinstance(v, tuple) else v}"
                      for key, v in vals.items()]
            lines.append("")
    return "\n".join(lines)
