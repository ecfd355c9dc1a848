"""Run configuration: a small sectioned key=value format (INI dialect).

Four sections, all optional, unknown keys rejected:

    [potential]   kind = bouncer | infinite_well | closed_court
                  a = <half-width>      (well kinds)
                  v0 = <ramp height>    (closed court)
    [constants]   hbar, mass, g         (defaults hbar=1, mass=0.5, g=1)
    [task]        command parameters (energy, e_max, parity, index, n_grid,
                  n_points, n_bins, n_draws, seed, e_target, v0_list,
                  search_width)
    [output]      directory, format

Values are checked when a config is built: every real value (v0_list
entries too) is finite, hbar, mass, g and search_width are > 0, n_grid and
n_points are at least 16, n_bins is 0 (no histograms) or at least 2, and no
grid, bin or draw count exceeds 10^7.

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
    n_bins: int | None = None
    n_draws: int = 0
    seed: int = 12345
    e_target: float | None = None
    v0_list: tuple[float, ...] | None = None
    search_width: float = 1.0


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    format: str = "csv"


@dataclass(frozen=True)
class PotentialOptions:
    kind: str | None = None
    a: float | None = None
    v0: float | None = None
    g: float | None = None


@dataclass(frozen=True)
class ConstantsOptions:
    hbar: float = 1.0
    mass: float = 0.5
    g: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialOptions = field(default_factory=PotentialOptions)
    constants: ConstantsOptions = field(default_factory=ConstantsOptions)
    task: TaskOptions = field(default_factory=TaskOptions)
    output: OutputOptions = field(default_factory=OutputOptions)

    def spec(self) -> PotentialSpec:
        """Build the PotentialSpec; requires [potential] kind."""
        p = self.potential
        if p.kind is None:
            raise ConfigError("potential.kind is required for this command")
        try:
            kind = PotentialKind(p.kind)
        except ValueError:
            raise ConfigError(
                f"unknown potential.kind {p.kind!r} "
                f"(expected bouncer | infinite_well | closed_court)") from None
        g = p.g if p.g is not None else self.constants.g
        consts = Constants(hbar=self.constants.hbar, mass=self.constants.mass, g=g)
        try:
            if kind is PotentialKind.BOUNCER:
                return PotentialSpec(kind, consts)
            if kind is PotentialKind.INFINITE_WELL:
                return PotentialSpec(kind, consts, a=p.a)
            return PotentialSpec(kind, consts, a=p.a, v0=p.v0 if p.v0 is not None else 0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_SECTIONS = {
    "potential": PotentialOptions,
    "constants": ConstantsOptions,
    "task": TaskOptions,
    "output": OutputOptions,
}

# Largest grid, bin or draw count a run may ask for, checked before any
# array is allocated (10^7 float64 samples are 80 MB per array).
_MAX_SAMPLES = 10_000_000

_FLOAT_KEYS = {"a", "v0", "g", "hbar", "mass", "energy", "e_max", "e_target",
               "search_width"}
_INT_KEYS = {"index", "n_grid", "n_points", "n_bins", "n_draws", "seed"}
_STR_KEYS = {"kind", "parity", "directory", "format"}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _convert(section: str, key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return _finite(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key == "v0_list":
            return tuple(_finite(tok) for tok in raw.split(",") if tok.strip())
        if key in _STR_KEYS:
            return raw
    except ValueError:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from None
    raise ConfigError(f"unknown key {section}.{key}")


def _validate(section: str, key: str) -> None:
    cls = _SECTIONS.get(section)
    if cls is None:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in {f.name for f in fields(cls)}:
        raise ConfigError(f"unknown key {section}.{key}")


def parse_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    raw: dict[str, dict] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            _validate(section, key)
            raw.setdefault(section, {})[key] = _convert(section, key, value)
    return _build(raw)


def _build(raw: dict[str, dict]) -> RunConfig:
    kwargs = {}
    for section, cls in _SECTIONS.items():
        try:
            kwargs[section] = cls(**raw.get(section, {}))
        except TypeError as exc:
            raise ConfigError(f"bad [{section}] block: {exc}") from None
    cfg = RunConfig(**kwargs)
    t, c = cfg.task, cfg.constants
    for name, v in (("constants.hbar", c.hbar), ("constants.mass", c.mass),
                    ("constants.g", c.g), ("potential.g", cfg.potential.g),
                    ("task.search_width", t.search_width)):
        if v is not None and not v > 0.0:
            raise ConfigError(f"{name} must be > 0, got {v!r}")
    if t.parity not in ("even", "odd", "both"):
        raise ConfigError(f"task.parity must be even|odd|both, got {t.parity!r}")
    if cfg.output.format != "csv":
        raise ConfigError(f"output.format {cfg.output.format!r} unsupported (only csv)")
    for name in ("n_grid", "n_points"):
        if getattr(t, name) < 16:
            raise ConfigError(f"task.{name} unreasonably small")
    if t.n_bins is not None and (t.n_bins < 0 or t.n_bins == 1):
        raise ConfigError(f"task.n_bins must be 0 (no histograms) or >= 2, got {t.n_bins}")
    for name in ("n_grid", "n_points", "n_bins", "n_draws"):
        if (getattr(t, name) or 0) > _MAX_SAMPLES:
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
        _validate(section, key)
        raw.setdefault(section, {})[key] = _convert(section, key, value)
    return _build(raw)


def _as_raw(cfg: RunConfig) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for section, cls in _SECTIONS.items():
        block = getattr(cfg, section)
        vals = {}
        for f in fields(cls):
            v = getattr(block, f.name)
            if v is not None:
                vals[f.name] = v
        out[section] = vals
    return out


def emit_text(cfg: RunConfig) -> str:
    """Canonical text form: every non-None field, fixed order, LF endings."""
    lines = []
    for section, cls in _SECTIONS.items():
        block = getattr(cfg, section)
        entries = []
        for f in fields(cls):
            v = getattr(block, f.name)
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            entries.append(f"{f.name} = {v}")
        if entries:
            lines.append(f"[{section}]")
            lines.extend(entries)
            lines.append("")
    return "\n".join(lines)
