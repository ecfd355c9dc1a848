import pytest

import wellprob as wp
from wellprob.config import RunConfig, apply_overrides, emit_text, parse_text

SAMPLE = """
[potential]
kind = closed_court
a = 25.0
v0 = 10.0

[constants]
hbar = 1.0
mass = 0.5

[task]
energy = 10.066
n_bins = 20
seed = 7
v0_list = 10, 6, 2

[output]
directory = out
"""


def test_parse_basic_fields():
    cfg = parse_text(SAMPLE)
    assert cfg.potential.kind == "closed_court"
    assert cfg.potential.a == 25.0
    assert cfg.task.energy == 10.066
    assert cfg.task.seed == 7
    assert cfg.task.v0_list == (10.0, 6.0, 2.0)
    spec = cfg.spec()
    assert spec.kind is wp.PotentialKind.CLOSED_COURT
    assert spec.constants.mass == 0.5


def test_round_trip_is_idempotent():
    cfg = parse_text(SAMPLE)
    text1 = emit_text(cfg)
    cfg2 = parse_text(text1)
    assert cfg2 == cfg
    assert emit_text(cfg2) == text1


def test_unknown_section_and_key_rejected():
    with pytest.raises(wp.ConfigError):
        parse_text("[banana]\nx = 1\n")
    with pytest.raises(wp.ConfigError):
        parse_text("[task]\nenergyy = 1\n")
    with pytest.raises(wp.ConfigError):
        parse_text("[task]\nenergy = not-a-number\n")
    with pytest.raises(wp.ConfigError):
        parse_text("[task]\nwindow = 2.5\n")


def test_parity_and_format_validation():
    with pytest.raises(wp.ConfigError):
        parse_text("[task]\nparity = sideways\n")
    with pytest.raises(wp.ConfigError):
        parse_text("[output]\nformat = json\n")


def test_overrides():
    cfg = parse_text(SAMPLE)
    cfg2 = apply_overrides(cfg, ["potential.v0=6", "task.seed=99", "output.directory=elsewhere"])
    assert cfg2.potential.v0 == 6.0
    assert cfg2.task.seed == 99
    assert cfg2.output.directory == "elsewhere"
    assert cfg.task.seed == 7  # original untouched
    with pytest.raises(wp.ConfigError):
        apply_overrides(cfg, ["no-equals-sign"])
    with pytest.raises(wp.ConfigError):
        apply_overrides(cfg, ["task.bogus=1"])


def test_spec_requires_kind():
    with pytest.raises(wp.ConfigError):
        RunConfig().spec()


def test_spec_validation_becomes_config_error():
    cfg = apply_overrides(RunConfig(), ["potential.kind=infinite_well"])
    with pytest.raises(wp.ConfigError):
        cfg.spec()  # missing half-width a


@pytest.mark.parametrize("n_bins", [1, -3])
def test_n_bins_must_be_zero_or_at_least_two(n_bins):
    with pytest.raises(wp.ConfigError, match="task.n_bins"):
        parse_text(f"[task]\nn_bins = {n_bins}\n")
    with pytest.raises(wp.ConfigError, match="task.n_bins"):
        apply_overrides(RunConfig(), [f"task.n_bins={n_bins}"])
    for ok in (0, 2):
        assert apply_overrides(RunConfig(), [f"task.n_bins={ok}"]).task.n_bins == ok


@pytest.mark.parametrize("name", ["n_grid", "n_points", "n_bins", "n_draws"])
def test_task_sizes_are_capped(name):
    cap = 10 ** 7
    assert getattr(apply_overrides(RunConfig(), [f"task.{name}={cap}"]).task, name) == cap
    with pytest.raises(wp.ConfigError, match=f"task.{name} = {cap + 1} exceeds"):
        apply_overrides(RunConfig(), [f"task.{name}={cap + 1}"])
    with pytest.raises(wp.ConfigError, match="exceeds"):
        parse_text(f"[task]\n{name} = {cap + 1}\n")


@pytest.mark.parametrize("key", ["potential.a", "potential.v0", "constants.hbar",
                                 "constants.mass", "constants.g", "task.energy", "task.e_max",
                                 "task.search_width"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_real_values_must_be_finite(key, value):
    with pytest.raises(wp.ConfigError, match=key):
        apply_overrides(RunConfig(), [f"{key}={value}"])
    section, name = key.split(".")
    with pytest.raises(wp.ConfigError, match=key):
        parse_text(f"[{section}]\n{name} = {value}\n")


def test_v0_list_entries_must_be_finite():
    with pytest.raises(wp.ConfigError, match="task.v0_list"):
        parse_text("[task]\nv0_list = 10, nan, 2\n")


@pytest.mark.parametrize("key", ["constants.hbar", "constants.mass", "constants.g",
                                 "task.search_width"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_scales_and_search_width_must_be_positive(key, value):
    with pytest.raises(wp.ConfigError, match=f"{key} must be > 0"):
        apply_overrides(RunConfig(), [f"{key}={value}"])


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1", "2.5"])
def test_potential_g_is_an_unknown_key(value):
    # g is set once, under [constants]; the [potential] spelling is gone
    with pytest.raises(wp.ConfigError, match="unknown key potential.g"):
        apply_overrides(RunConfig(), [f"potential.g={value}"])
    with pytest.raises(wp.ConfigError, match="unknown key potential.g"):
        parse_text(f"[potential]\ng = {value}\n")


@pytest.mark.parametrize("value", ["10", "nan"])
def test_task_e_target_is_an_unknown_key(value):
    # the sweep target is task.energy, the one energy setting
    with pytest.raises(wp.ConfigError, match="unknown key task.e_target"):
        apply_overrides(RunConfig(), [f"task.e_target={value}"])
    with pytest.raises(wp.ConfigError, match="unknown key task.e_target"):
        parse_text(f"[task]\ne_target = {value}\n")


def test_constants_section_is_the_model_constants():
    cfg = parse_text("[potential]\nkind = bouncer\n\n[constants]\nmass = 2.0\n")
    assert cfg.constants == wp.Constants(mass=2.0)
    assert cfg.spec().constants is cfg.constants
    assert RunConfig().constants == wp.Constants()


def test_constants_g_reaches_the_spec():
    cfg = apply_overrides(RunConfig(), ["potential.kind=bouncer", "constants.g=2.5"])
    assert cfg.spec().constants.g == 2.5


@pytest.mark.parametrize("index", [0, -2])
def test_index_must_be_at_least_one(index):
    with pytest.raises(wp.ConfigError, match="task.index must be >= 1"):
        apply_overrides(RunConfig(), [f"task.index={index}"])
    with pytest.raises(wp.ConfigError, match="task.index must be >= 1"):
        parse_text(f"[task]\nindex = {index}\n")
    assert apply_overrides(RunConfig(), ["task.index=1"]).task.index == 1


def test_n_bins_is_an_int_defaulting_to_zero():
    assert RunConfig().task.n_bins == 0
    assert "n_bins = 0" in emit_text(RunConfig())
    with pytest.raises(wp.ConfigError, match="task.n_bins"):
        apply_overrides(RunConfig(), ["task.n_bins=none"])


def test_output_format_is_an_unknown_key():
    with pytest.raises(wp.ConfigError, match="unknown key output.format"):
        apply_overrides(RunConfig(), ["output.format=csv"])


@pytest.mark.parametrize("item, key", [
    ("potential.a=0", "potential.a must be > 0"),
    ("potential.a=-3", "potential.a must be > 0"),
    ("potential.v0=-1", "potential.v0 must be >= 0"),
    ("task.v0_list=10,-1,2", "task.v0_list entry must be >= 0"),
    ("task.n_draws=-1", "task.n_draws must be >= 0"),
    ("task.seed=-3", "task.seed must be in"),
    (f"task.seed={2 ** 128}", "task.seed must be in"),
])
def test_out_of_range_values_are_config_errors(item, key):
    with pytest.raises(wp.ConfigError, match=key):
        apply_overrides(RunConfig(), [item])
    section, assignment = item.split(".", 1)
    with pytest.raises(wp.ConfigError, match=key):
        parse_text(f"[{section}]\n{assignment.replace('=', ' = ', 1)}\n")


@pytest.mark.parametrize("item", ["potential.v0=0", "task.v0_list=0,2", "task.n_draws=0",
                                  "task.seed=0", f"task.seed={2 ** 128 - 1}"])
def test_range_edges_are_accepted(item):
    apply_overrides(RunConfig(), [item])
