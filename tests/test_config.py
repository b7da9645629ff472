import dataclasses

import pytest

from sulphsim.config import (
    ConfigError,
    RunConfig,
    config_to_text,
    parse_config,
    validate_config,
)
from sulphsim.grid import ProfileLine


class TestDefaults:
    def test_empty_document_gives_reference_constants(self):
        cfg = parse_config("")
        assert cfg.lam == 100.0
        assert cfg.g == 30.0
        assert cfg.dt == pytest.approx(1.0 / 5000.0)
        assert cfg.nx == cfg.ny == 65
        assert cfg.picard_iters == 2
        assert cfg.exposed_edge == "left"
        assert cfg.snapshot_steps == (5, 15, 50, 100)

    def test_defaults_are_valid(self):
        assert validate_config(RunConfig()) == []


class TestParsing:
    def test_file_overlays_defaults(self):
        cfg = parse_config("nx = 33\nny = 33\nnu_law = parabolic\n# a comment\n")
        assert cfg.nx == 33
        assert cfg.nu_law == "parabolic"
        assert cfg.lam == 100.0  # untouched default

    def test_overrides_beat_file(self):
        cfg = parse_config("nu_law = linear\n", {"nu_law": "parabolic"})
        assert cfg.nu_law == "parabolic"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'nu_max'"):
            parse_config("nu_max = 3\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("A = fast\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("A = 0.1\njust some words\n")

    def test_profiles_mini_format(self):
        cfg = parse_config("profiles = x1=0; x2=0.5\nny = 65\n")
        assert cfg.profiles == (ProfileLine("vertical", 0.0), ProfileLine("horizontal", 0.5))

    def test_booleans(self):
        cfg = parse_config("emit_vtk = false\nstrict = yes\n")
        assert cfg.emit_vtk is False
        assert cfg.strict is True


class TestValidation:
    def test_a9_rejected_when_enforced(self):
        with pytest.raises(ConfigError, match=r"\(A9\)"):
            parse_config("B = 2\nS0 = 1\n")

    def test_a9_allowed_when_not_enforced(self):
        cfg = parse_config("B = 2\nS0 = 1\nenforce_global_bound = false\n")
        assert cfg.B == 2.0

    def test_a1_rejected(self):
        with pytest.raises(ConfigError, match=r"\(A1\)"):
            parse_config("A = 0.1\nB = -0.2\nC0 = 1\n")

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config("n_steps = 0\nsnapshot_steps = \n")

    def test_snapshot_outside_range_rejected(self):
        with pytest.raises(ConfigError, match="snapshot step"):
            parse_config("n_steps = 10\nsnapshot_steps = 5,11\n")

    def test_default_snapshots_adapt_to_short_runs(self):
        cfg = parse_config("n_steps = 20\n")
        assert cfg.snapshot_steps == (5, 15)

    def test_misaligned_profile_rejected(self):
        with pytest.raises(ConfigError, match="not grid-aligned"):
            parse_config("ny = 64\n")  # default profiles need x2 = 0.25 on the grid

    @pytest.mark.parametrize(
        "key, value",
        [("g", "nan"), ("nu0", "nan"), ("dt", "inf"), ("lam", "inf"), ("weibull_r0", "-inf")],
    )
    def test_non_finite_number_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must be finite"):
            parse_config(f"{key} = {value}\n")

    def test_every_violation_listed(self):
        try:
            parse_config("A = -1\nB = 2\ndt = 0\nsnapshot_steps = \n")
        except ConfigError as exc:
            text = str(exc)
            assert "(A1)" in text and "(A9)" in text and "dt" in text
        else:
            pytest.fail("expected ConfigError")


class TestManifestRoundTrip:
    def test_identity(self):
        cfg = parse_config(
            "nx = 33\nny = 33\nnu_law = parabolic\nseed = 77\n"
            "r_init_mode = weibull\nprofiles = x1=0;x2=0.25\nemit_vtk = false\n"
        )
        text = config_to_text(cfg, header_comments={"code_version": "0.1.0", "note": "x"})
        again = parse_config(text)
        assert again == cfg

    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(config_to_text(cfg)) == cfg

    def test_float_precision_survives(self):
        cfg = parse_config("dt = 0.00020000000000000001\n")
        again = parse_config(config_to_text(cfg))
        assert again.dt == cfg.dt

    def test_every_field_serialized(self):
        text = config_to_text(RunConfig())
        keys = {
            line.split("=")[0].strip()
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert keys == {f.name for f in dataclasses.fields(RunConfig)}
