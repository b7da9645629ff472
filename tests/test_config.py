import dataclasses
import os
import re

import numpy as np
import pytest

from sulphsim.cli import main
from sulphsim.config import (
    ConfigError,
    RunConfig,
    config_to_text,
    parse_config,
    reject,
    validate_config,
)
from sulphsim.grid import ProfileLine, build_grid, extract_profile
from sulphsim.model import permeability
from sulphsim.runner import run

DATA = os.path.join(os.path.dirname(__file__), "data")
ENUM_VARIANT = (
    "nu_law = parabolic\nconstraint_mode = box\nr_init_mode = weibull\n"
    "exposed_edge = top\nR0 = 0.25\nseed = 42\n"
)
REMOVED_PICARD = "picard_iters must be 1: the multi-sweep Picard scheme was removed"


def read_data(name):
    with open(os.path.join(DATA, name), newline="") as fh:
        return fh.read()


class TestDefaults:
    def test_empty_document_gives_reference_constants(self):
        cfg = parse_config("")
        assert cfg.lam == 100.0
        assert cfg.g == 30.0
        assert cfg.dt == pytest.approx(1.0 / 5000.0)
        assert cfg.nx == cfg.ny == 65
        assert cfg.picard_iters == 1
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
        # mode and mms_levels were keys once: old manifests naming them fail
        for key in ("nu_max", "mode", "mms_levels"):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"{key} = 3\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("A = fast\n")

    def test_bad_boolean_rejected_by_name(self):
        with pytest.raises(ConfigError, match="key 'strict': expected a boolean, got 'maybe'"):
            parse_config("strict = maybe\n")

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

    @pytest.mark.parametrize(
        "bad", ["/tmp/x#y", "/tmp/a\nnx = 9", "/tmp/a\rb", "a\x0bb", "a\u2028b", " a", "a\t"]
    )
    def test_out_dir_the_manifest_cannot_carry_rejected_by_name(self, bad):
        # the dialect has no escapes: in the manifest '#' would start a
        # comment, a line break a new line, and parsing strips a value
        with pytest.raises(ConfigError) as exc:
            reject(validate_config(dataclasses.replace(RunConfig(), out_dir=bad)))
        assert str(exc.value) == (
            "invalid configuration:\n  out_dir must hold no '#' or line break and no "
            f"surrounding whitespace, which manifest.ini cannot carry (got {bad!r})"
        )

    @pytest.mark.parametrize("value", ["0", "2", "3"])
    def test_multi_sweep_picard_rejected_by_name(self, value):
        # the key stays so that manifests naming picard_iters = 1 parse
        message = re.escape(REMOVED_PICARD + f" (got {value})")
        for text, overrides in ((f"picard_iters = {value}\n", None), ("", {"picard_iters": value})):
            with pytest.raises(ConfigError, match=message):
                parse_config(text, overrides)

    def test_multi_sweep_picard_rejected_on_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "--set", "nx=17", "--set", "ny=17", "--set", "picard_iters=2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert REMOVED_PICARD + " (got 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_single_sweep_manifests_still_parse(self):
        assert parse_config("picard_iters = 1\n") == RunConfig()
        for name in ("manifest_default.ini", "manifest_variant.ini"):
            text = read_data(name)
            assert "picard_iters = 1\n" in text
            assert parse_config(text).picard_iters == 1

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

    @pytest.mark.parametrize(
        "out_dir",
        ["/tmp/with space/run 1", "a=b", "semi;colon", "comma,dir", "ünï/códe", r"C:\runs\x"],
    )
    def test_ordinary_out_dirs_survive(self, out_dir):
        cfg = parse_config("", {"out_dir": out_dir})
        assert cfg.out_dir == out_dir
        assert parse_config(config_to_text(cfg)) == cfg

    def test_every_field_serialized(self):
        text = config_to_text(RunConfig())
        keys = {
            line.split("=")[0].strip()
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert keys == {f.name for f in dataclasses.fields(RunConfig)}


class TestChoices:
    @pytest.mark.parametrize(
        "key, value, accepted",
        [
            ("nu_law", "foo", "linear, parabolic"),
            ("constraint_mode", "x", "free, box"),
            ("r_init_mode", "bad", "constant, piecewise, weibull"),
            ("exposed_edge", "north", "left, right, bottom, top, none"),
        ],
    )
    def test_bad_choice_named_once(self, key, value, accepted):
        with pytest.raises(ConfigError) as info:
            parse_config(f"{key} = {value}\n")
        text = str(info.value)
        assert text.count(key) == 1
        assert f"key {key!r}: expected one of {accepted}, got {value!r}" in text

    def test_bad_choice_does_not_hide_other_violations(self):
        with pytest.raises(ConfigError, match=r"\(A1\)") as info:
            parse_config("nu_law = foo\nA = -1\n")
        assert str(info.value).count("nu_law") == 1

    @pytest.mark.parametrize("law", ["linear", "parabolic"])
    def test_python_built_law_matches_parsed(self, law):
        built = dataclasses.replace(RunConfig(), nu_law=law)
        parsed = parse_config(f"nu_law = {law}\n")
        assert built == parsed
        r = np.linspace(0.0, 2.0, 9)
        np.testing.assert_array_equal(
            permeability(r, built.phys()), permeability(r, parsed.phys())
        )

    def test_unknown_law_rejected_by_validate_and_run(self, tmp_path):
        cfg = dataclasses.replace(RunConfig(), nu_law="foo", out_dir=str(tmp_path / "run"))
        assert validate_config(cfg) == [
            "key 'nu_law': expected one of linear, parabolic, got 'foo'"
        ]
        with pytest.raises(ConfigError, match="nu_law"):
            run(cfg)
        assert not (tmp_path / "run").exists()


class TestGridLineRule:
    NX, NY = 9, 17

    @pytest.mark.parametrize("axis, orientation, n", [("x1", "vertical", NX), ("x2", "horizontal", NY)])
    @pytest.mark.parametrize("k", [0, 3, -1])
    @pytest.mark.parametrize("offset", [-2e-12, -0.5e-12, 0.5e-12, 2e-12])
    def test_parse_accepts_what_extract_profile_accepts(self, axis, orientation, n, k, offset):
        coord = (k % n) / (n - 1) + offset
        grid = build_grid(self.NX, self.NY)
        try:
            extract_profile(np.zeros(grid.n_nodes), grid, ProfileLine(orientation, coord))
            extracted = True
        except ValueError:
            extracted = False
        try:
            parse_config(f"nx = {self.NX}\nny = {self.NY}\nprofiles = {axis}={coord!r}\n")
            parsed = True
        except ConfigError:
            parsed = False
        assert parsed == extracted == (abs(offset) < 1e-12)

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_profile_coordinate_rejected(self, coord):
        with pytest.raises(ConfigError, match="not grid-aligned"):
            parse_config(f"profiles = x1={coord}\n")


class TestManifestBytes:
    def test_default_text_pinned(self):
        assert config_to_text(RunConfig()) == read_data("manifest_default.ini")

    def test_enum_variant_text_pinned(self):
        expected = read_data("manifest_variant.ini")
        parsed = parse_config(ENUM_VARIANT)
        built = dataclasses.replace(
            RunConfig(),
            nu_law="parabolic",
            constraint_mode="box",
            r_init_mode="weibull",
            exposed_edge="top",
            R0=0.25,
            seed=42,
        )
        assert config_to_text(parsed) == config_to_text(built) == expected
        assert parse_config(expected) == parsed
