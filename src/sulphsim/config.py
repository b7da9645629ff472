"""Run configuration: defaults, key=value parsing, validation, manifest text.

The config dialect is flat ``key = value`` lines with ``#`` comments; keys
are exactly the RunConfig field names, whose physical ones RunConfig
inherits from PhysParams.  Defaults are overlaid by the file, then by CLI
overrides.  Validation collects every violated assumption and names it by
its label, e.g. "(A1): requires A > 0 and A + B*C0 > 0".  parse_phys reads
a document the same way but validates only its physical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

from .grid import Edge, Grid2D, ProfileLine, grid_line_index
from .model import PhysParams, choice_error
from .surface import RugosityInit, RugosityInitMode


class ConfigError(ValueError):
    pass


EDGE_CHOICES = tuple(e.value for e in Edge) + ("none",)
# What a value in the dialect cannot hold, having no escapes: the comment
# mark and every line boundary str.splitlines knows.
_UNWRITABLE = frozenset("#\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@dataclass(frozen=True)
class RunConfig(PhysParams):
    """PhysParams' physical and constitutive fields first, then the run's own.

    The r_init_* fields are the RugosityInit recipe, field for field, with
    its defaults.
    """

    # grid
    nx: int = 65
    ny: int = 65
    exposed_edge: str = "left"
    # time stepping
    dt: float = 1.0 / 5000.0
    n_steps: int = 100
    # every step makes one sweep; the key stays so that manifests naming it parse
    picard_iters: int = 1
    # deterministic RNG / initial rugosity
    seed: int = 1
    r_init_mode: RugosityInitMode = RugosityInit.mode
    r_init_r0: float = RugosityInit.r0
    r_init_value: float = RugosityInit.value
    r_init_lo_factor: float = RugosityInit.lo_factor
    r_init_hi_factor: float = RugosityInit.hi_factor
    r_init_split_x2: float = RugosityInit.split_x2
    # output
    out_dir: str = "out"
    profiles: tuple[ProfileLine, ...] = (
        ProfileLine("vertical", 0.0),
        ProfileLine("horizontal", 0.25),
        ProfileLine("horizontal", 0.75),
    )
    snapshot_steps: tuple[int, ...] = (5, 15, 50, 100)
    emit_csv: bool = True
    emit_vtk: bool = True
    # control
    strict: bool = False
    enforce_global_bound: bool = True

    # -- derived objects ---------------------------------------------------

    def phys(self) -> PhysParams:
        return PhysParams(**{f.name: getattr(self, f.name) for f in fields(PhysParams)})

    def grid(self) -> Grid2D:
        edge = None if self.exposed_edge == "none" else Edge(self.exposed_edge)
        return Grid2D(self.nx, self.ny, edge)

    def rugosity_init(self) -> RugosityInit:
        return RugosityInit(
            **{f.name: getattr(self, f"r_init_{f.name}") for f in fields(RugosityInit)}
        )


# -- parsing ----------------------------------------------------------------


def _bool(s: str) -> bool:
    v = s.lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(s)


def _parse_profiles(s: str) -> tuple[ProfileLine, ...]:
    out = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"profile line {part!r} must look like x1=0 or x2=0.25")
        axis, _, val = part.partition("=")
        axis = axis.strip()
        try:
            coord = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad profile coordinate {val!r}") from exc
        if axis == "x1":
            out.append(ProfileLine("vertical", coord))
        elif axis == "x2":
            out.append(ProfileLine("horizontal", coord))
        else:
            raise ConfigError(f"profile axis must be x1 or x2, got {axis!r}")
    return tuple(out)


def _parse_steps(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    try:
        return tuple(int(tok) for tok in s.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad snapshot step list {s!r}") from exc


def format_profiles(profiles: tuple[ProfileLine, ...]) -> str:
    return ";".join(f"{line.axis}={line.coord:.17g}" for line in profiles)


def format_steps(steps: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in steps)


def _scalar(name: str, kind, expected: str):
    def parse(raw: str):
        raw = raw.strip()
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected {expected}, got {raw!r}") from exc

    return parse


def _field_parser(f):
    if f.name == "profiles":
        return _parse_profiles
    if f.name == "snapshot_steps":
        return _parse_steps
    if f.type == "float":
        return _scalar(f.name, float, "a number")
    if f.type == "int":
        return _scalar(f.name, int, "an integer")
    if f.type == "bool":
        return _scalar(f.name, _bool, "a boolean")
    # plain strings, and enum values, which RunConfig turns into members
    return str.strip


# key -> parser of its raw text, built once
_PARSERS = {f.name: _field_parser(f) for f in fields(RunConfig)}


def _read_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults overlaid by the document, overlaid by CLI overrides, unvalidated."""
    values: dict[str, object] = {}

    def apply(key: str, raw: str, where: str):
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r} ({where})")
        values[key] = _PARSERS[key](raw)

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        apply(key, raw, f"line {lineno}")

    for key, raw in (overrides or {}).items():
        apply(key, raw, "override")

    # defaulted snapshot steps adapt to a shorter run; explicit ones are
    # validated as given
    if "snapshot_steps" not in values and "n_steps" in values:
        n_steps = int(values["n_steps"])
        values["snapshot_steps"] = tuple(
            k for k in RunConfig().snapshot_steps if k <= n_steps
        )
    return replace(RunConfig(), **values)


def reject(problems: list[str]) -> None:
    """Raise one ConfigError naming every problem, if there is any."""
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults overlaid by the document, overlaid by CLI overrides, validated."""
    cfg = _read_config(text, overrides)
    reject(validate_config(cfg))
    return cfg


def parse_phys(text: str) -> PhysParams:
    """The physical parameters of a config document, validated alone.

    Every key is read as parse_config reads it, so an unknown key or a
    malformed value is rejected, but only the physical parameters are
    validated, under the document's enforce_global_bound: the MMS study
    reads nothing else, so the run's own keys cannot reject it.
    """
    cfg = _read_config(text)
    p = cfg.phys()
    reject(_non_finite(p) + p.validate(enforce_global_bound=cfg.enforce_global_bound))
    return p


def _non_finite(obj) -> list[str]:
    """One message per float field of the dataclass obj that is not finite."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return [
        f"{key} must be finite (got {v})"
        for key, v in values.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def validate_config(cfg: RunConfig) -> list[str]:
    """Collect every violated invariant; empty list means valid."""
    problems = _non_finite(cfg)
    if cfg.exposed_edge not in EDGE_CHOICES:
        problems.append(choice_error("exposed_edge", EDGE_CHOICES, cfg.exposed_edge))
    # every enum key of RunConfig, r_init_mode included, by its own name
    problems.extend(PhysParams.validate(cfg, enforce_global_bound=cfg.enforce_global_bound))
    if cfg.nx < 3 or cfg.ny < 3:
        problems.append(f"grid needs nx, ny >= 3 (got {cfg.nx}x{cfg.ny})")
    if cfg.dt <= 0:
        problems.append(f"dt must be > 0 (got {cfg.dt})")
    if cfg.n_steps < 1:
        problems.append(f"n_steps must be >= 1 (got {cfg.n_steps})")
    if cfg.picard_iters != 1:
        problems.append(
            f"picard_iters must be 1: the multi-sweep Picard scheme was removed "
            f"(got {cfg.picard_iters})"
        )
    # the manifest must re-parse to this config, and parsing strips a value
    if not _UNWRITABLE.isdisjoint(cfg.out_dir) or cfg.out_dir != cfg.out_dir.strip():
        problems.append(
            f"out_dir must hold no '#' or line break and no surrounding whitespace, "
            f"which manifest.ini cannot carry (got {cfg.out_dir!r})"
        )
    problems.extend(cfg.rugosity_init().range_violations())
    for k in cfg.snapshot_steps:
        if k < 0 or k > cfg.n_steps:
            problems.append(f"snapshot step {k} outside [0, n_steps={cfg.n_steps}]")
    # profile lines must be node-aligned, no interpolation in v1
    if cfg.nx >= 3 and cfg.ny >= 3:
        for line in cfg.profiles:
            n = cfg.nx if line.orientation == "vertical" else cfg.ny
            if grid_line_index(line.coord, n) is None:
                problems.append(
                    f"profile line {line.axis}={line.coord} is not grid-aligned for n={n}"
                )
    return problems


# -- manifest ----------------------------------------------------------------


def _format_value(name: str, value) -> str:
    if name == "profiles":
        return format_profiles(value)
    if name == "snapshot_steps":
        return format_steps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def config_to_text(cfg: RunConfig, header_comments: dict[str, str] | None = None) -> str:
    """Serialize a config as the same key=value dialect parse_config reads.

    Extra information (code version, invariant summary) goes into comment
    lines so a re-parse sees only RunConfig keys and reproduces the config
    exactly.
    """
    lines = []
    for key, val in (header_comments or {}).items():
        lines.append(f"# {key} = {val}")
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
