"""Run configuration: defaults, key=value parsing, validation, manifest text.

The config dialect is flat ``key = value`` lines with ``#`` comments; keys
are exactly the RunConfig field names.  Defaults are overlaid by the file,
then by CLI overrides.  Validation collects every violated assumption and
names it by its label, e.g. "(A1): requires A > 0 and A + B*C0 > 0".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .grid import Edge, EdgeTag, ProfileLine, build_grid
from .model import ConstraintMode, NuLaw, PhysParams
from .surface import RugosityInit, RugosityInitMode


class ConfigError(ValueError):
    pass


RUN_MODES = ("simulate", "audit_only", "mms_spatial", "mms_temporal")
EDGE_CHOICES = ("left", "right", "bottom", "top", "none")


@dataclass(frozen=True)
class RunConfig:
    # physical / constitutive
    A: float = 0.1
    B: float = -0.05
    lam: float = 100.0
    C0: float = 1.0
    S0: float = 1.0
    sbar: float = 1.0
    g: float = 30.0
    R0: float = 4.0
    nu_law: str = "linear"
    nu0: float = 0.1
    nul: float = 1.0
    rl: float = 1.0
    weibull_m: float = 10.0
    weibull_r0: float = 0.2
    constraint_mode: str = "free"
    # grid
    nx: int = 65
    ny: int = 65
    exposed_edge: str = "left"
    # time stepping
    dt: float = 1.0 / 5000.0
    n_steps: int = 100
    picard_iters: int = 2
    # deterministic RNG / initial rugosity
    seed: int = 1
    r_init_mode: str = "piecewise"
    r_init_r0: float = 0.2
    r_init_value: float = 0.2
    r_init_lo_factor: float = 0.5
    r_init_hi_factor: float = 2.0
    r_init_split_x2: float = 0.5
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
    mode: str = "simulate"
    strict: bool = False
    enforce_global_bound: bool = True
    mms_levels: int = 4

    # -- derived objects ---------------------------------------------------

    def phys(self) -> PhysParams:
        return PhysParams(
            A=self.A,
            B=self.B,
            lam=self.lam,
            C0=self.C0,
            S0=self.S0,
            sbar=self.sbar,
            g=self.g,
            R0=self.R0,
            nu_law=NuLaw(self.nu_law),
            nu0=self.nu0,
            nul=self.nul,
            rl=self.rl,
            weibull_m=self.weibull_m,
            weibull_r0=self.weibull_r0,
            constraint_mode=ConstraintMode(self.constraint_mode),
        )

    def edge_tags(self) -> dict[Edge, EdgeTag]:
        tags = {e: EdgeTag.ISOLATED for e in Edge}
        if self.exposed_edge != "none":
            tags[Edge(self.exposed_edge)] = EdgeTag.EXPOSED
        return tags

    def grid(self):
        return build_grid(self.nx, self.ny, self.edge_tags())

    def rugosity_init(self) -> RugosityInit:
        return RugosityInit(
            mode=RugosityInitMode(self.r_init_mode),
            r0=self.r_init_r0,
            value=self.r_init_value,
            lo_factor=self.r_init_lo_factor,
            hi_factor=self.r_init_hi_factor,
            split_x2=self.r_init_split_x2,
        )


# -- parsing ----------------------------------------------------------------


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


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
    parts = []
    for line in profiles:
        axis = "x1" if line.orientation == "vertical" else "x2"
        parts.append(f"{axis}={line.coord:.17g}")
    return ";".join(parts)


def format_steps(steps: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in steps)


_CONVERTERS = {
    "profiles": _parse_profiles,
    "snapshot_steps": _parse_steps,
}


def _convert(name: str, ftype: str, raw: str):
    if name in _CONVERTERS:
        return _CONVERTERS[name](raw)
    raw = raw.strip()
    if ftype == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected a number, got {raw!r}") from exc
    if ftype == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected an integer, got {raw!r}") from exc
    if ftype == "bool":
        return _parse_bool(raw)
    return raw


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults overlaid by the document, overlaid by CLI overrides, validated."""
    field_types = {f.name: f.type for f in fields(RunConfig)}
    values: dict[str, object] = {}

    def apply(key: str, raw: str, where: str):
        key = key.strip()
        if key not in field_types:
            raise ConfigError(f"unknown key {key!r} ({where})")
        base = str(field_types[key]).split("[")[0]
        if base not in ("float", "int", "bool"):
            base = "str"
        values[key] = _convert(key, base, raw)

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

    cfg = replace(RunConfig(), **values)
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Collect every violated invariant; empty list means valid."""
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    problems: list[str] = [
        f"{key} must be finite (got {v})"
        for key, v in values.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]
    try:
        p = cfg.phys()
        problems.extend(p.validate(enforce_global_bound=cfg.enforce_global_bound))
    except ValueError as exc:
        problems.append(str(exc))
        p = None
    if cfg.nu_law not in ("linear", "parabolic"):
        problems.append(f"nu_law must be linear or parabolic (got {cfg.nu_law!r})")
    if cfg.constraint_mode not in ("free", "box"):
        problems.append(f"constraint_mode must be free or box (got {cfg.constraint_mode!r})")
    if cfg.exposed_edge not in EDGE_CHOICES:
        problems.append(f"exposed_edge must be one of {EDGE_CHOICES} (got {cfg.exposed_edge!r})")
    if cfg.mode not in RUN_MODES:
        problems.append(f"mode must be one of {RUN_MODES} (got {cfg.mode!r})")
    if cfg.nx < 3 or cfg.ny < 3:
        problems.append(f"grid needs nx, ny >= 3 (got {cfg.nx}x{cfg.ny})")
    if cfg.dt <= 0:
        problems.append(f"dt must be > 0 (got {cfg.dt})")
    if cfg.n_steps < 1:
        problems.append(f"n_steps must be >= 1 (got {cfg.n_steps})")
    if cfg.picard_iters < 1:
        problems.append(f"picard_iters must be >= 1 (got {cfg.picard_iters})")
    if cfg.mms_levels < 3:
        problems.append(f"mms_levels must be >= 3 (got {cfg.mms_levels})")
    if cfg.r_init_mode not in tuple(m.value for m in RugosityInitMode):
        problems.append(f"r_init_mode must be constant, piecewise or weibull (got {cfg.r_init_mode!r})")
    else:
        problems.extend(cfg.rugosity_init().validate())
    for k in cfg.snapshot_steps:
        if k < 0 or k > cfg.n_steps:
            problems.append(f"snapshot step {k} outside [0, n_steps={cfg.n_steps}]")
    # profile lines must be node-aligned, no interpolation in v1
    if cfg.nx >= 3 and cfg.ny >= 3:
        for line in cfg.profiles:
            n = cfg.nx if line.orientation == "vertical" else cfg.ny
            h = 1.0 / (n - 1)
            k = round(line.coord / h)
            if k < 0 or k >= n or abs(line.coord - k * h) > 1e-12:
                axis = "x1" if line.orientation == "vertical" else "x2"
                problems.append(
                    f"profile line {axis}={line.coord} is not grid-aligned for n={n}"
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
