"""Command-line interface: run, mms, and sweep subcommands."""

from __future__ import annotations

import argparse
import os
import re
import sys

from .config import ConfigError, parse_config, parse_phys
from .diagnostics import mms_convergence
from .output import ensure_dir
from .runner import run, sweep


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sulphsim")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one simulation")
    run_p.add_argument("--config", help="key = value configuration file")
    run_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="key=value",
        help="override a config key (repeatable, highest precedence)",
    )
    run_p.add_argument("--out", help="output directory (overrides out_dir)")
    run_p.add_argument("--strict", action="store_true", help="abort on any invariant flag")

    mms_p = sub.add_parser("mms", help="convergence study of the implicit solve")
    mms_p.add_argument("--study", choices=("spatial", "temporal"), required=True)
    mms_p.add_argument("--levels", type=int, default=4, help="number of levels, >= 3 (default 4)")
    mms_p.add_argument("--config", help="optional config supplying physical parameters")
    mms_p.add_argument("--out", help="directory for the CSV table")

    sweep_p = sub.add_parser("sweep", help="run several configurations")
    sweep_p.add_argument(
        "--manifest",
        required=True,
        help="text file with one config path per line; a '#' at the start of a "
        "line or after whitespace starts a comment, so a path may hold '#'",
    )
    sweep_p.add_argument("--out", help="directory for the combined summary CSV")
    return ap


# a manifest comment: '#' at the start of the line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def _overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key.strip()] = val
    return out


def _read(path: str | None) -> str:
    """The text of the config file at path, or "" (all defaults) without one."""
    if path is None:
        return ""
    with open(path) as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = _overrides(args.sets)
            if args.out:
                overrides["out_dir"] = args.out
            if args.strict:
                overrides["strict"] = "true"
            result = run(parse_config(_read(args.config), overrides))
            if result.error:
                print(f"run failed: {result.error}", file=sys.stderr)
            else:
                summary = result.report.summary()
                print(
                    f"completed {summary.get('steps', '0')} steps, "
                    f"{summary.get('flags', '0')} invariant flags, "
                    f"artifacts in {result.config.out_dir}"
                )
            return result.status

        if args.command == "mms":
            if args.levels < 3:
                raise ConfigError(f"--levels must be >= 3 (got {args.levels})")
            # the study reads only the physical parameters, so only they are validated
            phys = parse_phys(_read(args.config))
            try:
                table = mms_convergence(args.study, args.levels, phys)
            except ConfigError:
                raise
            except Exception as exc:  # a solve failed, as run reports it
                print(f"mms failed: {exc}", file=sys.stderr)
                return 1
            print(table)
            out_dir = args.out or "."
            ensure_dir(out_dir)
            csv_path = os.path.join(out_dir, f"mms_{args.study}.csv")
            with open(csv_path, "w", newline="\n") as fh:
                fh.write(table.to_csv())
            print(f"table written to {csv_path}")
            return 0

        # sweep
        with open(args.manifest) as fh:
            base = os.path.dirname(os.path.abspath(args.manifest))
            paths = []
            for line in fh:
                entry = _COMMENT.split(line, maxsplit=1)[0].strip()
                if entry:
                    paths.append(entry if os.path.isabs(entry) else os.path.join(base, entry))
        configs = [parse_config(_read(path)) for path in paths]
        out_dir = args.out or base
        ensure_dir(out_dir)
        results = sweep(configs, os.path.join(out_dir, "sweep_summary.csv"))
        failures = [r for r in results if r.status != 0]
        for r in failures:
            print(f"{r.config.out_dir}: FAILED ({r.error})", file=sys.stderr)
        print(f"{len(results) - len(failures)}/{len(results)} runs succeeded")
        return 1 if failures else 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
