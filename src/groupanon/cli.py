"""Command-line front end.

Subcommands::

    groupanon signal       --config cfg.json --group NAME   goal signal CSV + SVG chart
    groupanon decompose    --config cfg.json --group NAME   wavelet coefficients CSV
    groupanon redistribute --config cfg.json --group NAME   redistribution report for one group
    groupanon run          --config cfg.json [--group NAME] full pipeline over all groups,
                                                            or that group alone
    groupanon verify                                        reference-value check table

Exit codes: 0 success, 1 stage error, 2 configuration error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import GroupConfig, PipelineConfig, load_pipeline_config
from .errors import ConfigError, GroupAnonError, StageError
from .charts import svg_line_chart
from .atomic import atomic_write
from .pipeline import (
    GroupLog,
    build_goal_signal,
    edit_group,
    load_input,
    run_pipeline,
    write_coefficients_csv,
    write_outputs,
    write_signal_csv,
)
from .verify import format_table, has_failures, verify_reference_values
from .wavelet import decompose

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupanon",
        description="Conceal group-level distribution features in statistical microfiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, group_help=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline configuration file (JSON)")
        p.add_argument("--input", help="override the configured input CSV")
        p.add_argument("--output", help="override the configured output CSV")
        p.add_argument("--report", help="override the configured report directory")
        p.add_argument("--group", required=group_help is None,
                       help=group_help or "group name from the config")
        return p

    add("signal", "write a group's goal signal as CSV plus an SVG chart")
    add("decompose", "write a group's wavelet coefficients as CSV")
    add("redistribute", "run a group through constraint solving and repair (no swaps)")
    add("run", "run the full pipeline over every configured group",
        "run only this group from the config, on the input table")
    p = sub.add_parser("verify", help="recompute the bundled reference values")
    p.add_argument("--fixture", help="override the packaged fixture CSV path")
    return parser


def _load_config(args) -> PipelineConfig:
    """The config with the command-line overrides, narrowed to the ``--group`` one if given.

    An unknown group name is a ``ConfigError``, raised before any input is read.
    """
    config = load_pipeline_config(args.config)
    replacements = {}
    if args.group is not None:
        chosen = tuple(g for g in config.groups if g.name == args.group)
        if not chosen:
            known = ", ".join(g.name for g in config.groups)
            raise ConfigError(f"no group named {args.group!r} in the config (have: {known})")
        replacements["groups"] = chosen
    if args.input:
        replacements["input"] = Path(args.input)
    if args.output:
        replacements["output"] = Path(args.output)
    if args.report:
        replacements["report_dir"] = Path(args.report)
    return replace(config, **replacements)


def _report_dir(config: PipelineConfig) -> Path:
    path = config.report_path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_signal(config: PipelineConfig, gcfg: GroupConfig) -> int:
    name = gcfg.name
    m = load_input(config)
    signal = GroupLog(name).stage("signal", build_goal_signal, m, gcfg)
    out = _report_dir(config)
    write_signal_csv(out / f"{name}_signal.csv", signal.parameter_order, signal.values)
    svg_line_chart(signal.parameter_order, signal.values, out / f"{name}_signal.svg",
                   title=f"{name}: {gcfg.signal} signal")
    print(f"wrote {out / f'{name}_signal.csv'} and {out / f'{name}_signal.svg'}")
    return EXIT_OK


def _cmd_decompose(config: PipelineConfig, gcfg: GroupConfig) -> int:
    name = gcfg.name
    m = load_input(config)
    stage = GroupLog(name).stage
    signal = stage("signal", build_goal_signal, m, gcfg)
    dec = stage("decompose", decompose, signal.values, gcfg.filter, gcfg.level)
    out = _report_dir(config)
    path = out / f"{name}_coefficients.csv"
    write_coefficients_csv(path, dec)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_redistribute(config: PipelineConfig, gcfg: GroupConfig) -> int:
    name = gcfg.name
    m = load_input(config)
    log = GroupLog(name)
    edit = edit_group(m, gcfg, log)
    out = _report_dir(config)
    write_signal_csv(out / f"{name}_signal_before.csv",
                     edit.before.parameter_order, edit.before.values)
    write_signal_csv(out / f"{name}_signal_redistributed.csv",
                     edit.before.parameter_order, edit.final_signal)
    payload = {
        "group": name,
        "coefficients": [float(v) for v in edit.coefficients],
        "shift": edit.shift,
        "warnings": log.warnings,
        "constraints": [] if edit.lp is None else [
            {"row": edit.lp.describe_row(i), "lhs": lhs, "satisfied": ok}
            for i, (lhs, ok) in enumerate(zip(edit.checks.lhs.tolist(),
                                              edit.checks.satisfied.tolist()))
        ],
    }
    with atomic_write(out / f"{name}_redistribution.json") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    print(f"wrote redistribution artifacts for {name!r} under {out}")
    return EXIT_OK


def _cmd_run(config: PipelineConfig, config_s: float) -> int:
    result = run_pipeline(config)
    write_outputs(config, result, config_s)
    for g in result.groups:
        print(f"group {g.name}: {len(g.plan)} swaps, total cost {g.plan.total_cost:.3f}, "
              f"shift {g.edit.shift:g}")
    print(f"wrote {config.output_path}")
    return EXIT_OK


def _cmd_verify(fixture: str | None) -> int:
    started = time.perf_counter()
    rows = verify_reference_values(fixture_csv=fixture)
    print(format_table(rows))
    print(f"elapsed {time.perf_counter() - started:.2f}s")
    return EXIT_VERIFY if has_failures(rows) else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args.fixture)
        started = time.perf_counter()
        config = _load_config(args)
        if args.command == "run":
            return _cmd_run(config, time.perf_counter() - started)
        command = {"signal": _cmd_signal, "decompose": _cmd_decompose,
                   "redistribute": _cmd_redistribute}[args.command]
        return command(config, *config.groups)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"stage error {exc}", file=sys.stderr)
        return EXIT_STAGE
    except GroupAnonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    raise SystemExit(main())
