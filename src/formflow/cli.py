"""The formflow command: read a run config, run its batteries, report.

formflow.config reads the config, and the command's [run] flags with it.
run builds the run's Runtime and runs the selected batteries of
formflow.batteries, which declares every check they report.  Reports
serialize to JSON with sorted keys and no timestamps, so identical config
plus seed yields byte-identical output.

Exit codes: 0 every selected check passed, 1 at least one check failed,
2 configuration error, 3 internal error or inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import batteries as bt
from . import chains as ch
from . import expr as ex
from . import forms as fm
from . import systems as sy
from . import thermo as th
from .config import ConfigError, RunConfig, build_runtime, parse_config
from .expr import InconclusiveError

# parse_config is formflow.config's, named here too for callers of the command's module
__all__ = ["Report", "main", "parse_config", "run"]

SCHEMA = "formflow-report/1"


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class Report:
    document: dict
    passed: bool
    inconclusive: bool

    def to_json(self) -> str:
        return json.dumps(self.document, sort_keys=True, indent=2,
                          default=_json_default) + "\n"


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


# ---------------------------------------------------------------------------
# Run


def run(cfg: RunConfig) -> Report:
    """Execute the selected batteries and assemble the structured report.

    Battery errors are retained as partial results; an internal or
    inconclusive error marks the report inconclusive rather than failed.
    Expressions are built within one ex.run_memo() scope, so each add, mul
    and partial derivative is built once per run and none outlives it.
    """
    with ex.run_memo():
        rt = build_runtime(cfg)
        checks = bt.Checks()
        batteries: dict[str, dict] = {}
        errors: dict[str, str] = {}

        for name in cfg.selected_batteries():
            try:
                batteries[name] = bt.BATTERY_FUNCS[name](rt, checks)
            except InconclusiveError as e:
                batteries[name] = {"error": f"{type(e).__name__}: {e}"}
                errors[name] = str(e)

        checks.sort(key=lambda c: (c.battery, c.name))
        passed = all(c.passed for c in checks) and not errors
        document = {
            "schema": SCHEMA,
            "provenance": {
                "version": __version__,
                "seed": cfg.seed,
                "tolerance": cfg.tolerance,
                "preset": cfg.preset or None,
                "batteries": list(cfg.selected_batteries()),
                "params": {k: v for k, v in sorted(rt.params.items())},
            },
            "batteries": batteries,
            "checks": [c.as_dict() for c in checks],
            "counts": {
                "passed": sum(1 for c in checks if c.passed),
                "failed": sum(1 for c in checks if not c.passed),
                "errors": len(errors),
            },
            "passed": passed,
        }
        return Report(document=document, passed=passed, inconclusive=bool(errors))


def _summary_lines(report: Report, cfg: RunConfig) -> list[str]:
    doc = report.document
    head = f"formflow {__version__}"
    if cfg.preset:
        head += f" — preset {cfg.preset}"
    lines = [head, f"batteries: {', '.join(doc['provenance']['batteries'])}"]
    for c in doc["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        extra = ""
        if c["value"] is not None and c["tolerance"] is not None:
            extra = f" ({c['value']:.3e} vs {c['tolerance']:.3e})"
        lines.append(f"  {mark} {c['battery']}.{c['name']}{extra}")
    for name, body in doc["batteries"].items():
        if "error" in body:
            lines.append(f"  ERROR {name}: {body['error']}")
    counts = doc["counts"]
    lines.append(
        f"{counts['passed']} passed, {counts['failed']} failed, "
        f"{counts['errors']} errors"
    )
    lines.append("RESULT " + ("PASS" if report.passed else
                              "INCONCLUSIVE" if report.inconclusive else "FAIL"))
    return lines


# ---------------------------------------------------------------------------
# Entry point


def _internal_error(e: Exception) -> int:
    lines = str(e).splitlines()
    print(f"internal error: {type(e).__name__}: {lines[0] if lines else ''}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="formflow",
        description="exterior-calculus diagnostics for action 1-forms",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list bundled presets and exit"
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a diagnostic battery")
    runp.add_argument("config", nargs="?", help="config file path")
    runp.add_argument("--battery", action="append", help="comma-separated batteries")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--tolerance", type=float, default=None)
    runp.add_argument("--preset", default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument(
        "--summary",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="print a human-readable summary to stderr",
    )
    args = parser.parse_args(argv)

    if args.list_presets:
        for name, text in sy.PRESETS.items():  # each text's first line is "# summary"
            print(f"{name}: {text.splitlines()[0][2:]}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    if not args.config and not args.preset:
        print("config error: give a config file or --preset", file=sys.stderr)
        return 2
    try:
        text = ""
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"config error: {e}", file=sys.stderr)
                return 2
        # flags override the file's [run] values and pass the same checks
        flags = {**vars(args), "battery": ",".join(args.battery) if args.battery else None}
        cfg = parse_config(text, flags)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash is exit 3 with one line, never a traceback
        return _internal_error(e)

    try:
        report = run(cfg)
    # InconclusiveError is an ExprError, so it must be caught first
    except InconclusiveError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, fm.FormError, ch.ChainError, th.ThermoError, ex.ExprError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)

    payload = report.to_json()
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:  # a directory, or a path whose directory is missing
            print(f"config error: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    if cfg.summary:
        for line in _summary_lines(report, cfg):
            print(line, file=sys.stderr)
    if report.inconclusive:
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
