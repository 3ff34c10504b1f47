#!/usr/bin/env python3
"""Run the full diagnostic battery on every bundled preset.

Writes one JSON report per preset and prints the check table. Exit code is
the number of presets with at least one failing check, or 2 when the
options do not make a valid config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import formflow.cli as cli
import formflow.config as config
import formflow.systems as sy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("reports"))
    ap.add_argument("--battery", default="all", help="comma-separated batteries")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    seed = "" if args.seed is None else f"seed = {args.seed}\n"
    bad = 0
    for name in sy.preset_names():
        try:
            cfg = config.parse_config(f"[run]\npreset = {name}\nbattery = {args.battery}\n{seed}")
        except config.ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        report = cli.run(cfg)
        doc = report.document
        path = args.out_dir / f"{name.replace('.', '_')}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        counts = doc["counts"]
        mark = "PASS" if report.passed else "FAIL"
        print(f"{mark} {name}: {counts['passed']} passed, "
              f"{counts['failed']} failed -> {path}")
        for c in doc["checks"]:
            if not c["passed"]:
                print(f"     FAIL {c['battery']}.{c['name']}: {c['detail']}")
        bad += 0 if report.passed else 1
    return bad


if __name__ == "__main__":
    raise SystemExit(main())
