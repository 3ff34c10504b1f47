"""The scripts under scripts/ run against the current API and exit 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import formflow.systems as sy

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_theorem_survey_rows_cover_every_process_and_chain():
    proc = _script("theorem_survey.py", "--preset", "euler.rigid_rotation")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    # 3 processes x 3 chains: (preset, process, chain, integrand, rate, verdict)
    assert len(rows) == 9
    assert {(r[1], r[2]) for r in rows} == {
        (p, c) for p in ("spacetime", "spatial", "probe") for c in ("circle", "torus", "shell")
    }
    assert [r[5] for r in rows if r[1:3] == ["spacetime", "circle"]] == ["conserved"]


def test_run_all_presets_writes_one_report_per_preset(tmp_path):
    proc = _script("run_all_presets.py", "--battery", "pfaff", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{n.replace('.', '_')}.json" for n in sy.preset_names())
