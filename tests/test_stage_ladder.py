import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "stage_ladder.py"


def _stages():
    spec = importlib.util.spec_from_file_location("stage_ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STAGES


def test_stage_ladder_prints_one_row_with_every_stage():
    """scripts/stage_ladder.py runs A4 m=13 through every stage and prints
    one JSON row with a time for each of them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--groups", "A4", "--targets", "13"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["group"] == "A4" and row["m"] == 13 and row["cert_bytes"] > 0
    for stage in _stages():
        assert row[f"{stage}_s"] >= 0, stage
    assert row["end_to_end_s"] >= 0
