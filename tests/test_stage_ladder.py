import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "stage_ladder.py"


def _script():
    spec = importlib.util.spec_from_file_location("stage_ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_ladder_prints_one_row_with_every_stage():
    """scripts/stage_ladder.py runs A4 m=13 through every stage and prints
    one JSON row with a time for each of them and the digest of the bytes
    that every pass wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--groups", "A4", "--targets", "13"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["group"] == "A4" and row["m"] == 13 and row["cert_bytes"] > 0
    assert len(row["cert_sha256"]) == 64 and int(row["cert_sha256"], 16) >= 0
    for stage in _script().STAGES:
        assert row[f"{stage}_s"] >= 0, stage
    assert row["end_to_end_s"] >= 0


def test_stage_ladder_raises_when_passes_write_different_bytes(monkeypatch):
    module = _script()
    passes = []

    def drifting(group, m, config, path):
        passes.append(m)
        Path(path).write_text(str(len(passes)))
        return dict.fromkeys(module.STAGES, 0.0)

    monkeypatch.setattr(module, "one_pass", drifting)
    monkeypatch.setattr(sys, "argv", ["stage_ladder.py", "--groups", "A4", "--targets", "13"])
    with pytest.raises(RuntimeError, match="different bytes"):
        module.main()
    assert passes == [13] * (module.REPEATS + 1)
