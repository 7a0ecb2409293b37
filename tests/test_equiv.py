"""The parent-equivalence harness, run on this tree against itself at toy size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_against_itself_is_bitwise_equal():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "equiv.py"), str(ROOT), str(ROOT), "--toy"],
        check=True, capture_output=True, text=True, timeout=300,
    ).stdout
    result = json.loads(out)
    for what in ("predict", "grad_cam"):
        assert result[what]["equal"] and result[what]["max_rel"] == 0.0, what
    assert set(result["train"]) == {f"{w}/{dt}" for w in ("train_desk", "train_desk_baseline") for dt in ("f32", "f64")}
    for key, run in result["train"].items():
        assert run["bitwise"] and run["loss_max_rel"] == 0.0 and run["state_max_rel"] == 0.0, key
    assert result["equal"]
