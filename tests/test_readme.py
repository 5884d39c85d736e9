"""README examples run: the Quick start block and each command's example config."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from l0bounds.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# a command's prose opens a line with "`name` — "; its example is the next json block
COMMAND_CONFIGS = dict(re.findall(r"^`(\w+)` — .*?```json\n(.*?)```", README, re.M | re.S))
# the examples at test size: two coverage replicates, the fewest tail trials
SHRINK = {"coverage": {"replicates": 2}, "verify": {"trials": 10_000}}


def test_quick_start_runs(capsys):
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_command_has_an_example():
    assert set(COMMAND_CONFIGS) == {"bounds", "fit", "coverage", "grid", "verify"}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_command_example_runs(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(COMMAND_CONFIGS[command]), **SHRINK.get(command, {})}))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]
    if command == "fit":
        rng = np.random.default_rng(0)
        X = rng.choice([-1.0, 1.0], size=(60, 5))
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-0.8 * X[:, 1]))).astype(float)
        np.savetxt(tmp_path / "x.csv", X, delimiter=",")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",")
        argv += ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]
    assert main(argv) == 0
    assert json.loads((tmp_path / f"{command}.json").read_text())
