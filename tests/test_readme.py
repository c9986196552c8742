"""README's library quick start runs, and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    # each print call writes one line; a trailing comment says what it is
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = {
        i: line.split("#", 1)[1].strip() for i, line in enumerate(prints) if "#" in line
    }
    assert expected
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    out = r.stdout.splitlines()
    assert len(out) == len(prints)
    for i, want in expected.items():
        assert out[i] == want
