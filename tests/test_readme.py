"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    summary = namespace["summary"]
    assert summary.n_sims == 2000
    means = summary.sample_mean
    assert max(means.values()) - min(means.values()) <= 1e-9 * abs(summary.analytic_mean)
    assert all(math.isfinite(namespace[name]) for name in ("mean", "var", "psi"))
