"""The README's library example runs as written, and its command lines parse."""

import math
import re
import shlex
from pathlib import Path

from lqdisc.cli import _build_parser

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


def test_readme_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    lines = [
        line for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        for line in block.splitlines() if line.startswith("lqdisc ")
    ]
    assert {shlex.split(line)[1] for line in lines} == {
        "discretize", "benchmark", "montecarlo", "expected-cost", "solve"
    }
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None
