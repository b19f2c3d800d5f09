"""Smoke test in subprocesses: the demo scripts and the README's CLI examples run as documented."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_cli_examples():
    """(argv, printed lines) for each ``$ attikit ...`` example of the README's CLI section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *printed = chunk.replace("\\\n", " ").splitlines()
        assert command.startswith("$ attikit "), command
        examples.append((shlex.split(command)[2:], printed))
    return examples


EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_script_runs(demo):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()


@pytest.mark.parametrize("argv, printed", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_cli_example_prints_verbatim(tmp_path, argv, printed):
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    r = subprocess.run(
        [sys.executable, "-m", "attikit", *argv], capture_output=True, text=True, cwd=tmp_path
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == printed
    for a in argv:
        if a.endswith(".csv"):
            assert Path(a).read_text(encoding="utf-8").startswith("t,")
