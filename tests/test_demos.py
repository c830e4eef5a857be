import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _repo_files() -> set[Path]:
    found = set()
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d != ".git"]
        found.update(Path(root, name) for name in files)
    return found


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs_and_writes_nothing_into_the_repository(demo, tmp_path):
    before = _repo_files()
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert _repo_files() - before == set()
