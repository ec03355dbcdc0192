"""Tier-1's per-test time cap holds with or without pytest-timeout.

The root ``conftest.py`` enforces ``pyproject.toml``'s ``timeout`` where the
plugin is not installed; where it is, the plugin does.  Either way a test
that runs past the cap fails the run and is named in its output.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_test_past_the_cap_ends_the_run_naming_it(tmp_path):
    shutil.copy(ROOT / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n")
    (tmp_path / "test_slow.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def test_sleeps_past_the_cap():\n"
        "    time.sleep(60)\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_slow.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=50,
    )
    output = run.stdout + run.stderr
    assert run.returncode != 0
    assert "Timeout" in output and "test_sleeps_past_the_cap" in output
