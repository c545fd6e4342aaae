import os
import random
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The console script that `pip install -e .` puts next to this interpreter.
SCRIPT = Path(sysconfig.get_path("scripts")) / "fsglab"


@pytest.fixture
def rng():
    return random.Random(0xF5617AB)


def run_fresh(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run ``argv`` with this checkout's ``src`` first on ``PYTHONPATH``.

    A session in development mode (``python -X dev``) runs the child in it
    too, so a warning the child prints shows on its stderr.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    if sys.flags.dev_mode:
        env["PYTHONDEVMODE"] = "1"
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                          **kwargs)


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout with ``args``."""
    return run_fresh([sys.executable, *args], **kwargs)


def run_fsglab(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run the ``fsglab`` command in a fresh process: the installed console
    script when there is one, else ``python -m fsglab.cli`` on this checkout."""
    command = [str(SCRIPT)] if SCRIPT.exists() else [sys.executable, "-m", "fsglab.cli"]
    return run_fresh([*command, *args], **kwargs)
