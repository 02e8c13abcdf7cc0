"""The runtime depends on numpy alone: scipy serves only the test oracles."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_never_imports_scipy():
    # Import the package and run both solver paths and the threshold search
    # in a fresh interpreter, then look for scipy among the loaded modules.
    script = (
        "import sys\n"
        "import ldpcdesign\n"
        "from ldpcdesign.cli import main\n"
        "for solver in ('lp', 'sdp'):\n"
        "    assert main(['optimize', '--solver', solver, '--rho', 'x^3', '--epsilon',\n"
        "                 '0.3', '--dv-max', '4', '--alpha', '1.0']) == 0\n"
        "assert main(['threshold', '--lambda', 'x^2', '--rho', 'x^5']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_lp_path_never_imports_the_sdp_module():
    # optimize --solver lp goes through the sweep, which loads the SDP
    # module only for SDP rows; the package import does not load it either.
    script = (
        "import sys\n"
        "import ldpcdesign\n"
        "assert 'ldpcdesign.sos' not in sys.modules\n"
        "from ldpcdesign.cli import main\n"
        "assert main(['optimize', '--solver', 'lp', '--rho', 'x^3', '--epsilon',\n"
        "             '0.3', '--dv-max', '4', '--alpha', '1.0']) == 0\n"
        "assert 'ldpcdesign.sos' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
