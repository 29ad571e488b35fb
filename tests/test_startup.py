"""What start-up imports: numpy loads with ``simulate``, and only a command
or call that simulates imports that.  Each check runs in a fresh interpreter,
since this test session has long since imported numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwembed

SRC = str(Path(cwembed.__file__).resolve().parents[1])
SPEC = {"mu0": [[-1, 0.5], [1, 0.5]], "mu": [[0, 1]],
        "simulation": {"n_paths": 2000, "seed": 1, "gammas": [2]}}
BUILD = """from cwembed.cli import main
assert main(['build', '--spec', 's.json', '--out', 'p.json']) == 0"""
COMMANDS = """assert main(['analyze', '--spec', 's.json', '--out', 'a.txt']) == 0
assert main(['diagram', '--spec', 's.json', '--plan', 'p.json', '--out', 'd.svg']) == 0"""
VERIFY = "assert main(['verify', '--spec', 's.json', '--plan', 'p.json', '--out', 'v.txt']) == 0"


def _loads_numpy(tmp_path, code) -> bool:
    """Whether numpy is imported once ``code`` has run in a fresh interpreter."""
    (tmp_path / "s.json").write_text(json.dumps(SPEC))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=path), text=True, check=True).stdout
    return {"True\n": True, "False\n": False}[out]


@pytest.mark.parametrize("code, loads", [
    ("import cwembed", False),
    ("import cwembed.cli", False),
    (f"{BUILD}\n{COMMANDS}", False),
    (f"{BUILD}\n{VERIFY}", True),
    ("import cwembed\ncwembed.empirical_law", True),
], ids=["package", "cli", "analyze-build-diagram", "verify", "empirical_law"])
def test_only_simulating_imports_numpy(tmp_path, code, loads):
    assert _loads_numpy(tmp_path, code) is loads


def test_simulate_names_resolve_on_first_use(tmp_path):
    code = """import cwembed
assert 'numpy' not in sys.modules
assert cwembed.empirical_law is cwembed.simulate.empirical_law
from cwembed import EmpiricalLaw, PathSample, sample_path, tail_probability, tv_distance
assert PathSample is cwembed.simulate.PathSample
try:
    cwembed.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError('cwembed.no_such_name resolved')"""
    assert _loads_numpy(tmp_path, code)
