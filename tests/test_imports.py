"""Import footprint: a CLI process loads only the modules its verb uses.

Each check runs in a fresh interpreter, since the package's modules
stay loaded for the rest of any process that imports them.
"""

import json
import subprocess
import sys

from conftest import src_env

COMPUTE = ("factorizer", "lengths", "constructs", "check")

# Runs one CLI invocation with its output silenced, then prints the
# multifrac modules the process loaded.
PROBE = """
import contextlib, io, json, sys
from multifrac.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
loaded = sorted(m[len("multifrac."):] for m in sys.modules if m.startswith("multifrac."))
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


def loaded_by(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rc"] == 0, argv
    return set(out["loaded"])


def test_classify_and_atoms_load_no_compute_module():
    for argv in (
        ["classify", "--base", "2/3"],
        ["classify", "--bases", "2/3,4/5"],
        ["atoms", "--bases", "2/3,4/5", "--emax", "2"],
    ):
        assert loaded_by(argv).isdisjoint(COMPUTE), argv


def test_member_loads_only_the_hub_solver():
    loaded = loaded_by(["member", "--bases", "2/3,4/5", "--x", "22/15"])
    assert "factorizer" in loaded
    assert loaded.isdisjoint({"lengths", "constructs", "check"})


def test_warm_cache_hit_loads_no_length_module(tmp_path):
    argv = ["lengths", "--bases", "2/5", "--x", "2/1", "--cap", "20", "--cache-dir", str(tmp_path)]
    assert "lengths" in loaded_by(argv)
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert "lengths" not in loaded_by(argv)


def test_public_names_resolve_lazily():
    probe = """
import multifrac, sys
assert not any(m.startswith("multifrac.") for m in sys.modules), sorted(sys.modules)
for name in multifrac.__all__:
    getattr(multifrac, name)
try:
    multifrac.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("unknown name resolved")
namespace = {}
exec("from multifrac import *", namespace)
assert set(multifrac.__all__) <= set(namespace), set(multifrac.__all__) - set(namespace)
from multifrac import solve_hub
from multifrac.factorizer import solve_hub as direct
assert solve_hub is direct
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
