"""Import footprint: a CLI process loads only the modules its verb uses.

Each check runs in a fresh interpreter, since the package's modules
stay loaded for the rest of any process that imports them.
"""

import json
import subprocess
import sys

import pytest

from conftest import src_env

COMPUTE = ("factorizer", "lengths", "constructs", "check")

# One cheap invocation of each verb.
VERBS = {
    "classify": ["classify", "--bases", "2/3,4/5"],
    "atoms": ["atoms", "--bases", "2/3,4/5", "--emax", "2"],
    "member": ["member", "--bases", "2/3,4/5", "--x", "22/15"],
    "factorize": ["factorize", "--bases", "2/3", "--x", "2", "--emax", "3", "--lenmax", "8"],
    "lengths": ["lengths", "--bases", "2/5", "--x", "2/1", "--cap", "20"],
    "delta": ["delta", "--bases", "2/3,4/5", "--x", "2"],
    "unions": ["unions", "--bases", "2/3", "--k", "2", "--emax", "2", "--cap", "10"],
    "construct": ["construct", "--kind", "delta", "--d", "1", "--K", "1"],
    "difftest": ["difftest", "--bases", "2/3", "--trials", "2", "--emax", "3", "--lenmax", "8"],
}

# Runs one CLI invocation with its output silenced, then prints every
# module the process loaded.
PROBE = """
import contextlib, io, json, sys
from multifrac.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def modules_loaded_by(argv):
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
    return set(out["modules"])


def loaded_by(argv):
    """The multifrac modules one invocation loads, without the package prefix."""
    prefix = "multifrac."
    return {m[len(prefix):] for m in modules_loaded_by(argv) if m.startswith(prefix)}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_skips_dataclasses_and_loads_hashlib_only_with_a_cache(verb, tmp_path):
    plain = modules_loaded_by(VERBS[verb])
    assert plain.isdisjoint({"dataclasses", "inspect", "hashlib"}), verb
    cached = modules_loaded_by([*VERBS[verb], "--cache-dir", str(tmp_path)])
    assert "hashlib" in cached
    assert cached.isdisjoint({"dataclasses", "inspect"}), verb


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


def test_factorize_loads_no_length_module():
    """`complete` needs only the witness families of the hub, not L(x)."""
    for argv in (
        VERBS["factorize"],
        ["factorize", "--bases", "2/3,4/5", "--x", "4", "--emax", "2", "--lenmax", "6"],
        ["factorize", "--bases", "3/2,2/5", "--x", "2", "--emax", "2", "--lenmax", "6"],
    ):
        loaded = loaded_by(argv)
        assert "factorizer" in loaded
        assert loaded.isdisjoint({"lengths", "constructs", "check"}), argv


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
