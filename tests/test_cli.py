"""Command-line surface: parsing, reports, caching, exit codes."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import SRC, src_env
from multifrac import lengths
from multifrac.check import difftest
from multifrac.cli import Command, main, parse_command, run
from multifrac.exceptions import NotCanonical
from multifrac.factorizer import SearchCaps
from multifrac.monoid import build_generator_set
from fractions import Fraction


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command_fields(monkeypatch):
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    cmd = parse_command(["member", "--bases", "2/3", "--x", "4/3", "--json"])
    assert isinstance(cmd, Command)
    assert cmd.verb == "member"
    assert cmd.params["bases"] == "2/3"
    assert cmd.params["x"] == "4/3"
    assert cmd.output == "json"
    assert cmd.cache_dir is None

    plain = parse_command(["member", "--bases", "2/3", "--x", "4/3"])
    assert plain.output == "text"


def test_parse_command_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MULTIFRAC_CACHE", str(tmp_path))
    cmd = parse_command(["member", "--bases", "2/3", "--x", "2/1"])
    assert cmd.cache_dir == str(tmp_path)


def test_usage_errors_exit_1(capsys, tmp_path):
    not_a_dir = tmp_path / "regular-file"
    not_a_dir.write_text("")
    code, _, err = invoke(capsys, ["member", "--bases", "2/3"])
    assert code == 1
    assert "error[ParseError]" in err

    code, _, err = invoke(capsys, ["no-such-verb"])
    assert code == 1

    for argv in (
        ["member", "--bases-file", "no/such/file", "--x", "2"],
        ["construct", "--kind", "nonatomic", "--seed-primes", "2,x"],
        ["unions", "--bases", "2/3", "--k", "2", "--aap-d", "0"],
        ["unions", "--bases", "2/3", "--k", "2", "--aap-d", "1", "--aap-n", "-1"],
        ["unions", "--bases", "2/3", "--k", "2", "--aap-n", "-1"],
        ["delta", "--bases", "2/3", "--emax", "-1"],
        ["factorize", "--bases", "2/3", "--x", "2", "--emax", "2", "--lenmax", "7", "--limit", "-1"],
        ["delta", "--bases", "2/3,4/5", "--trials", "-3", "--json"],
        ["lengths", "--bases", "2/3", "--x", "2", "--cap", "-1"],
        ["unions", "--bases", "2/3", "--k", "2", "--cap", "-1"],
        ["factorize", "--bases", "2/3", "--x", "2", "--lenmax", "-1"],
        ["construct", "--kind", "nonatomic", "--nmax", "-1"],
        ["difftest", "--bases", "2/3", "--trials", "-1"],
        ["unions", "--bases", "2/3", "--k", "2", "--lenmax", "8"],
        ["construct", "--kind", "delta", "--emax", "2"],
        ["construct", "--kind", "delta", "--lenmax", "8"],
        ["member", "--bases", "2/3", "--x", "2/3", "--cache-dir", str(not_a_dir), "--json"],
        ["member", "--bases", "2/3", "--x", "2/3", "--cache-dir", str(not_a_dir / "sub")],
    ):
        code, out, err = invoke(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error[ParseError]") and err.count("\n") == 1, err
    assert not list(tmp_path.rglob("*.tmp"))


def test_member_json_shape(capsys):
    code, out, _ = invoke(capsys, ["member", "--bases", "2/3", "--x", "4/3", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "member",
        "bases": ["2/3"],
        "x": "4/3",
        "member": True,
        "hub": {"c0": 0, "terms": [{"base": "2/3", "exp": 1, "coeff": 2}]},
    }


def test_member_over_a_product_of_two_large_primes_returns_quickly():
    """den(x) = (10^12+39)(10^12+61) is split among the bases by gcds, so
    no step of the process costs on the order of the square root of a prime."""
    base = f"2/{(10**12 + 39) * (10**12 + 61)}"
    env = src_env()
    env.pop("MULTIFRAC_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "multifrac.cli", "member", "--bases", base, "--x", base, "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["member"] is True
    assert data["hub"] == {"c0": 0, "terms": [{"base": base, "exp": 1, "coeff": 1}]}


@pytest.mark.parametrize("verb", ["lengths", "delta"])
def test_four_generator_delta_scan_returns_quickly(verb):
    """The steps 37, 40, 42 and 46 have gcd 1, so the union settles into
    one class past Schur's bound, far below the lcm of the steps."""
    env = src_env()
    env.pop("MULTIFRAC_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "multifrac.cli", verb,
         "--bases", "2/39,3/43,5/47,7/53", "--x", "20", "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["delta"] == [1, 2, 3, 4, 10, 19, 28, 37]


def test_member_false_is_not_an_error(capsys):
    code, out, _ = invoke(capsys, ["member", "--bases", "2/3", "--x", "1/3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["member"] is False
    assert data["hub"] is None


def test_text_rendering_is_flat_key_value(capsys):
    code, out, _ = invoke(capsys, ["member", "--bases", "2/3", "--x", "4/3"])
    assert code == 0
    assert "member = true" in out
    assert "hub.c0 = 0" in out


def test_repeated_invocations_are_byte_identical(capsys):
    argv = ["delta", "--bases", "2/3,4/5", "--trials", "12", "--seed", "9", "--json"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second

    argv = ["lengths", "--bases", "2/5", "--x", "2/1", "--cap", "15", "--json"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_run_returns_the_report_dict():
    cmd = parse_command(["lengths", "--bases", "2/3", "--x", "2/1", "--cap", "10"])
    report = run(cmd)
    assert report["command"] == "lengths"
    assert report["members_within"]["values"] == list(range(2, 11))
    assert report["infinite"] is True
    assert report["families"] == [[], [0]]
    assert report["single_difference"] == 1


def test_lengths_mixed_runs_the_improper_pass_once(capsys, monkeypatch):
    """A mixed `lengths` makes one improper pass, and its splittings are
    read off the printed hub: (y0 + j, x - y0 - j) for 0 <= j <= c0,
    y0 the value of the improper terms and c0 the units."""
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    calls = []
    inner = lengths._splittings

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(lengths, "_splittings", counted)
    code, out, _ = invoke(capsys, ["lengths", "--bases", "3/2,2/5", "--x", "7", "--json"])
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert "families" not in report and "splittings" not in report
    hub = report["hub"]
    y0 = sum(
        (t["coeff"] * Fraction(t["base"]) ** t["exp"] for t in hub["terms"] if Fraction(t["base"]) > 1),
        Fraction(0),
    )
    x = Fraction(7)
    pairs = tuple((y0 + j, x - y0 - j) for j in range(hub["c0"] + 1))
    B = build_generator_set([Fraction(3, 2), Fraction(2, 5)])
    assert pairs == lengths.improper_divisor_pairs(x, B).pairs


def test_cache_write_and_read_back(tmp_path, capsys):
    argv = [
        "member", "--bases", "2/3", "--x", "4/3",
        "--json", "--cache-dir", str(tmp_path),
    ]
    code, first, _ = invoke(capsys, argv)
    assert code == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    stored = json.loads(entries[0].read_text())
    assert stored["manifest"]["verb"] == "member"
    assert stored["manifest"]["params"]["x"] == "4/3"
    assert stored["report"] == json.loads(first)

    # Doctor the cached report; a second run must serve the cached bytes,
    # which proves the hit path is real.
    stored["report"]["x"] = "99/1"
    entries[0].write_text(json.dumps(stored))
    _, second, _ = invoke(capsys, argv)
    assert json.loads(second)["x"] == "99/1"


def test_cache_follows_the_contents_of_a_bases_file(tmp_path, capsys):
    bases = tmp_path / "bases.txt"
    bases.write_text("2/3\n")
    argv = [
        "member", "--bases-file", str(bases), "--x", "2",
        "--json", "--cache-dir", str(tmp_path / "cache"),
    ]
    code, first, _ = invoke(capsys, argv)
    assert code == 0 and json.loads(first)["bases"] == ["2/3"]

    bases.write_text("4/5\n")
    code, second, _ = invoke(capsys, argv)
    assert code == 0 and json.loads(second)["bases"] == ["4/5"]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_unreadable_cache_entry_is_a_miss_and_is_rewritten(tmp_path, capsys):
    argv = [
        "lengths", "--bases", "2/5", "--x", "2", "--cap", "20",
        "--json", "--cache-dir", str(tmp_path),
    ]
    code, first, _ = invoke(capsys, argv)
    assert code == 0
    (entry,) = tmp_path.glob("*.json")
    whole = entry.read_text()
    entry.write_text(whole[: len(whole) // 2])

    code, second, err = invoke(capsys, argv)
    assert code == 0 and err == ""
    assert second == first
    assert entry.read_text() == whole
    assert list(tmp_path.iterdir()) == [entry]


def test_cache_misses_once_the_package_source_changes(tmp_path):
    """The key digests the package's own source, so a report cached by
    other code under the same version is never served."""
    shutil.copytree(SRC / "multifrac", tmp_path / "pkg" / "multifrac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = src_env()
    env["PYTHONPATH"] = str(tmp_path / "pkg")
    env.pop("MULTIFRAC_CACHE", None)
    cache = tmp_path / "cache"
    argv = [sys.executable, "-m", "multifrac.cli", "member", "--bases", "2/3", "--x", "4/3",
            "--json", "--cache-dir", str(cache)]

    def cached_run():
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = cached_run()
    assert cached_run() == first
    assert len(list(cache.glob("*.json"))) == 1
    with open(tmp_path / "pkg" / "multifrac" / "qcore.py", "a") as source:
        source.write("# an edit that changes no report\n")
    assert cached_run() == first
    assert len(list(cache.glob("*.json"))) == 2


def test_unwritable_cache_is_a_usage_error_and_leaves_no_temporary_file(
    tmp_path, capsys, monkeypatch
):
    not_a_dir = tmp_path / "regular-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("MULTIFRAC_CACHE", str(not_a_dir / "sub"))
    code, out, err = invoke(capsys, ["member", "--bases", "2/3", "--x", "2/3"])
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]") and err.count("\n") == 1, err

    # A directory in the place of the entry lets the temporary file be
    # written but not moved into place.
    cache = tmp_path / "cache"
    argv = ["member", "--bases", "2/3", "--x", "2/3", "--cache-dir", str(cache)]
    assert invoke(capsys, argv)[0] == 0
    (entry,) = cache.glob("*.json")
    entry.unlink()
    entry.mkdir()
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]") and err.count("\n") == 1, err
    assert not list(cache.glob("*.tmp"))


def test_domain_errors_exit_2(capsys):
    code, _, err = invoke(capsys, ["lengths", "--bases", "2/3", "--x", "1/3"])
    assert code == 2
    assert "error[NotMember]" in err

    code, _, err = invoke(capsys, ["difftest", "--bases", "2/3,5/6"])
    assert code == 2
    assert "error[NotCanonical]" in err


def test_unions_over_the_empty_set_is_a_domain_error(capsys):
    """The trivial monoid has no nonzero element: one error line, exit 2."""
    code, out, err = invoke(capsys, ["unions", "--bases", ",", "--k", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error[NotMember]") and err.count("\n") == 1, err


def test_difftest_function_passes_on_canonical_sets():
    B = build_generator_set([Fraction(2, 3)])
    report = difftest(B, 40, SearchCaps(6, 16), rng_seed=11)
    assert report["ok"] is True
    assert len(report["cases"]) == 40
    assert all(case["ok"] for case in report["cases"])


def test_difftest_function_rejects_non_canonical():
    bad = build_generator_set([Fraction(2, 3), Fraction(5, 6)])
    with pytest.raises(NotCanonical):
        difftest(bad, 5, SearchCaps(4, 12), rng_seed=0)


def test_difftest_cli_seeded(capsys):
    code, out, _ = invoke(
        capsys,
        ["difftest", "--bases", "2/3,4/5", "--trials", "15", "--seed", "42", "--json"],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_difftest_single_element(capsys):
    code, out, _ = invoke(
        capsys, ["difftest", "--bases", "2/3", "--x", "1/3", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["cases"][0]["member"] is False
    assert data["cases"][0]["checks"]["enumeration_empty"] is True


def test_delta_sample_report(capsys):
    code, out, _ = invoke(
        capsys,
        ["delta", "--bases", "2/3,4/5", "--trials", "10", "--seed", "3", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["lower_bound"] is True
    assert data["single_difference"] == 1
    assert set(data["deltas"]) <= {1}
    assert data["members"] + data["skipped"] == data["sample_size"]
    if data["exact"]:
        assert data["deltas"] == [1]


@pytest.mark.parametrize(
    "bases, emax", [("3/2,2/5", "1"), ("3/2", "0")], ids=["mixed", "improper"]
)
def test_sampled_delta_sets_are_the_single_element_delta_sets(capsys, bases, emax):
    """Every sampled element reports the exact delta set of `delta --x`,
    and the sampled union is the union of those sets."""
    argv = ["delta", "--bases", bases, "--trials", "25", "--seed", "0", "--emax", emax, "--json"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["per_element"]
    for entry in data["per_element"]:
        _, one, _ = invoke(capsys, ["delta", "--bases", bases, "--x", entry["x"], "--json"])
        assert entry["delta"] == json.loads(one)["delta"], entry["x"]
    assert data["deltas"] == sorted({d for entry in data["per_element"] for d in entry["delta"]})


def test_delta_single_element(capsys):
    code, out, _ = invoke(capsys, ["delta", "--bases", "2/5", "--x", "2/1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == [3]
    assert data["scan_bound"] == 8


def test_finite_unions_elasticity_does_not_depend_on_cap(capsys):
    reports = []
    for cap in ("2", "64"):
        argv = ["unions", "--bases", "3/2", "--k", "3", "--cap", cap, "--json"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        reports.append(json.loads(out))
    # k = 3 reaches theta = d(3/2) = 2, so the elasticity is infinite at any cap.
    assert reports[0]["elasticity"] == reports[1]["elasticity"] == "inf"
    assert reports[0]["members"] == [2]


def test_unions_below_theta_are_complete(capsys):
    """theta = min(n(3/5), n(4/7)) = 3, so U_2 = {2} exactly."""
    code, out, _ = invoke(capsys, ["unions", "--bases", "3/5,4/7", "--k", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["members"] == [2]
    assert data["elasticity"] == 2
    assert data["complete"] is True


def test_unions_with_aap_check(capsys):
    code, out, _ = invoke(
        capsys,
        ["unions", "--bases", "2/3", "--k", "3", "--cap", "20", "--aap-d", "1", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["members"] == list(range(2, 21))
    assert data["elasticity"] == "inf"
    assert data["complete"] is False
    assert data["aap"]["y"] == 2
    assert data["aap"]["s_prime"] == []
    assert data["aap"]["s_star_count"] == 19


def test_classify_single_base(capsys):
    code, out, _ = invoke(capsys, ["classify", "--base", "1/2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "unit-fraction-base"
    assert data["atomic"] is False


def test_classify_set_reports_obstruction(capsys):
    code, out, _ = invoke(capsys, ["classify", "--bases", "5/2,2/3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["accp_obstruction"] == "2/3"
    assert data["generators"]["flags"]["is_canonical"] is True


def test_atoms_listing(capsys):
    code, out, _ = invoke(capsys, ["atoms", "--bases", "2/3", "--emax", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["atoms"][0] == {"base": None, "exponent": 0, "value": "1/1"}
    assert data["atoms"][1] == {"base": "2/3", "exponent": 1, "value": "2/3"}
    assert len(data["atoms"]) == 3


def test_construct_nonatomic_cli(capsys):
    code, out, _ = invoke(
        capsys,
        ["construct", "--kind", "nonatomic", "--seed-primes", "2,3,11", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["generators"]["bases"] == ["2/11", "3/11"]
    assert data["witness"]["N"] == 2
    assert data["witness"]["alpha"] == 1
    assert data["witness"]["beta"] == 2


def test_construct_with_a_nineteen_digit_seed_prime_returns_quickly():
    """The seed primes are checked by Miller-Rabin, not by trial division
    up to the square root of 10^18 + 3."""
    env = src_env()
    env.pop("MULTIFRAC_CACHE", None)
    argv = ["construct", "--kind", "nonatomic", "--n", "2",
            "--seed-primes", "2,3,1000000000000000003", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "multifrac.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["generators"]["bases"] == ["2/1000000000000000003", "3/1000000000000000003"]
    assert data["witness"] is not None


def test_construct_rejects_a_seed_beyond_the_prime_test(capsys, monkeypatch):
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    too_big = 3_317_044_064_679_887_385_961_981
    code, out, err = invoke(
        capsys,
        ["construct", "--kind", "nonatomic", "--seed-primes", f"2,3,{too_big}", "--json"],
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error[BadSeed]: ")


def test_construct_delta_cli(capsys):
    code, out, _ = invoke(
        capsys, ["construct", "--kind", "delta", "--d", "2", "--K", "1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["realized"] is True
    assert data["delta"] == data["required"] == [2]
    assert data["witnesses"] == [{"value": 2, "x": "3/1"}]


def test_construct_delta_k_has_two_spellings(capsys, monkeypatch):
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    outputs = []
    for flag in ("--K", "--k"):
        code, out, _ = invoke(capsys, ["construct", "--kind", "delta", "--d", "2", flag, "2", "--json"])
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert data["delta"] == [2, 4] and data["realized"] is True


def test_factorize_lists_and_counts(capsys):
    code, out, _ = invoke(
        capsys,
        ["factorize", "--bases", "2/3", "--x", "2/1", "--emax", "2", "--lenmax", "7", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["lengths"] == [2, 3, 4]
    assert data["complete"] is False
    assert len(data["factorizations"]) == 3


def test_factorize_of_a_non_member_is_complete_only_on_a_canonical_set(capsys):
    """On a canonical set no hub proves Z(x) empty, so the empty answer is
    complete; a non-canonical set has no hub to read and stays incomplete."""
    for bases, complete in (("2/3,4/5", True), ("2/3,4/9", False)):
        code, out, _ = invoke(capsys, ["factorize", "--bases", bases, "--x", "1/7", "--json"])
        assert code == 0
        data = json.loads(out)
        assert (data["count"], data["hub"], data["complete"]) == (0, None, complete)


def test_cli_imports_no_private_name_from_a_sibling_module():
    """The front end prints what public calls return: every name it imports
    from another multifrac module is public (a dunder such as the package's
    __version__ is not private)."""
    import ast

    tree = ast.parse((SRC / "multifrac" / "cli.py").read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("multifrac"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_difftest_with_x_is_the_single_case_report(capsys):
    """Given x, `difftest` checks that one element and ignores trials; the
    CLI adds only the "command" key to what it returns."""
    B = build_generator_set([Fraction(2, 3), Fraction(4, 5)])
    report = difftest(B, 0, SearchCaps(4, 64), 5, Fraction(22, 15))
    assert "command" not in report
    assert report["trials"] == 1 and len(report["cases"]) == 1
    assert report["cases"][0]["x"] == "22/15" and report["ok"] is True
    assert difftest(B, 7, SearchCaps(4, 64), 5, Fraction(22, 15)) == report
    cli = run(parse_command(["difftest", "--bases", "2/3,4/5", "--x", "22/15", "--seed", "5"]))
    assert cli == {"command": "difftest", **report}


UNIT_FRACTION_REFUSALS = [
    ["atoms", "--emax", "2"],
    ["factorize", "--x", "1", "--emax", "2", "--lenmax", "4"],
    ["lengths", "--x", "1"],
    ["delta", "--x", "1"],
    ["delta", "--trials", "3"],
    ["delta", "--trials", "0"],
    ["unions", "--k", "2"],
    ["difftest", "--trials", "3"],
    ["difftest", "--trials", "0"],
]


@pytest.mark.parametrize("bases", ["1/2", "1/2,2/3"])
@pytest.mark.parametrize("argv", UNIT_FRACTION_REFUSALS, ids=" ".join)
def test_unit_fractions_are_refused_where_atoms_or_lengths_are_asked(capsys, monkeypatch, bases, argv):
    """1 = 2 * (1/2) and (1/2)**e = 2 * (1/2)**(e + 1), so a set holding 1/2
    has no atoms among those powers and no set of lengths to report."""
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    code, out, err = invoke(capsys, [argv[0], "--bases", bases, *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error[NotAtomic]: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("bases", ["1/2", "1/2,2/3"])
def test_member_still_answers_over_a_unit_fraction(capsys, bases):
    """A hub is a normal form of the generator powers, not a claim about atoms."""
    code, out, _ = invoke(capsys, ["member", "--bases", bases, "--x", "1", "--json"])
    assert code == 0
    assert json.loads(out)["member"] is True


def test_construct_nonatomic_with_a_large_first_prime_returns_quickly():
    """beta is solved from one congruence modulo p0**N, not stepped up from
    1, which took about (p2/p1)**N steps for each N."""
    env = src_env()
    env.pop("MULTIFRAC_CACHE", None)
    argv = ["construct", "--kind", "nonatomic", "--n", "2", "--seed-primes", "3,5,17", "--m", "3",
            "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "multifrac.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generators"]["bases"] == ["3/17", "5/17"]


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--bases", "2/3", "--bases-file", "BASES", "--x", "2/3"],
        ["lengths", "--bases-file", "BASES", "--bases", "2/3", "--x", "2"],
        ["classify", "--base", "2/3", "--bases", "4/5"],
        ["classify", "--bases-file", "BASES", "--base", "2/3"],
    ],
    ids=" ".join,
)
def test_bases_options_exclude_each_other(capsys, tmp_path, argv):
    """Two sources of generators are a usage error, not a silent choice."""
    bases_file = tmp_path / "bases.txt"
    bases_file.write_text("5/7\n")
    argv = [str(bases_file) if a == "BASES" else a for a in argv]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[ParseError]: argument --") and err.count("\n") == 1, err
    assert "not allowed with argument" in err


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that closes the pipe before the report is written gets
    exit 1 and no traceback; the report (about 140 kB) overflows the pipe
    buffer, so the write always meets the closed end."""
    env = src_env()
    env.pop("MULTIFRAC_CACHE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "multifrac.cli", "atoms", "--bases", "2/3,4/5", "--emax", "300", "--json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 1
    assert b"Traceback" not in err, err
