"""Frozen CLI output: each command's --json stdout must match its file byte for byte.

The files under tests/golden/ hold the output of the README commands
(plus a mixed-set and an all-improper `lengths`, a single-element
`delta` and a single-element `difftest`), so a refactor that changes
any byte of a report fails here.
"""

from pathlib import Path

import pytest

from multifrac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "member": "member --bases 2/3,4/5 --x 22/15",
    "lengths": "lengths --bases 2/5 --x 2/1 --cap 20",
    "delta": "delta --bases 2/3,4/5 --trials 25 --seed 7",
    "unions": "unions --bases 2/3 --k 3 --cap 40 --aap-d 1",
    "construct_nonatomic": "construct --kind nonatomic --n 2",
    "construct_delta": "construct --kind delta --d 2 --k 2",
    "difftest": "difftest --bases 2/3,4/5 --trials 50 --seed 42",
    "lengths_mixed": "lengths --bases 3/2,2/5 --x 7/1 --cap 30",
    "lengths_improper": "lengths --bases 3/2 --x 7/1 --cap 20",
    "delta_x": "delta --bases 2/3,4/5 --x 4/1",
    "difftest_x": "difftest --bases 2/3,4/5 --x 22/15 --seed 3",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden_file(name, capsys, monkeypatch):
    monkeypatch.delenv("MULTIFRAC_CACHE", raising=False)
    assert main(COMMANDS[name].split() + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
