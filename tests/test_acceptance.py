"""End-to-end acceptance checklist.

Each test covers one numbered criterion and prints exactly one
`criterion N: PASS/FAIL (...)` line (run with -s to see them all).

Criterion 3 compares the exact structural length set with the
brute-force oracle on the window [0, 20].  The oracle only promises the
factorizations with exponents <= e_max and lengths <= len_max, so the
comparison is made where that search is provably complete.  Over a
proper canonical set every factorization is reached from the hub by
upward exchanges n*b^e -> d*b^(e+1); each one adds d - n >= 1 to the
length and at most 1 to the top exponent.  A factorization of length L
therefore has top exponent at most top(hub) + L - |hub|, and the search
capped at exponent e finds every length up to

    t_safe(e) = min(len_max, |hub| + e - top(hub)).

The cap needed to fill [0, 20] depends on the pair: x = 2 over {2/3}
(alone or inside {2/3, 4/5}) has hub 3*(2/3)^1, so a length-L
factorization may ride exponent L - 2 and the window needs cap 18,
while other pairs need less.  The criterion therefore checks the cap-8
search where it is complete and then repeats the search at the cap that
fills the whole window.  test_lengths.py makes the same cap-18
comparison for the x = 2 cases on their own.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import random_canonical_set, random_factorization, src_env
from multifrac.check import difftest
from multifrac.constructs import (
    delta_realization_check,
    nonatomic_family,
    nonatomic_witness,
)
from multifrac.factorizer import (
    SearchCaps,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    solve_hub,
)
from multifrac.lengths import (
    aap_check,
    delta_of_element,
    length_set,
    union_of_lengths,
)
from multifrac.monoid import (
    CyclicCase,
    build_generator_set,
    classify_cyclic,
)

B23 = build_generator_set([Fraction(2, 3)])
B25 = build_generator_set([Fraction(2, 5)])
B2345 = build_generator_set([Fraction(2, 3), Fraction(4, 5)])


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_cyclic_trichotomy():
    t0 = time.perf_counter()
    integer = classify_cyclic(Fraction(3))
    unit = classify_cyclic(Fraction(1, 2))
    generic = classify_cyclic(Fraction(2, 3))
    elapsed = time.perf_counter() - t0

    ok = (
        integer.case is CyclicCase.INTEGER_BASE
        and integer.atomic
        and integer.atom_description == "{1}"
        and unit.case is CyclicCase.UNIT_FRACTION_BASE
        and not unit.atomic
        and unit.atom_description == "{}"
        and generic.case is CyclicCase.GENERIC
        and generic.atomic
        and generic.atom_description == "{(2/3)^n : n >= 0}"
        and elapsed < 0.001
    )
    _line(1, ok, f"three classifications in {elapsed * 1000:.3f} ms, budget 1 ms")
    assert ok


def test_criterion_2_hub_uniqueness_bulk():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    sets = factorizations = collisions = 0
    while sets < 500:
        B = random_canonical_set(rng, max_bases=3, max_den=50)
        sets += 1
        by_value = {}
        for _ in range(10):
            z = random_factorization(rng, B, e_max=3, c_top=9)
            factorizations += 1
            hub, _ = hub_normalize(z, B)
            solved = solve_hub(evaluate(z, B), B)
            assert solved == hub, (
                f"normalization and congruence peeling disagree on {z} over {B.bases}"
            )
            seen = by_value.setdefault(evaluate(z, B), hub)
            if seen is not hub:
                collisions += 1
                assert seen == hub, (
                    f"two factorizations of {evaluate(z, B)} reached different hubs"
                )
        elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    _line(
        2,
        ok,
        f"{sets} sets, {factorizations} factorizations, "
        f"{collisions} direct value collisions, {elapsed:.1f}s, budget 30s",
    )
    assert ok


def test_criterion_3_structural_vs_brute_window():
    """The structural length set equals the oracle on [0, 20] for all ten
    member pairs.

    For each pair: (a) every length of the cap-8 search lies in the
    structural set; (b) the cap-8 search equals the structural set on
    [0, t_safe(8)]; (c) the search at e_full = max(8, 20 - |hub| + top(hub)),
    where t_safe(e_full) >= 20, equals the structural set on [0, 20].
    """
    fixtures = [B23, B25, B2345]
    candidates = [Fraction(2), Fraction(4), Fraction(10, 3), Fraction(2, 3)]
    window = 20
    caps = SearchCaps(8, window)
    t0 = time.perf_counter()
    pairs = 0
    reports = []
    mismatches = []
    for B in fixtures:
        for x in candidates:
            hub = solve_hub(x, B)
            if hub is None:
                continue
            pairs += 1
            mu = length_set(x, B)
            structural = mu.truncate(window)
            t_safe = min(window, hub.length + caps.e_max - hub.max_exponent())
            e_full = max(caps.e_max, window - hub.length + hub.max_exponent())
            capped = sorted({z.length for z in enumerate_factorizations(x, B, caps)})
            full = sorted(
                {
                    z.length
                    for z in enumerate_factorizations(x, B, SearchCaps(e_full, window))
                }
            )
            name = f"x={x} over {{{', '.join(str(b) for b in B.bases)}}}"
            reports.append(f"{name}: t_safe(8)={t_safe}, e_full={e_full}")
            unsound = [v for v in capped if not mu.contains(v)]
            if unsound:
                mismatches.append(f"{name}: cap 8 finds {unsound}, not structural")
            capped_window = [v for v in capped if v <= t_safe]
            structural_window = [v for v in structural if v <= t_safe]
            if capped_window != structural_window:
                mismatches.append(
                    f"{name}: on [0, {t_safe}] cap 8 gives {capped_window}, "
                    f"structural {structural_window}"
                )
            if full != structural:
                mismatches.append(
                    f"{name}: on [0, {window}] cap {e_full} gives {full}, "
                    f"structural {structural}"
                )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and pairs == 10 and elapsed < 60
    _line(
        3,
        ok,
        f"{pairs} member pairs, {len(mismatches)} mismatches, "
        f"{elapsed:.1f}s, budget 60s; " + "; ".join(reports),
    )
    assert ok, (
        f"{pairs} member pairs (expected 10), {elapsed:.1f}s; "
        f"mismatches: {mismatches}; caps: {reports}"
    )


def test_criterion_4_delta_sets_bounded_by_one():
    rng = random.Random(4)
    t0 = time.perf_counter()
    checked = 0
    while checked < 50:
        z = random_factorization(rng, B2345, e_max=3, c_top=4)
        x = evaluate(z, B2345)
        if x == 0:
            continue
        delta = delta_of_element(x, B2345)
        assert delta <= {1}, f"delta({x}) = {delta} over {{2/3, 4/5}}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _line(4, ok, f"{checked} members, all deltas within {{1}}, {elapsed:.1f}s, budget 60s")
    assert ok


def test_criterion_5_hereditary_detection():
    hered = build_generator_set([Fraction(5, 2), Fraction(7, 3)])
    ok = hered.is_hereditarily_atomic

    rng = random.Random(5)
    for _ in range(6):
        z = random_factorization(rng, hered, e_max=2, c_top=2)
        y = evaluate(z, hered)
        base = {w.length for w in enumerate_factorizations(y, hered, SearchCaps(6, 40))}
        wide = {w.length for w in enumerate_factorizations(y, hered, SearchCaps(6, 80))}
        ok = ok and base == wide and z.length in base

    ok = ok and not B23.is_hereditarily_atomic
    ok = ok and length_set(Fraction(2), B23).is_infinite()
    _line(
        5,
        ok,
        "predicate matches sampled finite length sets over {5/2, 7/3} "
        "and the infinite set over {2/3}",
    )
    assert ok


def test_criterion_6_nonatomic_witness():
    t0 = time.perf_counter()
    fam = nonatomic_family(2)
    w = nonatomic_witness(fam, m=1, N_max=6)
    elapsed = time.perf_counter() - t0
    ok = (
        w is not None
        and (w.N, w.alpha, w.beta) == (2, 1, 2)
        and w.identity_holds()
        and elapsed < 1
    )
    detail = "no witness" if w is None else (
        f"x = {w.x} = {w.alpha}*({w.b0})^{w.N} + {w.beta}*({w.b1})^{w.N}, "
        f"{elapsed * 1000:.1f} ms, budget 1s"
    )
    _line(6, ok, detail)
    assert ok


def test_criterion_7_delta_realization_grid():
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (1, 2):
        for k in (1, 2):
            rep = delta_realization_check(d, k)
            ok = ok and rep.delta == rep.required and rep.realized()
            details.append(f"d={d},k={k}:{list(rep.delta)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _line(7, ok, f"{'; '.join(details)}, {elapsed:.1f}s, budget 120s")
    assert ok


def test_criterion_8_unions_are_aaps():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (2, 3, 4):
        rep = union_of_lengths(k, B23, 4, bound=40)
        members = [v for v in rep.members if 1 <= v <= 40]
        witness = None
        for fuzz in range(0, 5):
            witness = aap_check(members, 1, fuzz)
            if witness is not None:
                break
        good = witness is not None and witness.reconstruct() == members
        ok = ok and good
        details.append(
            f"k={k}: {len(members)} members, "
            + ("no AAP witness" if witness is None else f"y={witness.y}, N={witness.N}")
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(8, ok, f"{'; '.join(details)}, {elapsed:.1f}s, budget 60s")
    assert ok


def test_criterion_9_cli_byte_determinism():
    commands = [
        ["member", "--bases", "2/3,4/5", "--x", "22/15", "--json"],
        ["lengths", "--bases", "2/5", "--x", "2/1", "--cap", "20", "--json"],
        ["delta", "--bases", "2/3,4/5", "--trials", "8", "--seed", "7", "--json"],
        ["difftest", "--bases", "2/3", "--trials", "6", "--seed", "3", "--json"],
    ]
    ok = True
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "multifrac.cli", *argv],
                env=src_env(),
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == 0 and runs[0].stdout == runs[1].stdout
        ok = ok and json.loads(runs[0].stdout) is not None
    _line(9, ok, f"{len(commands)} commands, two runs each, byte-identical stdout")
    assert ok


def test_difftest_named_operation_cross_checks():
    """Companion gate: the packaged difftest agrees with everything else."""
    report = difftest(B2345, 25, SearchCaps(5, 14), rng_seed=99)
    assert report["ok"] is True
