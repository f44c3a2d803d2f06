"""The `difftest` operation: cross-checks of every layer on random elements.

Each case re-derives its value's hub (`solve_hub`), every factorization
under the caps (the oracle `enumerate_factorizations`), their hubs
(`hub_normalize`), the structural length set (`length_set`) and a
replayed rewrite chain, and compares them.
"""

from __future__ import annotations

import random

from .exceptions import NotAtomic, NotCanonical
from .factorizer import (
    Factorization,
    SearchCaps,
    apply_rewrite,
    enumerate_factorizations,
    evaluate,
    hub_normalize,
    rewrite_chain,
    solve_hub,
)
from .lengths import length_set
from .monoid import GeneratorSet
from .qcore import Rational, format_rational


def _difftest_case(x, B: GeneratorSet, caps: SearchCaps) -> dict:
    hub = solve_hub(x, B)
    found = enumerate_factorizations(x, B, caps)
    case = {"x": format_rational(x), "member": hub is not None, "checks": {}}
    checks = case["checks"]

    if hub is None:
        checks["enumeration_empty"] = not found
        case["ok"] = not found
        return case

    hub_fits = hub.length <= caps.len_max and hub.max_exponent() <= caps.e_max
    checks["hub_in_enumeration"] = (hub in found) if hub_fits else None
    agree = all(hub_normalize(z, B)[0] == hub for z in found)
    checks["hub_agreement"] = agree

    ok = agree and checks["hub_in_enumeration"] is not False

    if x != 0:
        mu = length_set(x, B)
        enum_lengths = {z.length for z in found}
        sound = all(mu.contains(v) for v in enum_lengths)
        checks["soundness"] = sound
        ok = ok and sound
        if not B.improper_part:
            t_safe = min(caps.len_max, hub.length + caps.e_max - hub.max_exponent())
            window_struct = mu.truncate(t_safe)
            window_enum = sorted(v for v in enum_lengths if v <= t_safe)
            equal = window_struct == window_enum
            checks["window"] = {
                "bound": t_safe,
                "structural": window_struct,
                "enumerated": window_enum,
                "equal": equal,
            }
            ok = ok and equal

    if len(found) >= 2:
        first, last = found[0], found[-1]
        chain = rewrite_chain(first, last, B)
        state = first
        replay_ok = True
        for step in chain:
            before = state.length
            state = apply_rewrite(state, step, B)
            b = B.bases[step.base_index]
            sign = 1 if step.direction == "down" else -1
            expected = sign * step.multiplicity * (b.numerator - b.denominator)
            if state.length - before != expected or evaluate(state, B) != x:
                replay_ok = False
                break
        replay_ok = replay_ok and state == last
        checks["chain"] = {"steps": len(chain), "replayed": replay_ok}
        ok = ok and replay_ok

    case["ok"] = ok
    return case


def difftest(
    B: GeneratorSet, trials: int, caps: SearchCaps, rng_seed: int, x: Rational | None = None
) -> dict:
    """Cross-check hub, enumeration and length machinery on random elements.

    Each trial evaluates a random factorization and re-derives everything
    about its value from scratch; the report lists every case with its
    individual check results, so a failure carries its counterexample.
    Given ``x``, the one case is that element and ``trials`` is unused.
    """
    if not B.is_canonical:
        raise NotCanonical("difftest needs a canonical generator set")
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    values = [x]
    if x is None:
        rng = random.Random(rng_seed)
        values = []
        for _ in range(trials):
            terms = {}
            for i, b in enumerate(B.bases):
                for e in (1, 2):
                    c = rng.randint(0, b.denominator - 1)
                    if c:
                        terms[(i, e)] = c
            values.append(evaluate(Factorization.from_terms(rng.randint(0, 3), terms), B))
    cases = [_difftest_case(v, B, caps) for v in values]
    return {
        "bases": [format_rational(b) for b in B.bases],
        "caps": {"e_max": caps.e_max, "len_max": caps.len_max},
        "trials": len(cases),
        "seed": rng_seed,
        "cases": cases,
        "ok": all(c["ok"] for c in cases),
    }
