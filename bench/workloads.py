"""Seeded inputs, queries and output checks for the four workloads.

Each workload turns a seed into a fixed list of queries (one "pass").
The in-process workloads (`hub`, `delta`, `mixed`) run a query through
the library's public functions; `cli` runs it as a real process.  Every
query result is checked by arithmetic done here, not by the code path
under test, and reduced to one canonical JSON line for the digest.

Cost strata are fixed and only the draws inside a stratum depend on the
seed, so two seeds give different inputs with nearly the same cost
profile.  That keeps run-to-run spread small across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

# --------------------------------------------------------------------------
# Arithmetic the checks rely on; none of it calls into multifrac.


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def value_of(bases, c0: int, terms) -> Fraction:
    """Exact value of c0 + sum c * bases[i]**e over (i, e, c) triples."""
    total = Fraction(c0)
    for i, e, c in terms:
        total += c * bases[i] ** e
    return total


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_lengths(x: Fraction, bases, e_max: int, len_max: int) -> set[int]:
    """Lengths of all factorizations of x with exponents <= e_max, length <= len_max.

    A plain search against the definition (unit atom 1 plus b**e for
    1 <= e <= e_max), written here so the benchmark has its own oracle.
    """
    values = [b**e for b in bases for e in range(e_max, 0, -1)]
    found: set[int] = set()

    def descend(k: int, remaining: Fraction, length: int) -> None:
        if k == len(values):
            if remaining.denominator == 1 and length + remaining.numerator <= len_max:
                found.add(length + remaining.numerator)
            return
        v = values[k]
        c = 0
        while c * v <= remaining and length + c <= len_max:
            descend(k + 1, remaining - c * v, length + c)
            c += 1

    descend(0, x, 0)
    return found


def _coprime_numerators(d: int, lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if gcd(n, d) == 1]


def _hub_json(z) -> dict | None:
    """Canonical form of a Factorization through its documented fields."""
    if z is None:
        return None
    return {"c0": z.c0, "terms": [list(t) for t in z.terms]}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Query:
    """One unit of work: a kind tag plus the inputs it needs."""

    kind: str
    data: tuple


class CheckFailed(Exception):
    """A query's output disagreed with the benchmark's own arithmetic."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# --------------------------------------------------------------------------
# hub: membership and hub solving over 3-4 base canonical sets.

HUB_SETS = 40
HUB_MEMBERS = 8
HUB_NONMEMBERS = 2


def _hub_set(rng: random.Random, count: int) -> list[Fraction]:
    """count bases, one denominator from each of count equal bands of [3, 110].

    Denominator size drives the cost of a hub solve, so banding keeps
    the cost profile of a seed's sets close to every other seed's.
    """
    dens: list[int] = []
    width = 108 // count
    while len(dens) < count:
        lo = 3 + len(dens) * width
        d = rng.randint(lo, lo + width - 1)
        if all(gcd(d, e) == 1 for e in dens):
            dens.append(d)
    proper = [True, False] + [rng.random() < 0.5 for _ in range(count - 2)]
    rng.shuffle(proper)
    bases = []
    for d, is_proper in zip(dens, proper):
        lo, hi = (2, d - 1) if is_proper else (d + 1, 2 * d)
        bases.append(Fraction(rng.choice(_coprime_numerators(d, lo, hi)), d))
    return sorted(bases)


def _hub_terms(rng: random.Random, bases, e_top: int) -> dict:
    """Random coefficients up to 3*den at exponents up to e_top."""
    terms = {}
    for i, b in enumerate(bases):
        exps = {e_top} if i == 0 else set()
        exps.update(rng.randint(1, e_top) for _ in range(rng.randint(1, 3)))
        for e in exps:
            c = rng.randint(0, 3 * b.denominator)
            if c:
                terms[(i, e)] = c
    return terms


def hub_queries(api, seed: int | str, scale: float = 1.0) -> list[Query]:
    rng = random.Random(seed)
    n_sets = max(2, round(HUB_SETS * scale))
    n_nonmembers = n_sets * HUB_NONMEMBERS
    queries = []
    k = 0
    for s in range(n_sets):
        bases = _hub_set(rng, 3 + s % 2)
        B = api.monoid.build_generator_set(bases)
        for j in range(HUB_MEMBERS + HUB_NONMEMBERS):
            # Top exponent stratified over 1..30 across each set's members.
            e_top = 1 + (j * 30 + rng.randrange(30)) // (HUB_MEMBERS + HUB_NONMEMBERS)
            terms = _hub_terms(rng, bases, e_top)
            c0 = rng.randint(0, 20)
            x = value_of(bases, c0, [(i, e, c) for (i, e), c in terms.items()])
            if j < HUB_MEMBERS:
                z = api.factorizer.Factorization.from_terms(c0, terms)
                queries.append(Query("member", (B, x, z)))
                continue
            # Non-member: add 1/(q*p), p prime with log10 p stratified in [8, 10].
            lo = 10 ** (8 + 2 * k / n_nonmembers)
            hi = 10 ** (8 + 2 * (k + 1) / n_nonmembers)
            k += 1
            p = rng.randint(int(lo), int(hi) - 1)
            while not is_prime(p):
                p += 1
            q = rng.choice(bases).denominator
            queries.append(Query("nonmember", (B, x + Fraction(1, q * p), p)))
    rng.shuffle(queries)
    return queries


def hub_run(api, q: Query):
    if q.kind == "member":
        B, x, z = q.data
        return api.factorizer.solve_hub(x, B), api.factorizer.hub_normalize(z, B)[0]
    B, x, _ = q.data
    return api.factorizer.solve_hub(x, B), None


def hub_check(api, q: Query, result) -> str:
    hub, normalized = result
    B, x, extra = q.data
    bases = B.bases
    if q.kind == "member":
        _require(hub is not None, f"member {fmt(x)} reported as non-member")
        _require(value_of(bases, hub.c0, hub.terms) == x, f"hub of {fmt(x)} evaluates wrong")
        _require(
            all(c < bases[i].denominator for i, e, c in hub.terms),
            f"hub of {fmt(x)} has a coefficient at or above its denominator",
        )
        _require(hub == normalized, f"solve_hub and hub_normalize disagree on {fmt(x)}")
    else:
        p = extra
        # Members have denominators built from base denominators only.
        _require(x.denominator % p == 0, "non-member certificate lost its prime")
        _require(all(b.denominator % p for b in bases), "certificate prime divides a base")
        _require(hub is None, f"non-member {fmt(x)} got a hub")
    return canonical({"x": fmt(x), "hub": _hub_json(hub)})


# --------------------------------------------------------------------------
# delta: delta sets over two-generator proper sets.

# (cost key, sets); two elements per set.  Latency quantiles sit in the
# middle of a tier (p50 in the second, p90 in the last).  The step pairs
# of each tier and the hub length are fixed, and they alone set a query's
# cost, so every seed gets the same cost profile with different inputs.
DELTA_TIERS = ((60, 12), (250, 16), (500, 4), (800, 8))
DELTA_PER_SET = 2
DELTA_HUB_LENGTH = 48


def _cost_key(steps: tuple[int, int]) -> float:
    """lcm / sqrt(gcd) of the steps d - n.

    The two-step component spans offsets up to 2 * lcm(s1, s2), and a
    scan over it costs about lcm**2 / gcd.
    """
    return lcm(*steps) / gcd(*steps) ** 0.5


def _delta_pool() -> dict[tuple[int, int], list[tuple[int, int, int, int]]]:
    """Realizations (n1, d1, n2, d2) of each step pair, d coprime in [11, 60], n in [2, 6].

    Steps stay within a factor 4 of each other.
    """
    pool: dict[tuple[int, int], list] = {}
    for d1 in range(11, 61):
        for d2 in range(d1 + 1, 61):
            if gcd(d1, d2) != 1:
                continue
            for n1 in _coprime_numerators(d1, 2, 6):
                for n2 in _coprime_numerators(d2, 2, 6):
                    s1, s2 = sorted((d1 - n1, d2 - n2))
                    if s2 <= 4 * s1:
                        pool.setdefault((s1, s2), []).append((n1, d1, n2, d2))
    return pool


def _nearest_steps(pool, key: float, count: int) -> list[tuple[int, int]]:
    """The count step pairs whose cost key is nearest key; the same for every seed."""
    return sorted(pool, key=lambda st: (abs(_cost_key(st) - key), st))[:count]


def _delta_element(rng: random.Random, pool, steps) -> tuple[list[Fraction], Fraction]:
    """A seeded set realizing the step pair, and one element of hub length DELTA_HUB_LENGTH.

    Coefficients below the denominators make the drawn factorization the
    hub itself, and c0 >= n1 + n2 lets both generators fire, so the scan
    runs over the two-step component up to 2 * lcm of the steps.
    """
    n1, d1, n2, d2 = rng.choice(pool[steps])
    bases = sorted([Fraction(n1, d1), Fraction(n2, d2)])
    terms = [(i, e, rng.randint(0, min(9, b.denominator - 1))) for i, b in enumerate(bases) for e in (1, 2)]
    c0 = DELTA_HUB_LENGTH - sum(c for _, _, c in terms)
    return bases, value_of(bases, c0, terms)


def delta_queries(api, seed: int | str, scale: float = 1.0) -> list[Query]:
    rng = random.Random(seed)
    pool = _delta_pool()
    queries = []
    for key, n_sets in DELTA_TIERS:
        for steps in _nearest_steps(pool, key, max(1, round(n_sets * scale))):
            for _ in range(DELTA_PER_SET):
                bases, x = _delta_element(rng, pool, steps)
                B = api.monoid.build_generator_set(bases)
                queries.append(Query("delta", (B, x, DELTA_HUB_LENGTH)))
    rng.shuffle(queries)
    return queries


def delta_run(api, q: Query):
    B, x, _ = q.data
    return api.lengths.delta_of_element(x, B)


def delta_check(api, q: Query, result) -> str:
    B, x, hub_length = q.data
    steps = [b.denominator - b.numerator for b in B.bases]
    g = gcd(*steps)
    _require(all(v > 0 and v % g == 0 for v in result), f"delta of {fmt(x)} has a gap off gcd {g}")
    mu = api.lengths.length_set(x, B)
    _require(mu.min_value() == hub_length, f"min L({fmt(x)}) is not the hub length")
    return canonical({"bases": [fmt(b) for b in B.bases], "x": fmt(x), "delta": sorted(result)})


# --------------------------------------------------------------------------
# mixed: length sets over mixed and all-improper sets, plus unions U_k.

MIXED_SETS = {
    "M1": (Fraction(3, 2), Fraction(2, 5)),
    "M2": (Fraction(7, 3), Fraction(4, 5)),
    "M3": (Fraction(5, 2), Fraction(3, 7)),
    "I1": (Fraction(3, 2),),
    "I2": (Fraction(3, 2), Fraction(5, 3)),
}
# (queries, {set: x range}); each tier's x values give it about one cost
# (~2, ~10, ~30, ~65 ms here), so p50 falls mid second tier and p90 mid
# last tier.  Integer parts are fixed; the seed adds a fractional part
# below 1.  M1 stops at 18: its cost grows like x**5, x = 40 takes ~2 s.
MIXED_TIERS = (
    (30, {"M1": (4, 7), "M2": (4, 8), "M3": (4, 8), "I1": (20, 26), "I2": (10, 13)}),
    (40, {"M1": (9, 10), "M2": (16, 19), "M3": (16, 20), "I1": (37, 40), "I2": (20, 22)}),
    (10, {"M1": (13, 13), "M2": (28, 30), "M3": (28, 30), "I2": (28, 30)}),
    (20, {"M1": (18, 18), "M2": (37, 40), "M3": (37, 40), "I2": (36, 38)}),
)
UNION_KS = (2, 3)


def mixed_queries(api, seed: int | str, scale: float = 1.0) -> list[Query]:
    rng = random.Random(seed)
    sets = {name: api.monoid.build_generator_set(bases) for name, bases in MIXED_SETS.items()}
    queries = []
    for count, ranges in MIXED_TIERS:
        names = sorted(ranges)
        for j in range(max(1, round(count * scale))):
            name = names[j % len(names)]
            B = sets[name]
            lo, hi = ranges[name]
            target = lo + (j // len(names)) % (hi - lo + 1)
            # Half the draws add c * b**e and drop its integer part from c0,
            # so x lies in [target, target + 1).
            c0, terms = target, {}
            if rng.random() < 0.5:
                i, e, c = rng.randrange(len(B.bases)), rng.randint(1, 2), rng.randint(1, 3)
                whole = int(c * B.bases[i] ** e)
                if whole <= target:
                    c0, terms = target - whole, {(i, e): c}
            x = value_of(B.bases, c0, [(i, e, c) for (i, e), c in terms.items()])
            queries.append(Query("length_set", (B, x, c0 + sum(terms.values()))))
    for k in UNION_KS if scale >= 1 else UNION_KS[:1]:
        queries.append(Query("union", (sets["M1"], k, rng.randrange(1 << 30))))
    rng.shuffle(queries)
    return queries


def mixed_run(api, q: Query):
    if q.kind == "union":
        B, k, _ = q.data
        return api.lengths.union_of_lengths(k, B)
    B, x, _ = q.data
    mu = api.lengths.length_set(x, B)
    pairs = None
    if B.proper_part and B.improper_part:
        # What `multifrac lengths` runs next to the length set.
        pairs = api.lengths.improper_divisor_pairs(x, B)
    return mu, pairs


def mixed_check(api, q: Query, result) -> str:
    if q.kind == "union":
        B, k, draw = q.data
        report = result
        members = set(report.members)
        _require(k in members, f"U_{k} misses {k}")
        # Lengths of a few k-atom elements, found by the local oracle.
        atoms = [Fraction(1)] + [b**e for b in B.bases for e in (1, 2)]
        combos = list(combinations_with_replacement(atoms, k))
        pick = random.Random(draw).sample(combos, 3)
        for combo in pick:
            found = small_lengths(sum(combo), B.bases, 2, min(report.bound, 12))
            _require(found <= members, f"U_{k} misses an oracle length of {fmt(sum(combo))}")
        return canonical(
            {
                "k": k,
                "members": list(report.members),
                "elasticity": report.elasticity,
                "element_count": report.element_count,
            }
        )
    B, x, own_length = q.data
    mu, pairs = result
    _require(mu.contains(own_length), f"L({fmt(x)}) misses the length it was built with")
    for v in small_lengths(x, B.bases, 2, 12):
        _require(mu.contains(v), f"L({fmt(x)}) misses oracle length {v}")
    out = {"bases": [fmt(b) for b in B.bases], "x": fmt(x), "L": mu.to_dict()}
    if pairs is not None:
        _require(all(y + yp == x for y, yp in pairs.pairs), f"a splitting of {fmt(x)} does not sum to it")
        out["pairs"] = [[fmt(y), fmt(yp)] for y, yp in pairs.pairs]
    return canonical(out)


# --------------------------------------------------------------------------
# cli: argument vectors for real `python -m multifrac.cli` processes.

README_ARGVS = (
    "member --bases 2/3,4/5 --x 22/15",
    "lengths --bases 2/5 --x 2/1 --cap 20",
    "delta --bases 2/3,4/5 --trials 25 --seed 7",
    "unions --bases 2/3 --k 3 --cap 40 --aap-d 1",
    "construct --kind nonatomic --n 2",
    "construct --kind delta --d 2 --K 2",
    "difftest --bases 2/3,4/5 --trials 50 --seed 42",
)
# Seeded variants of the five verbs that take free inputs.  With the
# README commands they make 34 argvs, so one pass over the three cache
# modes is 102 processes: at least 100 queries, and 10 beyond p90.
CLI_SEEDED = (
    ("member", 6),
    ("lengths", 5),
    ("factorize", 6),
    ("atoms", 5),
    ("classify", 5),
)
CACHE_MODES = ("none", "cold", "warm")


def _small_set(rng: random.Random, proper_only: bool) -> list[Fraction]:
    dens: list[int] = []
    while len(dens) < 2:
        d = rng.randint(3, 13)
        if all(gcd(d, e) == 1 for e in dens):
            dens.append(d)
    bases = []
    for k, d in enumerate(dens):
        improper = not proper_only and k == 1
        lo, hi = (d + 1, 2 * d) if improper else (2, d - 1)
        bases.append(Fraction(rng.choice(_coprime_numerators(d, lo, hi)), d))
    return sorted(bases)


def _bases_arg(bases) -> str:
    return ",".join(fmt(b) for b in bases)


def _small_member(rng: random.Random, bases, c0_max: int) -> Fraction:
    terms = [(i, rng.randint(1, 2), rng.randint(0, b.denominator - 1)) for i, b in enumerate(bases)]
    return value_of(bases, rng.randint(1, c0_max), terms)


def cli_argvs(seed: int | str, scale: float = 1.0) -> list[list[str]]:
    """README commands plus seeded variants of five verbs, all with --json."""
    rng = random.Random(seed)
    lines = list(README_ARGVS)
    for verb, count in CLI_SEEDED:
        for j in range(max(1, round(count * scale))):
            if verb == "member":
                bases = _small_set(rng, proper_only=False)
                x = _small_member(rng, bases, 6)
                if j % 3 == 2:
                    x += Fraction(1, rng.choice((101, 103, 107)))
                lines.append(f"member --bases {_bases_arg(bases)} --x {fmt(x)}")
            elif verb == "lengths":
                # Small x: the mixed route's splitting search grows steeply with x.
                bases = _small_set(rng, proper_only=j % 2 == 0)
                b = rng.choice([b for b in bases if b < 1])
                x = rng.randint(1, 3) + rng.randint(1, 3) * b ** rng.randint(1, 2)
                lines.append(f"lengths --bases {_bases_arg(bases)} --x {fmt(x)} --cap 32")
            elif verb == "factorize":
                bases = _small_set(rng, proper_only=True)
                x = _small_member(rng, bases, 3)
                lines.append(f"factorize --bases {_bases_arg(bases)} --x {fmt(x)} --emax 3 --lenmax 12")
            elif verb == "atoms":
                bases = _small_set(rng, proper_only=False)
                lines.append(f"atoms --bases {_bases_arg(bases)} --emax {rng.randint(2, 6)}")
            elif verb == "classify" and j % 2 == 0:
                lines.append(f"classify --base {fmt(_small_set(rng, False)[rng.randrange(2)])}")
            elif verb == "classify":
                lines.append(f"classify --bases {_bases_arg(_small_set(rng, False))}")
    return [line.split() + ["--json"] for line in lines]


def cli_check(argv: list[str], outputs: dict) -> str:
    """Exit codes, JSON validity and byte-identical cached output.

    ``outputs`` maps each cache mode to (exit code, stdout bytes).
    """
    rc, plain = outputs["none"]
    _require(rc == 0, f"exit {rc} for {' '.join(argv)}")
    try:
        json.loads(plain)
    except ValueError:
        raise CheckFailed(f"invalid JSON from {' '.join(argv)}") from None
    for mode in ("cold", "warm"):
        if mode in outputs:
            rc_m, out_m = outputs[mode]
            _require(rc_m == 0, f"exit {rc_m} for {' '.join(argv)} with a {mode} cache")
            _require(out_m == plain, f"{mode}-cache output differs for {' '.join(argv)}")
    return canonical({"argv": argv, "stdout": plain.decode()})
