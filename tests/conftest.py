"""Shared builders for the test suite.

The helpers draw structured random inputs: canonical generator sets
respecting the coprime-denominator gate, and random formal
factorizations over a given set.  Tests seed their own `random.Random`
so every run is reproducible.  `src_env` is the environment for tests
that start a fresh interpreter.  Every test runs under a hang guard.
"""

import faulthandler
import os
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from multifrac.factorizer import Factorization
from multifrac.monoid import GeneratorSet, build_generator_set

SRC = Path(__file__).resolve().parent.parent / "src"

# Far above the slowest test (under 2 s) and every wall-clock budget of
# the suite, so the guard only ever ends a hang.
HANG_LIMIT_S = 300
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture redirects fd 2 while a test runs; the guard writes
    # to this copy, taken before, so its traceback reaches the terminal.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _fail_fast_on_a_hang(request):
    """Print every thread's stack and exit if one test runs HANG_LIMIT_S."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def improper_reduction(B: GeneratorSet) -> GeneratorSet:
    """The set of the bases of B above 1."""
    return build_generator_set(b for b in B.bases if b > 1)


def random_canonical_set(
    rng,
    max_bases: int = 3,
    max_den: int = 50,
    proper_only: bool = False,
) -> GeneratorSet:
    """Random canonical generator set with pairwise coprime denominators.

    Numerators stay coprime to their denominator so values are already
    reduced; unit fractions are skipped so every set is honestly atomic.
    """
    n_bases = rng.randint(1, max_bases)
    dens: list[int] = []
    bases: list[Fraction] = []
    while len(bases) < n_bases:
        q = rng.randint(3, max_den)
        if any(gcd(q, d) > 1 for d in dens):
            continue
        top = q - 1 if proper_only else 3 * q
        p = rng.randint(2, top)
        if p % q == 0 or gcd(p, q) > 1:
            continue
        dens.append(q)
        bases.append(Fraction(p, q))
    return build_generator_set(bases)


def random_factorization(
    rng, B: GeneratorSet, e_max: int = 3, c_top: int = 8
) -> Factorization:
    """Random formal combination with sparse terms and a small unit count."""
    terms = {}
    for i in range(len(B.bases)):
        for e in range(1, e_max + 1):
            if rng.random() < 0.4:
                c = rng.randint(1, c_top)
                terms[(i, e)] = c
    return Factorization.from_terms(rng.randint(0, c_top), terms)
