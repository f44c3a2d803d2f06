"""Command-line front end.

Every verb prints one report, either as indented canonical JSON
(--json) or as a flat key = value listing.  Reports are deterministic:
the same invocation always produces byte-identical output, which is
what makes the optional on-disk cache safe.  Parse problems exit 1,
domain errors exit 2 alongside a one-line message on stderr, and the
difftest verb exits 2 when any cross-check fails.  A standard output
closed before the report is written exits 1 with no traceback.

Only the parsing, rendering and caching layers are imported up front;
each verb imports the compute modules it uses, so a process pays for
its own verb alone and a cache hit loads no compute module.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .exceptions import MultifracError, NotAtomic, ParseError
from .monoid import (
    GeneratorSet,
    accp_obstruction,
    build_generator_set,
    canonical_atoms,
    classify_cyclic,
    generator_set_to_dict,
)
from .qcore import format_rational, parse_rational


class Command(NamedTuple):
    """One parsed invocation: verb, its parameters, and output wiring."""

    verb: str
    params: dict
    output: str
    cache_dir: str | None


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError instead of exiting."""

    def error(self, message):
        raise ParseError(message)


def _parse_bases(ns) -> GeneratorSet:
    if ns.bases_file:
        try:
            text = Path(ns.bases_file).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read --bases-file {ns.bases_file!r}: {exc}") from None
        raw = text.replace(",", " ").split()
    elif ns.bases:
        raw = ns.bases.replace(",", " ").split()
    else:
        raise ParseError("provide --bases or --bases-file")
    return build_generator_set(parse_rational(s) for s in raw)


def _add_base_options(p: _Parser):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bases", help="comma-separated generators, e.g. 2/3,4/5")
    group.add_argument("--bases-file", help="file holding generators")
    return group


def _nonnegative_int(text: str) -> int:
    """argparse type for exponent, length, trial and listing caps."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_cap_options(p: _Parser) -> None:
    p.add_argument("--emax", type=_nonnegative_int, default=4, help="exponent cap (default 4)")
    p.add_argument("--lenmax", type=_nonnegative_int, default=64, help="length cap (default 64)")


def cmd_classify(ns) -> dict:
    if ns.base is not None:
        r = parse_rational(ns.base)
        c = classify_cyclic(r)
        return {
            "base": format_rational(r),
            "case": c.case.value,
            "atomic": c.atomic,
            "atoms": c.atom_description,
        }
    B = _parse_bases(ns)
    obstruction = accp_obstruction(B)
    return {
        "generators": generator_set_to_dict(B),
        "accp_obstruction": format_rational(obstruction) if obstruction is not None else None,
    }


def cmd_atoms(ns) -> dict:
    B = _parse_bases(ns)
    atoms = canonical_atoms(B, ns.emax)
    return {
        "generators": generator_set_to_dict(B),
        "emax": ns.emax,
        "atoms": [
            {
                "base": None if a.base_index is None else format_rational(B.bases[a.base_index]),
                "exponent": a.exponent,
                "value": format_rational(a.value),
            }
            for a in atoms
        ],
    }


def cmd_member(ns) -> dict:
    from .factorizer import factorization_to_dict, solve_hub

    B = _parse_bases(ns)
    x = parse_rational(ns.x)
    hub = solve_hub(x, B)
    return {
        "bases": [format_rational(b) for b in B.bases],
        "x": format_rational(x),
        "member": hub is not None,
        "hub": factorization_to_dict(hub, B) if hub is not None else None,
    }


def _enumeration_complete(B: GeneratorSet, hub, caps) -> bool:
    """Whether the bounded search provably saw every factorization in range.

    On a canonical set `solve_hub` decides membership, so no hub proves
    that x has no factorization and the empty search is complete; on any
    other set there is no hub to read.  Over proper fractions L(x) is
    infinite exactly when the hub has a nonempty witness family, and then
    the search must reach len_max.
    """
    from .factorizer import witness_families

    if hub is None:
        return B.is_canonical
    if B.proper_part and B.improper_part:
        return False
    if not B.improper_part:
        infinite = witness_families(hub, B) != ((),)
        slack = caps.len_max - hub.length if infinite else 0
        e_req = hub.max_exponent() + max(0, slack)
    else:
        e_req = hub.max_exponent() + hub.length - 1
    return caps.e_max >= e_req


def cmd_factorize(ns) -> dict:
    from .factorizer import SearchCaps, enumerate_factorizations, factorization_to_dict, solve_hub

    B = _parse_bases(ns)
    if B.has_unit_fraction:
        raise NotAtomic("a unit fraction's powers are not atoms")
    x = parse_rational(ns.x)
    caps = SearchCaps(ns.emax, ns.lenmax)
    hub = solve_hub(x, B) if B.is_canonical else None
    found = enumerate_factorizations(x, B, caps)
    lengths = sorted({z.length for z in found})
    listed = found[: ns.limit]
    return {
        "bases": [format_rational(b) for b in B.bases],
        "x": format_rational(x),
        "caps": {"e_max": caps.e_max, "len_max": caps.len_max},
        "hub": factorization_to_dict(hub, B) if hub is not None else None,
        "count": len(found),
        "lengths": lengths,
        "complete": _enumeration_complete(B, hub, caps),
        "factorizations": [factorization_to_dict(z, B) for z in listed],
    }


def cmd_lengths(ns) -> dict:
    from .factorizer import factorization_to_dict, solve_hub, witness_families
    from .lengths import delta_of_length_set, is_single_difference, length_set

    B = _parse_bases(ns)
    x = parse_rational(ns.x)
    mu = length_set(x, B)
    hub = solve_hub(x, B)
    report = {
        "bases": [format_rational(b) for b in B.bases],
        "x": format_rational(x),
        "hub": factorization_to_dict(hub, B),
        "hub_length": hub.length,
        "length_set": mu.to_dict(),
        "infinite": mu.is_infinite(),
        "complete": True,
        "members_within": {"bound": ns.cap, "values": mu.truncate(ns.cap)},
        "delta": sorted(delta_of_length_set(mu)),
        "single_difference": is_single_difference(B),
    }
    if not B.improper_part:
        report["families"] = [list(f) for f in witness_families(hub, B)]
    return report


def cmd_delta(ns) -> dict:
    from .lengths import (
        delta_of_length_set,
        delta_sample,
        delta_truncation_bound,
        is_single_difference,
        length_set,
    )

    B = _parse_bases(ns)
    if ns.x is not None:
        x = parse_rational(ns.x)
        mu = length_set(x, B)
        return {
            "bases": [format_rational(b) for b in B.bases],
            "x": format_rational(x),
            "delta": sorted(delta_of_length_set(mu)),
            "single_difference": is_single_difference(B),
            "scan_bound": delta_truncation_bound(mu),
        }
    # Random candidates num/den, den a product of powers of the base denominators.
    rng = random.Random(ns.seed)
    sample = set()
    for _ in range(ns.trials):
        d = 1
        for b in B.bases:
            d *= b.denominator ** rng.randint(0, ns.emax)
        sample.add(Fraction(rng.randint(1, 12 * d), d))
    sample = sorted(sample)
    deltas = delta_sample(B, sample)
    per_element = [{"x": format_rational(v), "delta": sorted(d)} for v, d in deltas.items()]
    single = is_single_difference(B)
    return {
        "bases": [format_rational(b) for b in B.bases],
        "trials": ns.trials,
        "seed": ns.seed,
        "sample_size": len(sample),
        "members": len(per_element),
        "skipped": len(sample) - len(per_element),
        "deltas": sorted(set().union(*deltas.values())),
        "lower_bound": True,
        "single_difference": single,
        "exact": single is not None and {single} in deltas.values(),
        "per_element": per_element,
    }


def cmd_unions(ns) -> dict:
    from .lengths import aap_check, union_of_lengths

    if ns.aap_d is not None and ns.aap_d < 1:
        raise ParseError("--aap-d must be positive")
    B = _parse_bases(ns)
    report = union_of_lengths(ns.k, B, ns.emax, bound=ns.cap)
    out = {
        "bases": [format_rational(b) for b in B.bases],
        "k": report.k,
        "bound": report.bound,
        "emax": ns.emax,
        "members": list(report.members),
        "elasticity": "inf" if report.elasticity is None else report.elasticity,
        "complete": report.elasticity is not None,
        "element_count": report.element_count,
    }
    if ns.aap_d is not None:
        w = aap_check(report.members, ns.aap_d, ns.aap_n)
        out["aap"] = None if w is None else {
            "y": w.y, "d": w.d, "N": w.N, "s_prime": list(w.s_prime),
            "s_star_count": len(w.s_star), "s_dprime": list(w.s_dprime),
        }
    return out


def cmd_construct(ns) -> dict:
    from .constructs import delta_realization_check, nonatomic_family, nonatomic_witness

    if ns.kind == "nonatomic":
        seed = None
        if ns.seed_primes:
            try:
                seed = tuple(int(s) for s in ns.seed_primes.replace(",", " ").split())
            except ValueError:
                raise ParseError(f"--seed-primes takes integers: {ns.seed_primes!r}") from None
        B = nonatomic_family(ns.n, seed)
        witness = nonatomic_witness(B, m=ns.m, N_max=ns.nmax)
        return {
            "kind": "nonatomic",
            "n": ns.n,
            "generators": generator_set_to_dict(B),
            "witness": witness.to_dict() if witness is not None else None,
        }
    report = delta_realization_check(ns.d, ns.k)
    return {
        "kind": "delta",
        "d": report.d,
        "k": report.k,
        "generators": generator_set_to_dict(report.generators),
        "delta": list(report.delta),
        "required": list(report.required),
        "witnesses": [{"value": v, "x": format_rational(x)} for v, x in report.witnesses],
        "realized": report.realized(),
    }


def cmd_difftest(ns) -> dict:
    from .check import difftest
    from .factorizer import SearchCaps

    x = parse_rational(ns.x) if ns.x is not None else None
    return difftest(_parse_bases(ns), ns.trials, SearchCaps(ns.emax, ns.lenmax), ns.seed, x)


_HANDLERS = {
    "classify": cmd_classify,
    "atoms": cmd_atoms,
    "member": cmd_member,
    "factorize": cmd_factorize,
    "lengths": cmd_lengths,
    "delta": cmd_delta,
    "unions": cmd_unions,
    "construct": cmd_construct,
    "difftest": cmd_difftest,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="multifrac", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="cyclic trichotomy or generator-set flags")
    _add_base_options(p).add_argument("--base", help="single generator to classify")

    p = sub.add_parser("atoms", help="list atoms of a canonical set")
    _add_base_options(p)
    p.add_argument("--emax", type=_nonnegative_int, default=4)

    p = sub.add_parser("member", help="membership test with reduced representative")
    _add_base_options(p)
    p.add_argument("--x", required=True)

    p = sub.add_parser("factorize", help="bounded enumeration of factorizations")
    _add_base_options(p)
    p.add_argument("--x", required=True)
    _add_cap_options(p)
    p.add_argument("--limit", type=_nonnegative_int, default=50, help="list at most this many")

    p = sub.add_parser("lengths", help="structural set of lengths")
    _add_base_options(p)
    p.add_argument("--x", required=True)
    p.add_argument("--cap", type=_nonnegative_int, default=64, help="listing bound (default 64)")

    p = sub.add_parser("delta", help="delta set of one element or a random sample")
    _add_base_options(p)
    p.add_argument("--x")
    p.add_argument("--trials", type=_nonnegative_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emax", type=_nonnegative_int, default=4)

    p = sub.add_parser("unions", help="union of sets of lengths over k-atom elements")
    _add_base_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=_nonnegative_int, default=64)
    p.add_argument("--emax", type=_nonnegative_int, default=4, help="exponent cap (default 4)")
    p.add_argument("--aap-d", type=int, help="also check the members form an AAP")
    p.add_argument("--aap-n", type=_nonnegative_int, default=0, help="AAP fuzz bound")

    p = sub.add_parser("construct", help="nonatomic and delta-realizing generator families")
    p.add_argument("--kind", choices=("nonatomic", "delta"), required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed-primes", help="comma-separated primes")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--nmax", type=_nonnegative_int, default=24)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--k", "--K", dest="k", type=int, default=1)

    p = sub.add_parser("difftest", help="cross-check search, hub and length machinery")
    _add_base_options(p)
    p.add_argument("--x")
    _add_cap_options(p)
    p.add_argument("--trials", type=_nonnegative_int, default=10)
    p.add_argument("--seed", type=int, default=0)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit canonical JSON")
        sp.add_argument(
            "--cache-dir",
            default=os.environ.get("MULTIFRAC_CACHE"),
            help="directory for report caching (or MULTIFRAC_CACHE)",
        )
    return parser


def parse_command(argv=None) -> Command:
    args = build_parser().parse_args(argv)
    meta = {"verb", "json", "cache_dir"}
    params = {k: v for k, v in vars(args).items() if k not in meta}
    return Command(args.verb, params, "json" if args.json else "text", args.cache_dir)


def _with_parsed_bases(params: dict) -> dict:
    """Parameters with --bases/--bases-file replaced by the bases they parse to.

    A cache key built from these follows the contents of a bases file,
    not its path, and equal generator sets share one entry.
    """
    if not (params.get("bases") or params.get("bases_file")):
        return params
    B = _parse_bases(SimpleNamespace(**params))
    return {**params, "bases": ",".join(map(format_rational, B.bases)), "bases_file": None}


def _report(verb: str, params: dict) -> dict:
    """The verb handler's payload under a leading "command" key naming the verb."""
    return {"command": verb, **_HANDLERS[verb](SimpleNamespace(**params))}


def run(cmd: Command) -> dict:
    """Dispatch one command to its verb handler, through the cache if set.

    The cache key covers the verb, the parameters with the bases as
    parsed, the package version and a digest of the package's own
    source files, so a report written by other code is never served,
    even under the same version.  An entry that cannot be read back
    counts as a miss and is rewritten; entries are written to a
    temporary file first and moved into place, so a reader never sees a
    partial one.  A cache directory that cannot be written is a usage
    error, and no temporary file outlives it.
    """
    if not cmd.cache_dir:
        return _report(cmd.verb, cmd.params)
    import hashlib

    params = _with_parsed_bases(cmd.params)
    source = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blob = json.dumps(
        {"verb": cmd.verb, "params": params, "version": __version__, "source": source.hexdigest()},
        sort_keys=True,
        default=str,
    )
    cache_file = Path(cmd.cache_dir) / f"{hashlib.sha256(blob.encode()).hexdigest()}.json"
    try:
        cached = json.loads(cache_file.read_text())["report"]
    except (OSError, ValueError, LookupError, TypeError):
        cached = None
    if isinstance(cached, dict):
        return cached
    report = _report(cmd.verb, params)
    entry = {"manifest": {"verb": cmd.verb, "params": params}, "report": report}
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(entry, sort_keys=True, default=str))
        os.replace(tmp, cache_file)
    except OSError as exc:
        if tmp.exists():
            tmp.unlink()
        raise ParseError(f"cache directory {cmd.cache_dir!r} is not writable: {exc}") from None
    return report


def _render_text(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_text(value, prefix=f"{path}."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.extend(_render_text(item, prefix=f"{path}[{i}]."))
        else:
            lines.append(f"{path} = {json.dumps(value)}")
    return lines


def main(argv=None) -> int:
    try:
        cmd = parse_command(argv)
        report = run(cmd)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except MultifracError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    try:
        if cmd.output == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("\n".join(_render_text(report)))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the flush
        # at exit cannot raise again (the recipe of the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if cmd.verb == "difftest" and not report["ok"]:
        return 2
    if cmd.verb == "construct" and report.get("realized") is False:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
