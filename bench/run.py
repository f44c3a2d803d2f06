"""Closed-loop benchmark for multifrac: one client, one query at a time.

Usage, from the repository root:

    python3 bench/run.py --workload hub --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --record-digests          # re-pin bench/digests.json

Workloads are `hub`, `delta`, `mixed` (the library, in process) and
`cli` (real `python -m multifrac.cli` processes); see BENCHMARK.json for
why each was chosen.  With `--trace 0` the run times whole passes of
seeded queries, as many as fit the requested seconds (at least one, and
at least 100 queries); every pass after the first draws fresh queries
from the seed.  Times are rescaled by the host's speed, measured between
queries by a fixed calibration slice of the workload's kind of work (see
Clock); raw wall-clock figures are printed too.  The run and its child
processes are pinned to one CPU.
`--workload all` runs each workload in a child process of its own, so
that each peak_rss_mb belongs to one workload.  With `--trace 1` it runs
one untraced and one traced pass and reports the per-layer metrics of
bench/spans.py instead; the two kinds of numbers never mix.

Every query's output, in every pass, is checked by the benchmark's own
arithmetic (bench/workloads.py).  After the timed loop a fixed reference list,
drawn with seed 0, runs once and its per-query digests are compared
with bench/digests.json, recorded at the commit that defined the
benchmark.  Failures of either kind count toward `failed_frac`.

Human-readable lines come first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_right
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans as sp
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("hub", "delta", "mixed", "cli")
MIN_QUERIES = 100
SETUP_REPS = 7
STARTUP_REPS = 7
CHILD_TIMEOUT_S = 120
REFERENCE_SEED = 0
REFERENCE_STRIDE = {"hub": 1, "delta": 4, "mixed": 3, "cli": 3}

# Interpreter start plus the standard modules multifrac.cli imports: the
# calibration slice for `cli`, whose processes are mostly that work.
PROXY_ARGV = [sys.executable, "-c", "import argparse, dataclasses, enum, fractions, hashlib, json, pathlib, random"]

INPROC = {
    "hub": (W.hub_queries, W.hub_run, W.hub_check),
    "delta": (W.delta_queries, W.delta_run, W.delta_check),
    "mixed": (W.mixed_queries, W.mixed_run, W.mixed_check),
}

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def fresh_api() -> SimpleNamespace:
    """Import multifrac from scratch, so module state and patches start clean."""
    for name in [n for n in sys.modules if n == "multifrac" or n.startswith("multifrac.")]:
        del sys.modules[name]
    importlib.import_module("multifrac")
    api = SimpleNamespace()
    for layer in sp.LAYERS:
        try:
            setattr(api, layer, importlib.import_module(f"multifrac.{layer}"))
        except ModuleNotFoundError:
            setattr(api, layer, None)
    return api


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MULTIFRAC_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli_process(argv, env) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "multifrac.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_cli_inproc(api, argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = api.cli.main(list(argv))
    return rc, buf.getvalue().encode()


def cache_args(mode: str, cache_dir: Path) -> list[str]:
    return [] if mode == "none" else ["--cache-dir", str(cache_dir)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Tally:
    """Queries attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 5:
            self.messages.append(message)


# --------------------------------------------------------------------------
# Reference digests.


def reference_outputs(name: str) -> list[str]:
    """Canonical outputs of the fixed seed-0 reference list, in order."""
    api = fresh_api()
    stride = REFERENCE_STRIDE[name]
    if name == "cli":
        return [
            W.cli_check(argv, {"none": run_cli_inproc(api, argv)})
            for argv in W.cli_argvs(REFERENCE_SEED)[::stride]
        ]
    gen, run, check = INPROC[name]
    return [check(api, q, run(api, q)) for q in gen(api, REFERENCE_SEED)[::stride]]


def check_reference(name: str, tally: Tally) -> None:
    pinned = json.loads(DIGESTS.read_text()).get(name, [])
    try:
        got = [digest(text) for text in reference_outputs(name)]
    except Exception as exc:  # the reference list must not stop the report
        tally.attempted += len(pinned)
        tally.fail(f"reference pass raised {exc!r}", len(pinned))
        return
    tally.attempted += len(got)
    bad = sum(a != b for a, b in zip(got, pinned)) + abs(len(got) - len(pinned))
    if bad:
        tally.fail(f"{bad} reference outputs differ from bench/digests.json", bad)


def record_digests() -> None:
    data = {name: [digest(t) for t in reference_outputs(name)] for name in WORKLOADS}
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}: " + ", ".join(f"{k} {len(v)}" for k, v in data.items()))


# --------------------------------------------------------------------------
# End-to-end runs (tracing off).


def pass_seed(seed: int, pass_no: int):
    """Seed of one pass's query list.  Pass 0 uses the workload seed itself;
    each later pass draws a new list, so repeated passes are not replays
    that a memo of earlier answers could serve."""
    return seed if pass_no == 0 else f"{seed}/{pass_no}"


def setup(name: str, seed: int, scale: float):
    """Everything before the first timed query; returns (api, first pass)."""
    api = fresh_api()
    if name == "cli":
        argvs = W.cli_argvs(seed, scale)
        # One process up front so bytecode compilation stays out of the loop.
        run_cli_process(["classify", "--base", "2/3", "--json"], child_env())
        return api, argvs
    return api, INPROC[name][0](api, seed, scale)


def timed_setups(name: str, seed: int, scale: float) -> tuple[list[float], list[float]]:
    """Scaled and raw seconds of SETUP_REPS set-ups, each in a fresh interpreter.

    The child times from before `import multifrac` to its last generated
    input, between calibration slices of the workload's kind (see Clock);
    interpreter start is left out because it is the same for every version
    of the library.
    """
    times, raw = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, __file__, "--time-setup", name, str(seed), repr(scale)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        scaled_s, raw_s = map(float, proc.stdout.split()[-2:])
        times.append(scaled_s)
        raw.append(raw_s)
    return times, raw


def calibration_slice() -> None:
    """Fixed pure-Python work in the library's idiom: ints, fractions, sets."""
    acc, seen, s = Fraction(0), set(), 0
    for i in range(1, 200):
        s += i * i % 7
        acc += Fraction(i % 13, 7 + i % 5)
        seen.add(s % 97)


def process_slice() -> None:
    """A fresh interpreter importing the standard modules the CLI imports, not multifrac."""
    subprocess.run(PROXY_ARGV, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


class Clock:
    """Wall-clock intervals rescaled by the host's speed at the time.

    The speed of a shared host swings by tens of percent within seconds,
    which would swamp the differences the benchmark is for.  A fixed
    calibration slice of the same kind of work as the workload therefore
    runs between measured intervals, after each `every_s` of measured
    time: pure Python after each 50 ms for the library workloads, a fresh
    interpreter before every `cli` process.  The slice is the fastest of
    `repeat` back-to-back runs, with the collector off so the program's
    heap does not slow it.  Each interval is scaled by the slice's nominal
    time over the mean of the two slices that bracket it, raised to
    `power`.  A slower program still reads slower; a slower host does not.
    Raw figures are printed alongside.

    Only the bracketing slices are used because the host switches speed
    faster than a wider window can follow: on a 2-vCPU host the slice
    times jump between two levels about 1.4x (process) to 1.8x (Python)
    apart, often from one slice to the next, and a median over several
    seconds of slices puts a whole run's scale on either level.

    A `cli` process's time moves about half as far as the interpreter
    slice's between those levels, in ratio terms: between two sets of ten
    runs the slice's median fell 19% and the processes' 9.5%.  Its power
    is therefore 1/2; with the full ratio a faster host read as a 12%
    slower query_p50_ms.
    """

    KINDS = {  # slice, nominal s, every_s, repeat, power
        "python": (calibration_slice, 0.001, 0.05, 3, 1.0),
        "process": (process_slice, 0.1, 0.0, 1, 0.5),
    }

    def __init__(self, kind: str = "python"):
        self.slice, self.nominal, self.every_s, self.repeat, self.power = self.KINDS[kind]
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = self.every_s

    def calibrate(self) -> None:
        at, best = perf_counter(), float("inf")
        gc.disable()
        try:
            for _ in range(self.repeat):
                t = perf_counter()
                self.slice()
                best = min(best, perf_counter() - t)
        finally:
            gc.enable()
        self.at.append(at)
        self.took.append(best)
        self.busy = 0.0

    def time(self, fn, *args):
        """Run fn(*args); return its result and the (start, raw seconds) interval."""
        if self.busy >= self.every_s:
            self.calibrate()
        t = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t
        self.busy += raw
        return result, (t, raw)

    def scaled(self, interval) -> float:
        t, raw = interval
        j = bisect_right(self.at, t)
        return raw * (self.nominal / statistics.mean(self.took[max(0, j - 1) : j + 1])) ** self.power


def closed_loop(clock: Clock, make_pass, execute, check_pass, seconds: float, min_queries: int):
    """Whole passes of fresh queries until the time is used, nearest whole pass.

    Only the queries themselves are timed; drawing a pass and checking its
    outputs happen between passes.  Returns (query intervals, passes, wall s).
    """
    intervals: list[tuple[float, float]] = []
    passes, wall = 0, 0.0
    while True:
        queries = make_pass(passes)
        results = []
        start = perf_counter()
        for q in queries:
            result, interval = clock.time(execute, q, passes)
            results.append(result)
            intervals.append(interval)
        wall += perf_counter() - start
        check_pass(queries, results)
        passes += 1
        if len(intervals) >= min_queries and wall + wall / passes / 2 >= seconds:
            clock.calibrate()
            return intervals, passes, wall


def measure_inproc(name: str, seed: int, seconds: float, scale: float, min_queries: int, tally: Tally):
    gen, run, check = INPROC[name]
    api, first = setup(name, seed, scale)

    def make_pass(pass_no):
        return first if pass_no == 0 else gen(api, pass_seed(seed, pass_no), scale)

    def execute(q, _pass_no):
        try:
            return run(api, q)
        except Exception as exc:  # a failed query is counted, not fatal
            return exc

    def check_pass(queries, results):
        tally.attempted += len(queries)
        for i, (q, result) in enumerate(zip(queries, results)):
            try:
                if isinstance(result, Exception):
                    raise result
                check(api, q, result)
            except Exception as exc:
                tally.fail(f"{name} query {i}: {exc!r}")

    clock = Clock()
    intervals, passes, wall = closed_loop(clock, make_pass, execute, check_pass, seconds, min_queries)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return clock, intervals, passes, wall, peak


def measure_cli(seed: int, seconds: float, scale: float, min_queries: int, tally: Tally):
    env = child_env()
    _, first = setup("cli", seed, scale)
    cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))

    def make_pass(pass_no):
        argvs = first if pass_no == 0 else W.cli_argvs(pass_seed(seed, pass_no), scale)
        return [(argv, mode) for argv in argvs for mode in W.CACHE_MODES]

    def execute(case, pass_no):
        argv, mode = case
        try:
            return run_cli_process(argv + cache_args(mode, cache_root / f"pass{pass_no}"), env)
        except subprocess.TimeoutExpired:
            return (-1, b"")

    def check_pass(cases, results):
        tally.attempted += len(cases)
        modes = len(W.CACHE_MODES)
        for k in range(0, len(cases), modes):
            outputs = {mode: results[k + j] for j, mode in enumerate(W.CACHE_MODES)}
            try:
                W.cli_check(cases[k][0], outputs)
            except W.CheckFailed as exc:
                tally.fail(f"cli: {exc}", modes)

    clock = Clock("process")
    try:
        intervals, passes, wall = closed_loop(clock, make_pass, execute, check_pass, seconds, min_queries)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    # Read before the set-up children below, which would count too.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return clock, intervals, passes, wall, peak


def end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0, min_queries: int = MIN_QUERIES):
    tally = Tally()
    if name == "cli":
        clock, intervals, passes, wall, peak = measure_cli(seed, seconds, scale, min_queries, tally)
    else:
        clock, intervals, passes, wall, peak = measure_inproc(name, seed, seconds, scale, min_queries, tally)
    setups, raw_setups = timed_setups(name, seed, scale)
    check_reference(name, tally)
    latencies = [clock.scaled(iv) for iv in intervals]
    raw = [r for _, r in intervals]
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": peak,
    }
    notes = {
        "raw": f"setup_s {statistics.median(raw_setups):.6g} queries_per_s {len(raw) / sum(raw):.6g} "
        f"query_p50_ms {statistics.median(raw) * 1e3:.6g} query_p90_ms {percentile(raw, 0.9) * 1e3:.6g}",
        "calibration": f"{len(clock.took)} slices, median {statistics.median(clock.took) * 1e3:.4g} ms",
        "samples": f"{len(latencies)} queries in {passes} passes of fresh queries; the loop took {wall:.2f} s "
        f"with calibration; setup_s is the median of {SETUP_REPS} fresh interpreters",
        "failed_frac": f"{tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted}, "
        "timed plus reference queries)",
    }
    units = dict(END_TO_END)
    return tally, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, notes


# --------------------------------------------------------------------------
# Traced runs (per-layer metrics).


def trace_inproc(name: str, seed: int, scale: float, tally: Tally):
    gen, run, check = INPROC[name]

    def one_pass(recorder):
        api = fresh_api()
        queries = gen(api, seed, scale)
        absent = sp.install(recorder) if recorder else []
        results = []
        t0 = perf_counter()
        for i, q in enumerate(queries):
            if recorder:
                recorder.query = i
            try:
                results.append(run(api, q))
            except Exception as exc:  # counted below, like a failed check
                results.append(exc)
        wall = perf_counter() - t0
        n_spans = len(recorder.spans) if recorder else 0
        outputs = []
        for i, (q, result) in enumerate(zip(queries, results)):
            tally.attempted += 1
            try:
                if isinstance(result, Exception):
                    raise result
                outputs.append(check(api, q, result))
            except Exception as exc:
                tally.fail(f"{name} query {i}: {exc!r}")
                outputs.append(None)
        if recorder:
            del recorder.spans[n_spans:]  # spans made by the checks
        return wall, outputs, len(queries), absent

    plain_wall, plain_out, _, _ = one_pass(None)
    recorder = sp.Recorder()
    traced_wall, traced_out, n_queries, absent = one_pass(recorder)
    if traced_out != plain_out:
        tally.fail(f"{name}: traced outputs differ from untraced ones")
    metrics = sp.layer_metrics(recorder.spans, n_queries)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    return recorder, metrics, absent


def trace_cli(seed: int, scale: float, tally: Tally):
    env = child_env()
    startup = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import multifrac.cli"], cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S
        )
        startup.append(perf_counter() - t0)
    argvs = W.cli_argvs(seed, scale)

    def one_pass(recorder, cache_dir: Path):
        api = fresh_api()
        absent = sp.install(recorder) if recorder else []
        outputs, hits, misses = [], [], []
        t0 = perf_counter()
        for k, argv in enumerate(argvs):
            per_mode = {}
            for mode in W.CACHE_MODES:
                before = len(list(cache_dir.glob("*"))) if cache_dir.exists() else 0
                first_span = len(recorder.spans) if recorder else 0
                if recorder:
                    recorder.query = len(outputs)
                try:
                    per_mode[mode] = run_cli_inproc(api, argv + cache_args(mode, cache_dir))
                except Exception as exc:  # counted as a failed query
                    per_mode[mode] = (-1, repr(exc).encode())
                if recorder and mode != "none":
                    runs = [s for s in recorder.spans[first_span:] if s[0] == "cli.run"]
                    after = len(list(cache_dir.glob("*"))) if cache_dir.exists() else 0
                    ms = sum(s[2] - s[1] for s in runs) / 1e6
                    (misses if after > before else hits).append(ms)
                outputs.append(per_mode[mode])
            tally.attempted += len(W.CACHE_MODES)
            try:
                W.cli_check(argv, per_mode)
            except W.CheckFailed as exc:
                tally.fail(f"cli: {exc}", len(W.CACHE_MODES))
        return perf_counter() - t0, outputs, hits, misses, absent

    cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
    try:
        plain_wall, plain_out, _, _, _ = one_pass(None, cache_root / "plain")
        recorder = sp.Recorder()
        traced_wall, traced_out, hits, misses, absent = one_pass(recorder, cache_root / "traced")
        written = sum(f.stat().st_size for f in (cache_root / "traced").rglob("*") if f.is_file())
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if traced_out != plain_out:
        tally.fail("cli: traced outputs differ from untraced ones")
    spans = recorder.spans
    own = sp.self_times(spans)
    metrics = sp.layer_metrics(spans, len(plain_out))

    def total_ms(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name) / 1e6

    metrics.update(
        {
            "cli.startup_ms": statistics.median(startup) * 1e3,
            "cli.parse_command.ms": total_ms("cli.parse_command"),
            "cli.run.ms": total_ms("cli.run"),
            "cli.render.ms": sum(t for s, t in zip(spans, own) if s[0] == "cli.main") / 1e6,
            "cli.cache.hits": len(hits),
            "cli.cache.misses": len(misses),
            "cli.cache.hit_ratio": len(hits) / max(1, len(hits) + len(misses)),
            "cli.cache.bytes_written": written,
            "cli.cache.hit_p50_ms": sp.p50(hits),
            "cli.cache.miss_p50_ms": sp.p50(misses),
            "trace.overhead_frac": traced_wall / plain_wall - 1,
        }
    )
    return recorder, metrics, absent


def traced(name: str, seed: int, scale: float = 1.0):
    tally = Tally()
    if name == "cli":
        recorder, raw, absent = trace_cli(seed, scale, tally)
    else:
        recorder, raw, absent = trace_inproc(name, seed, scale, tally)
    check_reference(name, tally)
    span_file = OUT / f"spans-{name}-seed{seed}.json"
    recorder.write(span_file)
    metrics = {}
    for metric, unit, *_ in sp.LAYER_METRICS:
        metrics[metric] = {"value": raw.get(metric, 0), "unit": unit}
    notes = {
        "trace.overhead_frac": f"{raw['trace.overhead_frac']:.4f} (traced wall / untraced wall - 1)",
        "spans": f"{len(recorder.spans)} spans over {raw['trace.queries']} queries, written to "
        f"{span_file.relative_to(ROOT)}",
    }
    if absent:
        notes["absent"] = ", ".join(absent)
    return tally, metrics, notes


# --------------------------------------------------------------------------


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "multifrac").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "host": platform.node(),
        "multifrac": getattr(sys.modules.get("multifrac"), "__version__", "unknown"),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def one(name: str, seed: int, seconds: float, trace: bool):
    tally, metrics, notes = traced(name, seed) if trace else end_to_end(name, seed, seconds)
    for metric, m in metrics.items():
        print(f"{name:6} {metric:44} {m['value']:>14.6g} {m['unit']}")
    for key, text in notes.items():
        print(f"{name:6} {key:44} {text}")
    for message in tally.messages:
        print(f"{name:6} failure: {message}")
    return tally, metrics


def prepare() -> bool:
    """Set up to import multifrac from this checkout; False when its sources are missing."""
    if not (SRC / "multifrac" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ.pop("MULTIFRAC_CACHE", None)
    OUT.mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the benchmark and its children: no migrations between
        # the two CPUs of a small host.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return True


def run_child(name: str, args) -> dict:
    """One workload in a fresh interpreter; prints its lines and returns its result."""
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
    print("\n".join(line for line in lines[:-1] if not line.startswith("stamp ")), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="re-pin bench/digests.json")
    # Internal: time one set-up (workload, seed, scale) in this interpreter.
    parser.add_argument("--time-setup", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"bench: no multifrac sources under {SRC}", file=sys.stderr)
        return 2
    if args.time_setup:
        name, seed, scale = args.time_setup
        clock = Clock("process" if name == "cli" else "python")
        for _ in range(2):  # the first slice in a fresh interpreter runs cold
            clock.calibrate()
        t = perf_counter()
        setup(name, int(seed), float(scale))
        raw = perf_counter() - t
        clock.calibrate()
        print(clock.scaled((t, raw)), raw)
        return 0
    if args.record_digests:
        record_digests()
        return 0

    fresh_api()
    print("stamp " + json.dumps(stamp(args.seed), sort_keys=True), flush=True)
    if args.workload == "all":
        attempted = failed = 0
        metrics = {}
        for name in WORKLOADS:
            result = run_child(name, args)
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    else:
        tally, metrics = one(args.workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed = tally.attempted, tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
