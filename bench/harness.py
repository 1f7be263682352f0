"""Closed-loop runner, set-up and verify timing, traced run and result record.

Every workload is driven by one client in one thread: the next request is
issued only after the previous one returned and was checked.  The cli
workload runs one subprocess at a time.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import draws
import probe
from tracer import LAYERS, ORACLE_CASES, Tracer

ROOT = draws.ROOT
SETUP_REPS = 15
VERIFY_REPS = 5
FLOOR_REPS = 5
VERIFY_ARGV = ["verify", "--suite", "all", "--budget", "full"]
SUBPROCESS_TIMEOUT_S = 120
# Tail percentile per workload: the highest with at least ten samples beyond
# it in a run (the cli workload completes about a hundred invocations).
TAIL = {"tabulate": 0.99, "rational": 0.99, "oracle_sweep": 0.99, "cli": 0.90}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HAHNIUM_BUDGET", None)  # the CLI reads it; keep verify at the full budget
    return env


def run_python(args: list, env: dict) -> tuple:
    """(wall seconds, CompletedProcess) of one interpreter run, waited for."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start, proc


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        capture_output=True, text=True,
                                        check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


@dataclass
class Pass:
    start: int  # index of the pass's first latency sample
    end: int
    busy_s: float  # time spent in the program's calls
    values: int  # checked values completed


@dataclass
class LoopStats:
    latencies: array = field(default_factory=lambda: array("d"))
    passes: list = field(default_factory=list)  # complete passes only
    busy_s: float = 0.0
    values: int = 0
    issued: int = 0
    failures: dict = field(default_factory=dict)  # request position -> (key, reason)

    def record(self, position: int, key, elapsed: float, reason, values: int) -> None:
        self.latencies.append(elapsed)
        self.busy_s += elapsed
        self.issued += 1
        if reason is None:
            self.values += values
        else:
            self.failures.setdefault(position, (key, reason))


def run_loop(groups: list, seconds: float, tracer: Tracer | None = None,
             max_passes: int | None = None) -> LoopStats:
    """Issue the draw's requests in order, pass after pass, for `seconds`.

    The first pass always completes, so every request is issued and checked
    at least once.  Latency is the time inside the program's call; the check
    runs after the clock stops.
    """
    stats = LoopStats()
    clock = time.perf_counter
    start = clock()

    def one_pass() -> bool:
        begin = Pass(len(stats.latencies), 0, stats.busy_s, stats.values)
        position = 0
        for group in groups:
            if group.before is not None:
                group.before()
            for request in group.requests:
                if tracer is not None:
                    tracer.request_id = stats.issued
                began = clock()
                try:
                    result = request.run()
                    error = None
                except Exception as exc:  # a raise on admissible input is a failed request
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = clock() - began
                reason = error if error is not None else request.check(result)
                stats.record(position, request.key, elapsed, reason, request.values)
                position += 1
                if stats.passes and clock() - start >= seconds:
                    return False
        stats.passes.append(Pass(begin.start, len(stats.latencies),
                                 stats.busy_s - begin.busy_s, stats.values - begin.values))
        return True

    while one_pass():
        if max_passes is not None and len(stats.passes) >= max_passes:
            break
        if clock() - start >= seconds:
            break
    return stats


def measure_setup(workload: str, env: dict) -> list:
    """Set-up seconds from fresh interpreters (probe.py), one after another."""
    samples = []
    for _ in range(SETUP_REPS):
        _, proc = run_python([str(ROOT / "bench" / "probe.py"), workload], env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def verify_failure(code: int, stdout: str):
    if code != 0:
        return f"verify exited {code}"
    bad = [rec["check"] for rec in map(json.loads, stdout.splitlines()) if not rec["ok"]]
    return f"verify checks failed: {bad}" if bad else None


def measure_verify(env: dict) -> tuple:
    """(wall-time samples, failure reason or None) of `verify --suite all --budget full`."""
    samples, reason = [], None
    for _ in range(VERIFY_REPS):
        elapsed, proc = run_python(["-m", "hahnium.cli", *VERIFY_ARGV], env)
        samples.append(elapsed)
        reason = reason or verify_failure(proc.returncode, proc.stdout)
    return samples, reason


def _importtime(stderr: str) -> dict:
    """{module: cumulative microseconds} from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]))
    return out


def run_main(cli_module, argv: list) -> tuple:
    """(exit code, stdout) of cli.main(argv) in this process."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli_module.main(argv)
    return code, sink.getvalue()


def _cli_reason(code: int, stdout: str, check):
    return f"exit code {code}" if code != 0 else check(stdout)


def subprocess_groups(mix: list, env: dict) -> list:
    """The cli mix as requests that each run one `python -m hahnium.cli`."""
    def request(cli_request):
        argv = ["-m", "hahnium.cli", *cli_request.argv]
        return draws.Request(
            cli_request.key,
            lambda: run_python(argv, env)[1],
            lambda proc: _cli_reason(proc.returncode, proc.stdout, cli_request.check),
        )
    return [draws.Group([request(r)]) for r in mix]


def inprocess_groups(mix: list, cli_module, cache_totals: dict | None) -> list:
    """The cli mix as in-process cli.main(argv) calls, plus one verify when
    cache_totals is given (it collects the oracle cache hits and misses)."""
    def request(key, argv, reason):
        return draws.Request(key, lambda: run_main(cli_module, argv),
                             lambda out: reason(*out))
    groups = [draws.Group([request(r.key, r.argv,
                                   lambda code, out, r=r: _cli_reason(code, out, r.check))])
              for r in mix]
    if cache_totals is not None:
        # Start from empty oracle caches, as a fresh `hahnium verify` process does.
        groups.append(draws.Group([request(tuple(VERIFY_ARGV), VERIFY_ARGV, verify_failure)],
                                  before=lambda: draws.clear_oracle_caches(cache_totals)))
    return groups


def cli_layer(seed: int, env: dict) -> dict:
    """The cli layer's floor: interpreter, imports and in-process main()."""
    interp, imports, numpy_import = [], [], []
    for _ in range(FLOOR_REPS):
        interp.append(run_python(["-c", "pass"], env)[0])
        _, proc = run_python(["-X", "importtime", "-c", "import hahnium.cli"], env)
        times = _importtime(proc.stderr)
        imports.append(times["hahnium.cli"] / 1e3)
        numpy_import.append(times.get("numpy", 0) / 1e3)
    cli = importlib.import_module("hahnium.cli")
    mains = run_loop(inprocess_groups(draws.cli(seed), cli, None), 0.0, max_passes=1)
    return {
        "cli.interp_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.numpy_import_ms": (statistics.median(numpy_import), "ms"),
        "cli.main_ms": (statistics.median(mains.latencies) * 1e3, "ms"),
    }


def layer_metrics(tracer: Tracer, cache_totals: dict) -> dict:
    out = {}
    for layer in LAYERS[:-1]:
        calls, self_s = tracer.layer_totals(layer)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    c = tracer.counters
    series = c["series_float"] + c["series_exact"]
    cases = sum(tracer.stats.get(name, (0, 0.0))[0] for name in ORACLE_CASES)
    lookups = cache_totals["hits"] + cache_totals["misses"]
    out.update({
        "specfun.series_terms": (c["series_terms"], "count"),
        "specfun.exact_share": (c["series_exact"] / series if series else 0.0, "ratio"),
        "orthopoly.points": (c["points"], "count"),
        "hydrogen_nr.moment_us_p50": (tracer.median_us("hydrogen_nr.expect_r_power_nr"), "us"),
        "hydrogen_nr.screening_us_p50": (tracer.median_us("hydrogen_nr.screening_nr"), "us"),
        "hydrogen_rel.moment_us_p50": (tracer.median_us("hydrogen_rel.expect_r_power_rel"),
                                       "us"),
        "hydrogen_rel.flagged": (c["flagged"], "count"),
        "oracle.quad_calls": (c["quad_calls"], "count"),
        "oracle.evaluations": (c["evaluations"], "count"),
        "oracle.evals_per_case": (c["evaluations"] / cases if cases else 0.0, "count"),
        "oracle.cache_hit_ratio": (cache_totals["hits"] / lookups if lookups else 0.0,
                                   "ratio"),
    })
    return out


def _modules() -> dict:
    return {layer: importlib.import_module(f"hahnium.{layer}") for layer in LAYERS}


def _failure_list(*failure_maps: dict) -> list:
    unique = {}
    for failures in failure_maps:
        for _, key_reason in sorted(failures.items()):
            unique.setdefault(key_reason, None)
    return [{"request": list(key), "reason": reason} for key, reason in unique]


@dataclass
class Outcome:
    attempted: int
    failures: list
    metrics: dict  # name -> (value, unit)
    samples: dict
    detail: dict = field(default_factory=dict)


def _windows(workload: str, loop: LoopStats) -> list:
    """The stretches of a run that each yield one estimate of every statistic.

    In-process workloads: every complete pass after the first, which warms
    caches and allocators.  cli: the whole run pooled, because a pass holds
    only 40 invocations, too few for a 90th percentile of its own.
    """
    if workload == "cli":
        return [Pass(0, len(loop.latencies), loop.busy_s, loop.values)]
    return loop.passes[1:] or loop.passes


def _timed_outcome(workload: str, loop: LoopStats, setup: list, verify: tuple,
                   attempted: int) -> Outcome:
    """End-to-end metrics of an untraced run.  verify: (samples, failure reason).

    Each statistic is computed per window and the median over windows is reported.
    """
    verify_samples, verify_reason = verify
    failures = _failure_list(loop.failures)
    if verify_reason:
        failures.append({"request": VERIFY_ARGV, "reason": verify_reason})
    windows, tail = _windows(workload, loop), TAIL[workload]

    def median_over_windows(statistic) -> float:
        return statistics.median(statistic(w, loop.latencies[w.start:w.end]) for w in windows)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (median_over_windows(lambda w, lat: w.values / w.busy_s), "1/s"),
        "latency_p50_ms": (median_over_windows(lambda w, lat: percentile(lat, 0.5)) * 1e3,
                           "ms"),
        "latency_tail_ms": (median_over_windows(lambda w, lat: percentile(lat, tail)) * 1e3,
                            "ms"),
        "verify_s": (statistics.median(verify_samples), "s"),
    }
    # The same numbers under the names the workload's documentation uses.
    unit = {"oracle_sweep": "case", "cli": "invocation"}.get(workload, "value")
    detail = {
        f"{unit}s_per_s": metrics["throughput_per_s"][0],
        f"{unit}_ms_p50": metrics["latency_p50_ms"][0],
        f"{unit}_ms_p{round(tail * 100)}": metrics["latency_tail_ms"][0],
    }
    per_window = min(w.end - w.start for w in windows)
    samples = {"passes": len(loop.passes), "windows": len(windows),
               "latency_per_window": per_window,
               "beyond_tail_per_window": per_window - int(tail * per_window),
               "setup": len(setup), "verify": len(verify_samples), "issued": loop.issued}
    return Outcome(attempted + 1, failures, metrics, samples, detail)


def _traced_outcome(groups: list, seconds: float, modules: dict, seed: int, env: dict,
                    label: str, cache_totals: dict) -> Outcome:
    """Untraced passes for `seconds`, then one traced pass; per-layer metrics.

    cache_totals is the dict the groups' hooks add oracle cache counts to.
    """
    untraced = run_loop(groups, seconds)
    draws.clear_oracle_caches(None)
    cache_totals.update(hits=0, misses=0)
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = run_loop(groups, 0.0, tracer, max_passes=1)
    finally:
        tracer.uninstall()
    draws.clear_oracle_caches(cache_totals)
    metrics = layer_metrics(tracer, cache_totals)
    metrics.update(cli_layer(seed, env))
    warm = untraced.passes[1:] or untraced.passes
    ratio = traced.passes[0].busy_s / statistics.median(p.busy_s for p in warm)
    metrics["trace.overhead_frac"] = (ratio - 1.0, "ratio")
    tracer.write_spans(out_dir() / f"spans-{label}-seed{seed}.jsonl")
    samples = {"untraced_passes": len(untraced.passes), "traced_passes": 1,
               "spans": tracer.next_id, "spans_kept": len(tracer.spans)}
    attempted = sum(len(group.requests) for group in groups)
    return Outcome(attempted, _failure_list(untraced.failures, traced.failures),
                   metrics, samples)


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    env = child_env()
    run_python(["-c", "import hahnium.cli"], env)  # writes bytecode caches once
    if not trace:
        setup = measure_setup(workload, env)
        verify = measure_verify(env)
    cache_totals = {"hits": 0, "misses": 0}
    if workload == "oracle_sweep":
        groups = draws.oracle_sweep(seed, cache_totals)
    else:
        groups = getattr(draws, workload)(seed)
    probe.warm(workload)
    gc.freeze()  # collections then skip the draw and its references
    if trace:
        return _traced_outcome(groups, seconds, _modules(), seed, env, workload,
                               cache_totals)
    attempted = sum(len(group.requests) for group in groups)
    return _timed_outcome(workload, run_loop(groups, seconds), setup, verify, attempted)


def run_cli(seed: int, seconds: float, trace: bool) -> Outcome:
    env = child_env()
    run_python(["-c", "import hahnium.cli"], env)  # writes bytecode caches once
    mix = draws.cli(seed)
    if trace:
        modules = _modules()
        cache_totals = {"hits": 0, "misses": 0}
        groups = inprocess_groups(mix, modules["cli"], cache_totals)
        return _traced_outcome(groups, seconds, modules, seed, env, "cli", cache_totals)
    first = ["-m", "hahnium.cli", *draws.GOLDEN_INVOCATIONS["energy_nr_z1_n1.json"]]
    setup = [run_python(first, env)[0] for _ in range(SETUP_REPS)]
    verify = measure_verify(env)
    loop = run_loop(subprocess_groups(mix, env), seconds)
    return _timed_outcome("cli", loop, setup, verify, len(mix))


def out_dir():
    path = ROOT / "bench" / "out"
    path.mkdir(exist_ok=True)
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "cli":
        outcome = run_cli(seed, seconds, trace)
    else:
        outcome = run_inprocess(workload, seed, seconds, trace)
    failed = len(outcome.failures)
    unexpected = [f for f in outcome.failures if f["request"][0] not in draws.KNOWN_DEFECTS]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": not unexpected,
        "attempted": outcome.attempted,
        "failed": failed,
        "fail_frac": failed / outcome.attempted,
        "known_defects": draws.KNOWN_DEFECTS,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
        "samples": outcome.samples,
        "detail": outcome.detail,
        "failures": outcome.failures,
    }
