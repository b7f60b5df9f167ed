"""Closed-loop runner of ``mixbench run`` for one workload.

One client, in one process: each invocation of ``cli.main`` starts only
after the previous one finished, and no threads are added.  Every
invocation's bundle is checked against the closed forms (``oracles``) and
against the bundle an earlier invocation wrote for the same config.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy
import yaml

import mixbench
from mixbench import cli

import oracles
import workloads
from layertrace import Tracer

# A tail percentile needs this many samples above it.
TAIL_DEPTH = 10
# Nothing may keep a run going past this many seconds (the contract allows
# 180 per run, set-up included).
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Length:
    """How much a run measures beyond its ``--seconds``."""

    setup_warmups: int
    setup_samples: int
    min_samples: int


FULL = Length(setup_warmups=1, setup_samples=25, min_samples=TAIL_DEPTH + 1)
SMOKE = Length(setup_warmups=0, setup_samples=1, min_samples=1)

# Timed inside the child, from just before ``import mixbench`` to the
# validated config, so interpreter start-up and process spawn are left out.
_SETUP_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import mixbench
from mixbench import config
cfg = config.load_config({path!r})
config.build_scenario(cfg)
if "nf" in cfg.measurements:
    config.build_nf_setup(cfg)
print(repr(time.perf_counter() - start))
"""


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    work: Path
    config_paths: List[str]
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: Dict[int, str] = field(default_factory=dict)
    residuals: Dict[int, Dict[str, float]] = field(default_factory=dict)
    nf_err_db: Dict[int, float] = field(default_factory=dict)
    parameter_sha256: Dict[int, str] = field(default_factory=dict)

    def invoke(self, k: int, tracer: Optional[Tracer] = None) -> float:
        """One ``mixbench run`` on config ``k``; returns its wall time in s."""
        out = self.work / "bundle"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", self.config_paths[k], "--out", str(out),
                "--seed", str(self.seed)]
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        # The tracer's wrappers are installed outside the timed region.
        with redirect_stdout(stdout), redirect_stderr(stderr), \
                tracer if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.invocation(self.attempted):
                        rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # the benchmark must report, not die
                rc = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.getvalue().strip()[:300]}")
        else:
            check = oracles.check_bundle(str(out), self.workload.configs[k],
                                         self.workload.gain_tol_db)
            problems.extend(check.failures)
            self.residuals[k] = check.residuals_db
            if not math.isnan(check.nf_err_db):
                self.nf_err_db[k] = check.nf_err_db
            self.parameter_sha256[k] = check.parameter_sha256
            digest = oracles.bundle_digest(str(out))
            first = self.digests.setdefault(k, digest)
            if digest != first:
                problems.append("bundle bytes differ from an earlier invocation "
                                "with the same config and seed")
        if problems:
            self.failed += 1
            self.failures.extend(f"invocation {self.attempted} (config {k}): {p}"
                                 for p in problems)
        return elapsed


def _percentile_tail(samples: List[float]):
    """Highest percentile with at least TAIL_DEPTH samples above it.

    Returns (value, percentile, count).  With too few samples (smoke mode
    only) it falls back to the maximum, reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_DEPTH:
        return ordered[-1], 100.0, n
    index = n - TAIL_DEPTH - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def _setup_probe(run: Run) -> float:
    """Fresh interpreter's ``import mixbench`` to validated config; nan on failure."""
    code = _SETUP_PROBE.format(src=str(Path(mixbench.__file__).parent.parent),
                               path=run.config_paths[0])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=str(run.work))
    if proc.returncode != 0:
        run.failures.append(f"setup probe exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        return math.nan
    return float(proc.stdout.split()[-1])


def code_sha256(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for directory in (root / "src" / "mixbench", Path(__file__).parent):
        for path in sorted(directory.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_revision(root: Path) -> Optional[str]:
    """HEAD of the checkout's own .git, if it has one (no git subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> Dict[str, Any]:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {}


def metadata(root: Path, run: Run) -> Dict[str, Any]:
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "blas": _blas(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "git_revision": _git_revision(root),
        "code_sha256": code_sha256(root),
        "parameter_sha256": [run.parameter_sha256.get(k)
                             for k in range(len(run.config_paths))],
    }


def prepare(root: Path, name: str, seed: int, stem: str) -> Run:
    workload = workloads.build(name, seed)
    work = root / ".bench_work" / stem
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, cfg in enumerate(workload.configs):
        path = work / f"config{k}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True) if cfg else "",
                        encoding="utf-8")
        paths.append(str(path))
    return Run(workload=workload, seed=seed, work=work, config_paths=paths)


def _keep_going(start: float, seconds: float, done: int, needed: int,
                run: Run) -> bool:
    elapsed = time.monotonic() - start
    if elapsed > HARD_LIMIT_S:
        run.failures.append(f"stopped after {elapsed:.0f} s with {done} of "
                            f"{needed} invocations: the program is too slow")
        return False
    return elapsed < seconds or done < needed


def measure_untraced(run: Run, seconds: float, length: Length) -> Dict[str, Any]:
    """End-to-end metrics: set-up, run time, its tail, peak RSS, residuals.

    The set-up probes are spread evenly over the measuring window, between
    invocations, so that ``setup_s`` and ``run_s`` see the same stretch of
    machine time.
    """
    for _ in range(length.setup_warmups):
        _setup_probe(run)  # pays for compiling the .pyc files
    configs = len(run.config_paths)
    needed = max(configs, length.min_samples)
    run.invoke(0)  # unmeasured warm-up
    setup: List[float] = []
    samples: List[float] = []
    start = time.monotonic()
    while _keep_going(start, seconds, len(samples), needed, run):
        due = (len(setup) + 0.5) * seconds / length.setup_samples
        if len(setup) < length.setup_samples and time.monotonic() - start >= due:
            setup.append(_setup_probe(run))
        samples.append(run.invoke(len(samples) % configs))
    while len(setup) < length.setup_samples:
        setup.append(_setup_probe(run))
    tail, pct, n = _percentile_tail(samples)
    residuals = [err for by_check in run.residuals.values() for err in by_check.values()]
    return {
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "run_s_tail": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
            "oracle_err_db": (max(residuals) if residuals else math.nan, "dB"),
        },
        "run_s": statistics.median(samples),
        "run_s_tail_percentile": pct,
        "run_s_count": n,
        "setup_samples": setup,
        "run_samples": samples,
        "nf_err_db": max(run.nf_err_db.values()) if run.nf_err_db else None,
        "residuals_db": {str(k): v for k, v in sorted(run.residuals.items())},
    }


# Per-layer metrics and how each is read from the trace.  ``calls``,
# ``samples``, ``rows`` and ``bytes`` are per-invocation counts averaged over
# the workload's configs; ``s`` and ``self_s`` are medians over the traced
# invocations of the per-invocation total and self time.
LAYER_TIMES = (
    ("config.load_config", "s"), ("config.build_nf_setup", "s"),
    ("signals.synthesize_tone", "self_s"), ("signals.white_noise", "self_s"),
    ("signals.band_noise_stats", "self_s"), ("signals.bin_amplitude", "self_s"),
    ("signals.harmonic_table", "s"),
    ("devices.transconductor_current", "self_s"), ("devices.switch_waveform", "self_s"),
    ("engine.simulate", "s"), ("engine.simulate", "self_s"),
    ("engine.apply_if_filter", "self_s"),
    ("metrics.measure_conversion_gain", "s"), ("metrics.measure_p1db", "s"),
    ("metrics.measure_iip3", "s"), ("metrics.measure_isolation", "s"),
    ("metrics.measure_noise_figure", "s"),
    ("cli.write_table", "self_s"), ("cli.emit_transient", "s"),
    ("cli.write_outputs", "s"), ("cli.run", "s"),
)
LAYER_COUNTS = (
    ("signals.synthesize_tone.calls", "count"), ("signals.synthesize_tone.samples", "count"),
    ("signals.white_noise.calls", "count"), ("signals.white_noise.samples", "count"),
    ("signals.band_noise_stats.calls", "count"), ("signals.bin_amplitude.calls", "count"),
    ("signals.harmonic_table.calls", "count"),
    ("devices.transconductor_current.calls", "count"),
    ("devices.switch_waveform.calls", "count"),
    ("engine.simulate.calls", "count"), ("engine.simulate.samples", "count"),
    ("engine.simulate.max_samples", "count"), ("engine.apply_if_filter.calls", "count"),
    ("metrics.measure_conversion_gain.calls", "count"),
    ("cli.write_table.calls", "count"), ("cli.write_table.rows", "count"),
    ("cli.write_table.bytes", "bytes"),
)


def measure_traced(run: Run, seconds: float, length: Length,
                   spans_path: Path) -> Dict[str, Any]:
    """Per-layer metrics from alternating untraced and traced invocations."""
    configs = len(run.config_paths)
    needed = max(configs, length.min_samples)
    run.invoke(0)  # unmeasured warm-up
    plain: List[float] = []
    traced: List[float] = []
    traced_config: Dict[int, int] = {}
    tracer = Tracer()
    start = time.monotonic()
    while _keep_going(start, seconds, len(traced), needed, run):
        k = len(traced) % configs
        plain_first = len(traced) % 2 == 1  # alternate which side runs first
        if plain_first:
            plain.append(run.invoke(k))
        traced.append(run.invoke(k, tracer))
        traced_config[run.attempted] = k
        if not plain_first:
            plain.append(run.invoke(k))
    tracer.write(str(spans_path))

    stats = tracer.layer_stats()
    per_config: Dict[int, Dict[str, int]] = {}
    for inv, k in traced_config.items():
        counts = tracer.work_counts(inv)
        if per_config.setdefault(k, counts) != counts:
            run.failures.append(f"work counts of invocation {inv} differ from an "
                                f"earlier traced invocation of config {k}")

    def mean_count(key: str) -> float:
        return statistics.fmean(c.get(key, 0) for c in per_config.values())

    metrics: Dict[str, Any] = {}
    for name, kind in LAYER_TIMES:
        column = 1 if kind == "s" else 2
        metrics[f"{name}.{kind}"] = (
            statistics.median(stats[inv][name][column] for inv in traced_config), "s")
    for key, unit in LAYER_COUNTS:
        metrics[key] = (mean_count(key), unit)
    filter_calls = mean_count("engine.apply_if_filter.calls")
    bin_calls = mean_count("signals.bin_amplitude.calls")
    metrics["engine.if_filter.read_ratio"] = (
        mean_count("engine.if_filter.reads") / filter_calls if filter_calls else 0.0,
        "ratio")
    metrics["engine.samples_per_bin_read"] = (
        mean_count("signals.bin_amplitude.samples") / bin_calls if bin_calls else 0.0,
        "count")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    return {
        "metrics": metrics,
        "traced_samples": traced,
        "untraced_samples": plain,
        "work_counts": {str(k): v for k, v in sorted(per_config.items())},
        "spans": len(tracer.spans),
    }


def check_counts_repeat(root: Path, previous_record: Path, run: Run,
                        work_counts: Dict[str, Any]):
    """Work counts must repeat exactly across traced runs of the same code."""
    try:
        previous = json.loads(previous_record.read_text())
    except (OSError, ValueError):
        return
    same_code = previous.get("meta", {}).get("code_sha256") == code_sha256(root)
    if same_code and previous.get("work_counts") != work_counts:
        run.failures.append(f"work counts differ from the earlier traced run "
                            f"recorded in {previous_record.name}")
