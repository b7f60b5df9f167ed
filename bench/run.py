"""mixbench's benchmark: time ``mixbench run`` on a workload and check it.

Run from the root of a checkout::

    python3 bench/run.py --workload default --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every invocation
passed every check; it is 2 when the checkout has no ``src/mixbench``.
``--smoke`` runs every workload, ``bundle_json`` too, at minimum length,
both ways, and checks the output schema against BENCHMARK.json and the
oracles, never a timing.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimum length and check "
                             "the schema and the oracles only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def run_one(name: str, seed: int, seconds: int, trace: int, smoke: bool = False):
    """Run one workload; return the result object and the report lines."""
    import harness

    length = harness.SMOKE if smoke else harness.FULL
    # Smoke records have their own names, so they never replace a full run's.
    stem = f"{name}-{'smoke' if smoke else f'seed{seed}'}-trace{trace}"
    run = harness.prepare(ROOT, name, seed, stem)
    records = ROOT / ".bench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    if trace:
        spans = records / f"{stem}-spans.jsonl"
        measured = harness.measure_traced(run, seconds, length, spans)
        harness.check_counts_repeat(ROOT, records / f"{stem}.json", run,
                                    measured["work_counts"])
    else:
        measured = harness.measure_untraced(run, seconds, length)
    record = {"meta": harness.metadata(ROOT, run), **measured,
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures}
    # A metric that could not be measured (the run has failed) reads null.
    record["metrics"] = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                         for k, (v, u) in measured["metrics"].items()}
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed, "metrics": record["metrics"]}
    lines = [f"workload {name}  seed {seed}  trace {trace}  "
             f"invocations {run.attempted} (1 warm-up)  failed {run.failed}"]
    for key, m in record["metrics"].items():
        lines.append(f"  {key:<42} {m['value']} {m['unit']}")
    if not trace:
        lines.append(f"  run_s (median, not gated) {measured['run_s']} s")
        lines.append(f"  run_s_tail is the p{measured['run_s_tail_percentile']:.1f} "
                     f"of {measured['run_s_count']} run_s samples")
        lines.append(f"  failed_ratio {run.failed}/{run.attempted}")
        if measured["nf_err_db"] is not None:
            lines.append(f"  nf_err_db {measured['nf_err_db']:.6g} dB "
                         f"(seeded estimate, checked against 0.3 dB)")
    lines += [f"  FAIL {f}" for f in run.failures[:20]]
    lines.append(f"  record: {(records / f'{stem}.json').relative_to(ROOT)}")
    return result, lines


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_one(name, 1, 0, trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != expected:
                problems.append(f"metrics differ from BENCHMARK.json {section}: "
                                f"{sorted(set(got) ^ set(expected))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append("a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("the run failed its checks")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {name} trace {trace}: {status}")
            if problems:
                print("\n".join(lines))
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mixbench" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'mixbench'} is missing",
              file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread unless the caller chose otherwise; recorded
    # with each result.  Set before numpy is imported.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    result, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
