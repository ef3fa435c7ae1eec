"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_interactive --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` times the
program's layers through probes and reports the per-layer metrics
(``BENCHMARK.json`` names both sets).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the phase counts and provenance.  A traced run also writes its
spans to ``.perfbench/spans-<workload>-<seed>.jsonl``.  Everything the
run writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "serve_interactive", "report")
#: One BLAS thread. With the default pool of ``nproc`` threads, OpenBLAS
#: helper threads spin between calls and contend with the serving and
#: client threads on a 2-core host: a 512-row generate then takes
#: anywhere from 21 to 36 ms, against 27.5 +- 0.3 ms with one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _provenance(args) -> dict:
    import numpy as np

    from workloads import cpu_count

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_count": cpu_count(), "git_sha": git_sha,
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas_env": BLAS_ENV}


def _declared(trace: int) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_all(args) -> int:
    """Run every workload in its own process; print each result line."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn "
                             "and print a table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace),
                            scratch)
        workloads.execute(workloads.WORKLOADS[args.workload], run)
    if args.trace:
        metrics = workloads.layer_metrics(run)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        run.recorder.write(spans)
    else:
        metrics = workloads.end_to_end_metrics(run)
    if set(metrics) != _declared(args.trace):
        raise SystemExit(f"metrics {sorted(set(metrics))} do not match "
                         f"BENCHMARK.json")

    attempted = sum(p["attempted"] for name, p in run.phases.items()
                    if name != "setup")
    failed = sum(p["failed"] for p in run.phases.values())
    print(json.dumps({"phases": run.phases,
                      "provenance": _provenance(args)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
