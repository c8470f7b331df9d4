"""Benchmark the vaxnet experiment pipelines end to end.

    python3 perfbench/run.py --workload eigendrop --seed 1 --seconds 30 --trace 0

Each sample launches one fresh `perfbench/worker.py` process that runs the
vaxnet CLI on inputs written from the seed; samples repeat, one process at
a time, until `--seconds` is spent (at least MIN_SAMPLES). Every sample's
outputs go through the correctness gate. With `--trace 0` the last stdout
line reports medians of the end-to-end metrics; with `--trace 1` samples
alternate untraced and traced processes and the line reports the
per-layer metrics of the traced ones plus the tracing overhead. The lines
before it give each metric with its unit, ops_failed_frac and the
environment. Work files go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


def _read_proc(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def host_env() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read_proc("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "loadavg": _read_proc("/proc/loadavg").split()[:3]}


def launch(inputs, out_dir: Path, scratch: Path, traced: bool) -> dict:
    """Run one workload process to completion and return its timings."""
    result_path = scratch / "result.json"
    trace_path = scratch / "trace.json"
    for p in (result_path, trace_path):
        p.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(result_path),
            str(trace_path) if traced else "-", "--"] + inputs.cli_args(out_dir)
    launched = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"workload process failed ({proc.returncode}): {proc.stderr.strip()}")
    sample = json.loads(result_path.read_text(encoding="utf-8"))
    if sample["rc"] != 0:
        sys.stderr.write(proc.stderr)
        return {"ok": False, "env": sample["env"]}
    sample.update(ok=True, wall_s=sample["exit"] - sample["enter"],
                  setup_s=sample["enter"] - launched)
    if traced:
        spans, counters, distinct = tracing.load(trace_path)
        layers = tracing.layer_metrics(spans, counters, distinct)
        layers["experiments.output_bytes"] = (
            float(sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())), "bytes")
        layers["trace.spans"] = (float(len(spans)), "count")
        sample["layers"] = layers
    return sample


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vaxnet" / "cli.py").is_file():
        print(f"error: no vaxnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = host_env()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = write_inputs(args.workload, args.seed, work / "inputs")
        reference = gate.load_reference(args.workload, args.seed)
        attempted = failed = 0
        samples: dict[bool, list[dict]] = {False: [], True: []}
        started = time.monotonic()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            out_dir = work / f"out{i}"
            sample = launch(inputs, out_dir, work, traced)
            verdict = gate.check(inputs, out_dir, reference, run_ok=sample["ok"])
            attempted += verdict.attempted
            failed += verdict.failed
            if sample["ok"]:
                print(f"sample {i}{' traced' if traced else ''}: wall_s={sample['wall_s']:.4f} "
                      f"cpu_s={sample['cpu_s']:.4f} setup_s={sample['setup_s']:.4f}")
            for key, reasons in sorted(verdict.failures.items()):
                print(f"gate: sample {i} record {key}: {'; '.join(reasons)}")
            shutil.rmtree(out_dir, ignore_errors=True)
            samples[traced].append(sample)
            i += 1
            spent = time.monotonic() - started
            per_sample = spent / i
            enough = (len(samples[False]) >= MIN_SAMPLES if not args.trace
                      else len(samples[True]) >= 1 and i % 2 == 0)
            if enough and spent + per_sample > args.seconds:
                break
        env.update(samples[False][-1]["env"], loadavg_end=_read_proc("/proc/loadavg").split()[:3])
    finally:
        # A traced run keeps its last span file; nothing else outlives the run.
        for leftover in ([work / "inputs", work / "result.json"] if args.trace else [work]):
            if leftover.is_dir():
                shutil.rmtree(leftover, ignore_errors=True)
            else:
                leftover.unlink(missing_ok=True)

    ok = [s for s in samples[False] if s["ok"]]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = (_median([s[name] for s in ok]), unit)
    else:
        traced_ok = [s for s in samples[True] if s["ok"]]
        for name, (_, unit) in (traced_ok[0]["layers"] if traced_ok else {}).items():
            metrics[name] = (_median([s["layers"][name][0] for s in traced_ok]), unit)
        traced_wall = _median([s["wall_s"] for s in traced_ok])
        metrics["trace.overhead_s"] = (traced_wall - _median([s["wall_s"] for s in ok]), "s")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples[False])} untraced and {len(samples[True])} traced samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    frac = failed / attempted if attempted else 1.0
    print(f"  ops_failed_frac = {frac:.6g} ratio ({failed} of {attempted} records)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(ok), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
