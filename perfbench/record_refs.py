"""Record the gate's reference outputs for the named seeds.

    python3 perfbench/record_refs.py [workload ...]

Runs each workload once per named seed through the vaxnet CLI of this
checkout and stores its records in `perfbench/refs/`. Record only on a
commit whose outputs are trusted; later commits are gated against these.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import gate
from run import ROOT, WORK
from workloads import NAMED_SEEDS, WORKLOADS, write_inputs


def record(workload: str, seed: int) -> None:
    work = WORK / f"refs-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = write_inputs(workload, seed, work / "inputs")
        out_dir = work / "out"
        subprocess.run([sys.executable, "-m", "vaxnet.cli"] + inputs.cli_args(out_dir),
                       cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       stdout=subprocess.DEVNULL, check=True)
        verdict = gate.check(inputs, out_dir)
        if verdict.failed:
            raise SystemExit(f"{workload} seed {seed}: invariants fail: {verdict.failures}")
        payload = {"workload": workload, "seed": seed,
                   "records": gate.extract(workload, out_dir)}
        gate.REFS_DIR.mkdir(exist_ok=True)
        with open(gate.reference_path(workload, seed), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    for workload in argv or WORKLOADS:
        for seed in NAMED_SEEDS:
            record(workload, seed)
            print(f"recorded {gate.reference_path(workload, seed).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
