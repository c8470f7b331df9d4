"""One benchmark workload process: run the vaxnet CLI once and time it.

Usage: python3 perfbench/worker.py RESULT_JSON TRACE_JSON -- <vaxnet CLI args>

TRACE_JSON is `-` for an untraced run. The process imports vaxnet from the
checkout's `src/`, wraps the runner that `vaxnet.cli` binds so that entry,
exit and CPU time are read at its boundary, calls `vaxnet.cli.main`, and
writes the timings to RESULT_JSON. The launching process supplies the
launch instant, so set-up time covers interpreter start, imports and config
load.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNNERS = {"table1": "run_eigendrop_table", "herd": "run_herd",
           "simulate": "run_simulate", "ingest": "run_ingest"}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be read."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _numpy_env() -> dict:
    import numpy as np
    env = {"numpy": np.__version__, "blas_threads": _blas_threads(),
           "blas_thread_env": {k: os.environ[k] for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, trace_path, cli_args = argv[0], argv[1], argv[3:]
    command = cli_args[0]

    sys.path.insert(0, str(ROOT / "src"))
    import vaxnet
    import vaxnet.cli as cli
    if not Path(vaxnet.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vaxnet imported from {vaxnet.__file__}, not from this checkout",
              file=sys.stderr)
        return 3

    tracer = None
    if trace_path != "-":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    timing: dict = {}
    runner = getattr(cli, RUNNERS[command])

    def timed(*args, **kwargs):
        timing["enter"] = time.monotonic()
        cpu0 = _cpu_s()
        idx = tracer.open(tracing.RUNNER) if tracer else None
        try:
            return runner(*args, **kwargs)
        finally:
            if tracer:
                tracer.close(idx)
            timing["cpu_s"] = _cpu_s() - cpu0
            timing["exit"] = time.monotonic()

    setattr(cli, RUNNERS[command], timed)
    rc = cli.main(cli_args)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(trace_path)
    payload = {"rc": rc, **timing, "peak_rss_mb": peak_kib / 1024.0, "env": _numpy_env()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
