"""One run of one workload in a fresh interpreter; started by ``run.py``.

Prints ``ready`` once set-up is done (imports, inputs, server up), so the
parent can time set-up from launch.  With ``--setup-only`` it stops
there; otherwise it runs the workload and prints one JSON line with the
outcome and an environment record.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO_N_THREADS": os.environ.get("REPRO_N_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import repro
    import workloads

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(repro.__file__).startswith(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")
    workload = workloads.setup(args.workload, args.seed, args.size, ROOT)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = workload.run(args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(json.dumps({
        "metrics": out.metrics,
        "layers": out.layers,
        "report": out.report,
        "failures": out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
