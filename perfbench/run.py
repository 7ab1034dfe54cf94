"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It times set-up as the median of
several fresh worker launches (the last of which also runs the
workload), prints a human-readable report, an environment record and,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the ``end_to_end``
metrics of ``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` ones,
measured in a separate run with spans around the program's layers.

Exits non-zero, without a result, when the program's sources are missing
or a worker fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0


# BLAS runs one thread in every process the benchmark starts.  On a host
# of few shared cores, a BLAS pool as wide as the core count makes each
# small product wait for its slowest thread: on a 2-vCPU VM, one busy
# neighbour process doubled fit_churn's fit time and nearly tripled
# stream_drift's step time, while single-threaded BLAS moved neither by
# more than 3%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def worker_env():
    """The caller's environment with the checkout's ``src`` first on the
    path, ``REPRO_N_THREADS`` cleared, so no stray variable switches the
    program onto its row-parallel path, and BLAS pinned to one thread."""
    env = dict(os.environ)
    env.pop("REPRO_N_THREADS", None)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def launch(args, setup_only, timeout):
    """Run one worker; returns ``(set-up seconds, parsed result or None)``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Its own process group, so a kill also reaches the server it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker for {args.workload} exited with {code}")
    if setup_only:
        return ready, None
    return ready, json.loads(lines[-1])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's inputs")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2

    # Terminating this process goes through launch's clean-up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    started = time.perf_counter()
    setups = []
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        setups.append(launch(args, True, RUN_LIMIT_S)[0])
    setup, result = launch(
        args, False, RUN_LIMIT_S - (time.perf_counter() - started))
    setups.append(setup)

    if args.trace:
        wanted = spec["per_layer"]
        unknown = set(result["layers"]) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"layers missing from BENCHMARK.json: {unknown}")
        # A layer the workload does not run reports 0.
        values = {m["name"]: result["layers"].get(m["name"], 0.0)
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    for name, value, unit, detail in result["report"]:
        print(f"{name:<28} {value:14.6g} {unit:<8} {detail}")
    print(f"{'setup_s':<28} {statistics.median(setups):14.6g} {'s':<8} "
          f"median of {len(setups)} launches")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print("env " + json.dumps(dict(result["env"], git_commit=git_commit())))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
