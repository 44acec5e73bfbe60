"""RLC index benchmark: one workload per invocation.

Usage, from the repository root:
    python3 rlcbench/run.py --workload {index-query,dataflow-build}
        --seed N --seconds S --trace {0,1}

The run happens in a child process (``worker.py``) in its own process group,
so a Spark session left unusable by a cancelled job cannot affect the next
run, and every process it starts, the Spark JVM included, is stopped and
reaped before this command exits. The last line of standard output is the
run's JSON result. Without the program's sources next to this directory the
command exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The whole run, set-up included, must end well inside three minutes.
TIMEOUT_S = 170
#: How long the Spark JVM gets to exit on its own after the worker ends.
GRACE_S = 10
PR_SET_CHILD_SUBREAPER = 36


def _reap_all(pgid: int, grace: float) -> None:
    """Wait for every descendant to end; signal the worker's process group
    if some are still alive after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    sig = signal.SIGTERM
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            sig = signal.SIGKILL
            deadline = time.monotonic() + 2
        time.sleep(0.05)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="validated by worker.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "core" / "sequential.py").is_file():
        print(f"rlcbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Descendants orphaned by the worker (the Spark JVM) are re-parented
    # here, so they can be waited for.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    scratch = ROOT / ".bench_build" / "rlcbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        TMPDIR=str(scratch),
        SPARK_LOCAL_DIRS=str(scratch),
        JAVA_TOOL_OPTIONS=f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}",
    )
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        out, _ = worker.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        _reap_all(worker.pid, 0)
        print(f"rlcbench: {args.workload} exceeded {TIMEOUT_S}s", file=sys.stderr)
        return 3
    _reap_all(worker.pid, GRACE_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if worker.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write(out if result is None else "\n".join(lines[:-1]) + "\n")
        print(f"rlcbench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
