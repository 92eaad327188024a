"""Child-process runner, closed loop, and the stdlib-only launcher of the
cli-artifacts ops.

    python3 -m perfbench.launcher JOB.json

Linux folds the memory high-water mark of the process that forks into the
child's ru_maxrss at exec. The cli-artifacts processes are therefore
started from this small process rather than from the generator (which
holds numpy and the oracle data), so each child's ru_maxrss is its own
peak. Every op records its exit code, wall time, peak RSS, and the sha256
and size of its artifact, which is then deleted.
"""
from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from time import perf_counter

CHILD_TIMEOUT_S = 150
#: seconds a stopped child has between SIGTERM and SIGKILL to stop its own
STOP_GRACE_S = 10
#: the set-up launch timed for setup_s: a fresh interpreter importing ptgraph
SETUP_ARGV = [sys.executable, "-c", "import ptgraph"]


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def run_child(argv, env, cwd, timeout=CHILD_TIMEOUT_S):
    """Run one process to completion; returns (exit code, wall s, max RSS kB,
    stderr).

    The child is reaped with wait4 so its own resource usage is read; a
    timer signal bounds the wait, and a child past it is stopped and reaped.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildTimeout:
        _, status, usage = _stop(proc)
    except BaseException:  # interrupted or terminated: take the child down too
        _stop(proc)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    return proc.returncode, wall, usage.ru_maxrss, err


def _stop(proc):
    """SIGTERM, so the child can stop and reap its own children, then SIGKILL
    if it is still there after the grace time; returns wait4's result."""
    proc.terminate()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, STOP_GRACE_S)
    try:
        return os.wait4(proc.pid, 0)
    except ChildTimeout:
        proc.kill()
        return os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(argv, out):
    rc, wall, maxrss, err = run_child(argv, None, None)
    rec = {"rc": rc, "wall_s": wall, "maxrss_kb": maxrss, "stderr": err.strip()[-300:]}
    if os.path.exists(out):
        h = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        rec.update(sha256=h.hexdigest(), bytes=os.path.getsize(out))
    return rec


def closed_loop(run_one, n_ops, required, seconds, launches):
    """Run ops 0, 1, ... of a list of n_ops (cycling) one after another until
    the first `required` have run and `seconds` have passed.

    `launches` set-up launches are spread evenly over the run, each between
    two ops, so a slow phase of the shared host sways their median less than
    a burst at the start would. Returns (op records, set-up wall times).
    """
    records, setup = [], []
    t0 = perf_counter()
    i = 0
    while i < required or perf_counter() < t0 + seconds:
        if len(setup) < launches and perf_counter() >= t0 + seconds * len(setup) / launches:
            setup.append(time_setup())
        records.append(run_one(i % n_ops))
        i += 1
    while len(setup) < launches:
        setup.append(time_setup())
    return records, setup


def time_setup():
    rc, wall, _, err = run_child(SETUP_ARGV, None, None, timeout=60)
    if rc != 0:
        raise SystemExit(f"`import ptgraph` failed (exit {rc}): {err.strip()[-400:]}")
    return wall


def main(argv):
    with open(argv[1]) as fh:
        job = json.load(fh)
    ops = job["ops"]

    def run_one(i):
        key, cmd, out = ops[i]
        rec = run_op(cmd, out)
        rec["key"] = key
        if os.path.exists(out):
            os.unlink(out)
        return rec

    records, setup = closed_loop(run_one, len(ops), job["required"], job["seconds"], job["launches"])
    probe_cmd, probe_out = job["probe"]
    probe = run_op(probe_cmd, probe_out)
    with open(job["result"], "w") as fh:
        json.dump({"records": records, "probe": probe, "setup": setup}, fh)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv))
