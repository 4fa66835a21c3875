"""Spawn and time the benchmark's children from a small process.

Linux reports a child's ``ru_maxrss`` as at least the high-water RSS of
the process it was spawned from, so children started straight from the
driver (which holds the checks' reference arrays) would all report the
driver's peak.  This process stays small: it reads one JSON request per
line on stdin (``argv``, ``cwd``, ``env``, ``stdout``, ``stderr``,
``timeout``), runs the child to completion, and writes back one JSON
line with its exit code, wall seconds and peak RSS from ``os.wait4``.

On SIGTERM, or when stdin closes, it kills a running child, waits for
it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_current = []


def _terminate(signum, frame):
    for proc in _current:
        proc.kill()
        proc.wait()
    sys.exit(1)


def run(request):
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        _current.append(proc)
        killer = threading.Timer(
            request["timeout"], os.kill, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            _current.remove(proc)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
