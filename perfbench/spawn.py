"""Runs the measured commands for run.py from a process that stays small.

Linux carries a process's peak-RSS high-water mark into the children it
forks and execs, so ``wait4`` would report at least the peak of the process
that spawned a command.  The benchmark process holds generated inputs and
numpy; this one imports neither, so the peak RSS ``wait4`` reports here is
the command's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stderr": path, "timeout": s}``,
answered by one JSON line on stdout, ``{"wall_s", "maxrss_kb", "exit"}``.
The process exits when stdin closes; on SIGTERM it kills the running
command, waits for it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_running: list[subprocess.Popen] = []


def _terminate(signum, frame) -> None:
    for proc in _running:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _running.append(proc)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _running.clear()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
