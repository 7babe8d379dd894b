"""Start CLI invocations from a process with a small heap; report wall time
and peak RSS.

Until it execs, a child shares or copies its parent's memory, and Linux
counts the parent's peak RSS in the child's ``ru_maxrss``. The benchmark's
own heap can outgrow a ddnsim run, so it starts CLI invocations through
this process, which it launches before it builds anything and whose peak
stays far below any ddnsim run's.

Reads one JSON request per stdin line, ``{"argv": [...], "stderr": path,
"timeout": seconds}``, and answers each with one JSON line
``{"status": exit code, "wall_s": seconds, "maxrss_kb": kilobytes}``.
Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stderr_path, timeout):
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
