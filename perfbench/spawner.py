"""Start the cli-cold commands from a small process of their own, one at a time.

The peak RSS that wait4 reports for a child also counts the memory of the
process it was forked from. A command forked from run.py, which holds
numpy, scipy, shotdp and the oracles, would report at least run.py's own
peak. Forked from this small process, it reports its own.

Protocol, one JSON line each way per command:
    in   {"argv": [...], "stdout": path, "stderr": path}
    out  {"code": exit code, "maxrss_kb": the command's peak RSS}
Commands inherit this process's environment and working directory. One
that runs for over 120 s is killed.
"""

import json
import os
import signal
import sys

TIMEOUT_S = 120


def main() -> int:
    child = {"pid": 0}

    def kill_child(signum, frame):
        os.kill(child["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_child)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
        child["pid"] = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        signal.alarm(TIMEOUT_S)
        _, status, usage = os.wait4(child["pid"], 0)
        signal.alarm(0)
        sys.stdout.write(json.dumps({"code": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
