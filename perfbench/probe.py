"""Fresh-process probes, started by run.py with shotdp's src on PYTHONPATH.

    python3 perfbench/probe.py import <module>
        Import one module and print, as JSON, the import's wall time, the
        count of modules then loaded, whether scipy is among them, and the
        process's peak RSS.

    python3 perfbench/probe.py setup <workload> <seed> <workdir>
        Do what a workload does before its first timed operation: import
        shotdp, build the seeded inputs, and warm up each operation kind.
        run.py times the whole process, interpreter start included.
"""

import sys
import time


def own_peak_rss_kb() -> int:
    """This process's peak RSS since it started its program (VmHWM).

    getrusage's ru_maxrss would also count the peak of the process this one
    was forked from: run.py for a probe, whatever started the benchmark for
    run.py itself.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    if argv[1] == "import":
        t0 = time.perf_counter()
        __import__(argv[2])
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        modules = len(sys.modules)
        scipy_loaded = int("scipy" in sys.modules)
        import json

        rss_mb = own_peak_rss_kb() / 1024
        print(json.dumps({"ms": elapsed_ms, "modules": modules, "scipy_loaded": scipy_loaded, "rss_mb": rss_mb}))
        return 0
    if argv[1] == "setup":
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, here)
        import workloads

        env = workloads.Env(os.path.dirname(here), argv[4])
        workloads.WORKLOADS[argv[2]](env, int(argv[3])).warmup()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
