"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py SPEC

SPEC is a JSON object written by run.py:
  spawned  CLOCK_MONOTONIC reading taken just before this process started
  src      directory that must provide the resolvendlab package
  argv     resolvend-lab arguments for a CLI workload, or null
  seed     seed for the padic loop when argv is null
  trace    true to install the per-layer tracer

Prints one JSON line: set-up and run timings, the probe kernel's mean time,
peak RSS, CPU time, the (case, verdict) list and report md5 to check, and
the tracer totals.  wall_s, cpu_s and the traced spans leave the probe's
time out.
"""

import json
import os
import signal
import sys
import time

PROBE_EVERY_S = 0.1


def _cpu(resource):
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Probe:
    """Times a small fixed kernel before, during and after the workload.

    The kernel mixes the kinds of work the library does: Fraction products,
    big-integer products, dict updates and a small numpy sweep.  It runs once
    before the workload, every PROBE_EVERY_S seconds during it (from a
    SIGALRM handler, so on the same CPU and in the same phases of a shared
    host's slowdowns) and once after.  It allocates little, so it does not
    raise the peak RSS.  times holds each run's seconds of thread CPU time;
    inside sums the wall time of the runs between start and stop.
    """

    def __init__(self):
        from fractions import Fraction

        import numpy as np

        self._fraction = Fraction
        self._np = np
        self.times = []
        self.inside = 0.0

    def kernel(self, *_signal):
        # the thread's CPU clock: a slow phase of the host lengthens it, a
        # worker process taking turns on the same CPU does not
        t0, w0 = time.thread_time(), time.perf_counter()
        Fraction, np = self._fraction, self._np
        acc = 0
        for i in range(1, 400):
            acc += (Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1)).numerator & 7
        x = 3**20000
        for i in range(3):
            acc += (x * (x + i)) & 7
        d = {}
        for i in range(8000):
            d[i % 509] = d.get(i % 509, 0) + i
        a = np.arange(5000) % 97
        for _ in range(40):
            a = (a * 31 + 7) % 97
        self.times.append(time.thread_time() - t0)
        self.inside += time.perf_counter() - w0

    def start(self):
        """Run the kernel once, then every PROBE_EVERY_S."""
        self.kernel()
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def clock(self):
        """perf_counter without the time the kernel took since start."""
        return time.perf_counter() - self.inside

    def stop(self):
        """Stop the timer; the wall seconds the kernel took since start."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.inside


def _peak_rss_mb(resource):
    # ru_maxrss is in KiB on Linux; the children figure covers worker processes
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(spec):
    import resolvendlab

    ready = time.monotonic()

    import hashlib
    import io
    import resource
    from contextlib import redirect_stdout

    src = os.path.realpath(spec["src"])
    found = os.path.realpath(resolvendlab.__file__)
    if not found.startswith(src + os.sep):
        raise SystemExit("resolvendlab imported from %s, not from %s" % (found, src))
    probe = Probe()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        # spans leave out the probe runs that land inside them
        tracer = Tracer(clock=probe.clock)
        tracer.install()
    out = {"setup_s": ready - spec["spawned"]}
    if spec["argv"] is not None:
        from resolvendlab import cli

        buf = io.StringIO()
        probe.start()
        cpu0, t0 = _cpu(resource), time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(spec["argv"])
        inside = probe.stop()
        wall, cpu = time.perf_counter() - t0 - inside, _cpu(resource) - cpu0 - inside
    else:
        import padic_loop

        inputs = padic_loop.make_inputs(spec["seed"], resolvendlab)
        probe.start()
        cpu0, t0 = _cpu(resource), time.perf_counter()
        passes, op_seconds = padic_loop.run(inputs, resolvendlab)
        inside = probe.stop()
        wall, cpu = time.perf_counter() - t0 - inside, _cpu(resource) - cpu0 - inside
    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_mb(resource))
    if tracer is not None:
        # read before the checks below, which call the library again
        out["layers"] = tracer.totals()
        out["caches"] = tracer.cache_ratios()
    probe.kernel()
    out["probe_s"] = sum(probe.times) / len(probe.times)
    out["wall_vs_probe"] = wall / out["probe_s"]
    if spec["argv"] is not None:
        text = buf.getvalue()
        report = json.loads(text)
        out.update(
            code=code,
            failed=report["failed"],
            cases=[[r["case"], r["pass"]] for r in report["records"]],
            md5=hashlib.md5(text.encode()).hexdigest(),
            report_bytes=len(text.encode()),
        )
    else:
        cases, md5 = padic_loop.check(inputs, passes, resolvendlab)
        out.update(
            code=0,
            failed=sum(1 for _, ok in cases if not ok),
            cases=[list(c) for c in cases],
            md5=md5,
            report_bytes=0,
            op_seconds=op_seconds,
        )
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
