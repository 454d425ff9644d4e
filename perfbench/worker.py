"""One stage of one benchmark pass, in a fresh interpreter.

Started by run.py as

    python3 perfbench/worker.py SRC WORKLOAD STAGE SEED WORKDIR TRACE_OUT

where STAGE is a stage of the workload's kind, or "setup" to measure
set-up alone, and TRACE_OUT is "-" for an untraced pass.  SRC goes first
on sys.path, so the package is imported from that source tree and not from
an installation.  The last line of standard output is one JSON object:

    ready   perf_counter() when set-up ended (import + inputs built)
    wall_s  wall time of the timed stage, probes excluded
    cpu_s   process CPU time of the timed stage, probes excluded
    rss_mb  peak resident set size after the timed stage
    probe_rate, probe_cpu_rate   mean speed-probe rate per wall and CPU
            second during the stage (untraced passes; see SpeedProbe)
    attempted, failures   the correctness gates
    layers  per-layer figures (traced passes only)
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time


PROBE_INTERVAL_S = 0.2


def probe_work() -> int:
    """About a millisecond of interpreter-bound work: int arithmetic in a dict.

    It allocates no object the garbage collector tracks, so it neither
    triggers collections in the program's time nor pays for them.
    """
    d = {}
    for i in range(6000):
        k = (i * 7) % 211
        d[k] = d.get(k, 0) + i
    s = 0
    for k in sorted(d):
        s += k * d[k]
    return s


class SpeedProbe:
    """Times `probe_work` every PROBE_INTERVAL_S while a stage runs.

    The machine's speed drifts by tens of percent within seconds to
    minutes on shared hosts.  The probes sample that speed all through the
    stage.  The mean probe rate (probes per second) is the stage's average
    speed, so the stage's time multiplied by it counts the stage's work in
    probes, whatever the speed did meanwhile; a probe slowed by an
    interrupting collection or context switch barely moves that mean.
    Probe time is kept out of the stage's own wall and CPU time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        probe_work()
        self.samples.append((time.perf_counter() - t0, time.process_time() - c0))

    def __enter__(self):
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)
        return False

    def spent(self):
        return sum(w for w, _ in self.samples), sum(c for _, c in self.samples)

    def rate(self, column):
        """Mean probes per second of wall (column 0) or CPU (column 1) time."""
        return statistics.fmean(1 / s[column] for s in self.samples) if self.samples else None


def main(argv) -> int:
    src, workload, stage, seed, workdir, trace_out = argv
    sys.path.insert(0, os.path.abspath(src))
    import schubert
    import schubert.cli

    import tracer as tracing
    import workloads

    here = os.path.dirname(os.path.abspath(schubert.__file__))
    if os.path.commonpath([here, os.path.abspath(src)]) != os.path.abspath(src):
        print(f"schubert imported from {here}, not from {src}", file=sys.stderr)
        return 2
    spec = workloads.spec_of(workload)
    inputs = workloads.PREPARE[spec["kind"]](spec, int(seed), workdir)
    ready = time.perf_counter()
    report = {"ready": ready}
    if stage != "setup":
        execute, after, check = workloads.STAGE_STEPS[(spec["kind"], stage)]
        tracer = None
        if trace_out != "-":
            tracer = tracing.Tracer()
            tracing.install(tracer, schubert)
        gate = workloads.Gate()
        probe = SpeedProbe()
        # traced passes run without probes, which would land in the spans
        with probe if tracer is None else contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                out = execute(schubert, spec, inputs)
            except Exception as exc:  # the pass itself failed: report it, do not crash
                out = None
                gate.check(f"{stage} pass", False, f"raised {type(exc).__name__}: {exc}")
            t1, cpu1 = time.perf_counter(), time.process_time()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_wall, probe_cpu = probe.spent() if tracer is None else (0.0, 0.0)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracing.layer_metrics(tracer)
            tracer.dump(trace_out)
        if out is not None:
            if after is not None:
                gate.guarded(f"{stage} follow-up", after, schubert, spec, inputs, out)
            gate.guarded(f"{stage} gates", check, spec, inputs, out, gate)
        report.update(
            wall_s=t1 - t0 - probe_wall,
            cpu_s=cpu1 - cpu0 - probe_cpu,
            rss_mb=rss_mb,
            probe_rate=probe.rate(0),
            probe_cpu_rate=probe.rate(1),
            attempted=gate.attempted,
            failures=gate.failures,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
