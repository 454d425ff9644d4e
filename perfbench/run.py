"""Benchmark of the schubert package: timed workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.SPECS and BENCHMARK.json):

    e6p2-presentation   E6/P2 coset table, minimal generators, minimal
                        relations through level 21
    e7p2-gysin          E7/P2 coset table and the Gysin table through level 20
    cli-e6t-cache       the CLI on E6/T: `enumerate` into an empty cache
                        directory (cold), then `multiply` from it (warm)

Every pass runs in fresh single-threaded interpreters, one at a time, with
the package imported from ../src relative to this file (never from an
installation or PYTHONPATH).  Passes repeat while another one fits in S
seconds; at least one always runs.  Each stage's outputs go through the
gates in workloads.py before the next pass starts.

With --trace 0 the last line of standard output carries the end-to-end
metrics: medians over the passes of the pass time and CPU time in units
of the speed probe, of the peak RSS, and of the set-up time in seconds
(also over extra set-up-only interpreters).  With --trace 1 untraced and
traced passes alternate; the traced ones wrap each module's public
functions (tracer.py) and give the per-layer metrics, the untraced ones
give trace.overhead_s.  The line before the last one records the machine
(Python version, nproc, git SHA, load average before and after), the
pass times in seconds and the failed share.  The exit status is
0 when every gate passed, 1 when one failed, 2 when the benchmark could not
run (no source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark module next to this file)

# Times are reported in units of the worker's speed probe (see
# worker.SpeedProbe): on a shared host the probe slows down with the
# program, so the ratio stays put while the seconds drift.  The seconds
# themselves are on the line before the result.
END_TO_END = {
    "time_to_result_norm": "probe",
    "cpu_norm": "probe",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_TRACED = [
    "weyl.enumerate_cosets.self_s",
    "weyl.elements",
    "weyl.cache_write.self_s",
    "weyl.cache_read.self_s",
    "weyl.from_word.calls",
    "weyl.cache_bytes",
    "triangular.evaluate_exponents.self_s",
    "triangular.evaluate_exponents.calls",
    "triangular.evaluate_exponents.terms_in",
    "triangular.evaluate_exponents.size_sum",
    "characteristics.expand_pair.self_s",
    "characteristics.expand_pair.calls",
    "characteristics.expand_pair.distinct",
    "characteristics.degree1.self_s",
    "characteristics.degree1.calls",
    "characteristics.expand_class_monomial.calls",
    "characteristics.expand_class_monomial.distinct",
    "characteristics.expand_product.self_s",
    "intlinalg.hermite.self_s",
    "intlinalg.smith.self_s",
    "intlinalg.solve.self_s",
    "intlinalg.lattice.self_s",
    "intlinalg.lattice.adds",
    "intlinalg.entries_in",
    "intpoly.self_s",
    "cohomology.minimal_generators.s",
    "cohomology.minimal_relations.s",
    "cohomology.gysin_analysis.s",
    "cohomology.self_s",
    "cli.load_table.s",
    "cli.self_s",
]
# Figures of the trace run that come from its untraced passes or from one
# stage: the CLI's cold and warm pass times, the operator calls of the cold
# pass alone, and the tracing overhead.
PER_LAYER_EXTRA = [
    "cli.cold_s",
    "cli.warm_s",
    "cli.cold.triangular.evaluate_exponents.calls",
    "trace.overhead_s",
]
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # every child has ended this long after start


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


class ChildFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.kind = workloads.spec_of(workload)["kind"]
        self.deadline = time.perf_counter() + DEADLINE_S
        self.work = WORK / f"run-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "SCHUBERT_CACHE_DIR")}

    def spawn(self, stage, workdir, trace_out="-"):
        """Run one worker interpreter to completion and parse its report."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise ChildFailed(f"{stage}: no time left before the deadline")
        cmd = [sys.executable, str(WORKER), str(SRC), self.workload, stage,
               str(self.seed), str(workdir), str(trace_out)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{stage}: timed out") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise ChildFailed(f"{stage}: exit status {proc.returncode}: {' | '.join(tail)}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        return report

    def setup_only(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self.spawn("setup", self.work)["setup_s"]

    def one_pass(self, k: int, traced: bool):
        """All stages of one pass; its directory is removed afterwards."""
        workdir = self.work / f"pass{k}"
        workdir.mkdir(parents=True)
        reports = {}
        try:
            for stage in workloads.STAGES[self.kind]:
                out = "-"
                if traced:
                    out = WORK / "traces" / f"{self.workload}-seed{self.seed}-pass{k}-{stage}.json"
                reports[stage] = self.spawn(stage, workdir, out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rs = list(reports.values())
        result = {
            "traced": traced,
            "wall_s": sum(r["wall_s"] for r in rs),
            "cpu_s": sum(r["cpu_s"] for r in rs),
            "wall_norm": 0.0 if traced else sum(r["wall_s"] * r["probe_rate"] for r in rs),
            "cpu_norm": 0.0 if traced else sum(r["cpu_s"] * r["probe_cpu_rate"] for r in rs),
            "rss_mb": max(r["rss_mb"] for r in rs),
            "setups": [r["setup_s"] for r in rs],
            "attempted": sum(r["attempted"] for r in rs),
            "failures": [f for r in rs for f in r["failures"]],
            "stage_wall_s": {s: r["wall_s"] for s, r in reports.items()},
        }
        if traced:
            layers = {name: 0 for name in PER_LAYER_TRACED}
            for r in rs:
                for name, value in r["layers"].items():
                    layers[name] += value
            cold = reports.get("cold")
            layers["cli.cold.triangular.evaluate_exponents.calls"] = (
                cold["layers"]["triangular.evaluate_exponents.calls"] if cold else 0)
            result["layers"] = layers
        return result


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its worker (subprocess.run
    # does so when the wait is interrupted) and removes its directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "schubert" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'schubert'}", file=sys.stderr)
        return 2

    stamp = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "loadavg_before": list(os.getloadavg()),
    }
    runner = Runner(args.workload, args.seed)
    passes, setups, errors = [], [], []
    try:
        for _ in range(SETUP_SAMPLES):
            setups.append(runner.setup_only())
        cycle = [False, True] if args.trace else [False]
        t_start = time.perf_counter()
        longest = 0.0
        while True:
            c0 = time.perf_counter()
            for traced in cycle:
                passes.append(runner.one_pass(len(passes), traced))
            now = time.perf_counter()
            longest = max(longest, now - c0)
            if any(p["failures"] for p in passes):
                break
            if now - t_start + longest > args.seconds or now + longest > runner.deadline - 5:
                break
    except ChildFailed as exc:
        errors.append(str(exc))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups += [s for p in passes for s in p["setups"]]
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failures = [f for p in passes for f in p["failures"]] + errors
    if args.trace:
        metrics = {
            name: median([p["layers"][name] for p in traced])
            for name in PER_LAYER_TRACED + ["cli.cold.triangular.evaluate_exponents.calls"]
        }
        metrics["cli.cold_s"] = median([p["stage_wall_s"].get("cold", 0.0) for p in plain])
        metrics["cli.warm_s"] = median([p["stage_wall_s"].get("warm", 0.0) for p in plain])
        metrics["trace.overhead_s"] = (
            median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain]))
        names = PER_LAYER_TRACED + PER_LAYER_EXTRA
    else:
        metrics = {
            "time_to_result_norm": median([p["wall_norm"] for p in plain]),
            "cpu_norm": median([p["cpu_norm"] for p in plain]),
            "peak_rss_mb": median([p["rss_mb"] for p in plain]),
            "setup_s": median(setups),
        }
        names = list(END_TO_END)
    stamp["loadavg_after"] = list(os.getloadavg())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp,
        "passes": len(plain),
        "traced_passes": len(traced),
        "time_to_result_s": median([p["wall_s"] for p in plain]),
        "cpu_s": median([p["cpu_s"] for p in plain]),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "pass_wall_norm": [round(p["wall_norm"], 1) for p in plain],
        "stage_wall_s": [p["stage_wall_s"] for p in plain],
        "failed_share": len(failures) / max(1, attempted),
        "failures": failures[:20],
    }
    print(json.dumps(info))
    result = {
        "correct": not failures and bool(plain),
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": END_TO_END.get(name) or unit_of(name)}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
