"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

* runs every workload kind at toy size (F4/P1 presentation, F4/P1 Gysin
  table, F4/T CLI) through the same worker interpreters as the benchmark,
  untraced and traced, and requires every gate to pass;
* corrupts each reference in turn and requires the matching gate to fail;
* runs the launcher in a directory holding only BENCHMARK.json and the
  benchmark's files, where it must exit nonzero without printing a result;
* checks that BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import schubert  # noqa: E402
import schubert.cli  # noqa: E402


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def run_stages(name, seed=3):
    """Run a toy workload in-process; returns {stage: (gate, inputs, out)}."""
    spec = workloads.TOY_SPECS[name]
    workdir = run.WORK / f"selftest-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.PREPARE[spec["kind"]](spec, seed, str(workdir))
        gates = {}
        for stage in workloads.STAGES[spec["kind"]]:
            execute, after, check = workloads.STAGE_STEPS[(spec["kind"], stage)]
            out = execute(schubert, spec, inputs)
            gate = workloads.Gate()
            if after is not None:
                gate.guarded("follow-up", after, schubert, spec, inputs, out)
            gate.guarded("gates", check, spec, inputs, out, gate)
            gates[stage] = (gate, inputs, out)
        return gates
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def failed(gate, fragment):
    return any(fragment in f for f in gate.failures)


class ToyWorkloads(unittest.TestCase):
    def test_every_kind_passes_untraced_and_traced(self):
        for name in workloads.TOY_SPECS:
            runner = run.Runner(name, seed=5)
            try:
                for k, traced in enumerate((False, True)):
                    p = runner.one_pass(k, traced)
                    self.assertGreater(p["attempted"], 0, name)
                    self.assertEqual(p["failures"], [], name)
                    if not traced:
                        self.assertGreater(p["wall_norm"], 0, name)
                    if traced:
                        self.assertEqual(sorted(p["layers"]), sorted(
                            run.PER_LAYER_TRACED + ["cli.cold.triangular.evaluate_exponents.calls"]))
            finally:
                shutil.rmtree(runner.work, ignore_errors=True)

    def test_trace_splits_the_toy_workloads(self):
        p = run.Runner("cli", seed=5)
        try:
            layers = p.one_pass(0, True)["layers"]
        finally:
            shutil.rmtree(p.work, ignore_errors=True)
        self.assertEqual(layers["cli.cold.triangular.evaluate_exponents.calls"], 0)
        self.assertGreater(layers["weyl.cache_read.self_s"], 0)
        self.assertGreater(layers["weyl.cache_bytes"], 0)
        self.assertEqual(layers["weyl.elements"], 2 * 1152)


class CorruptedReferences(unittest.TestCase):
    def test_presentation_gates(self):
        key = ("F4", (1,))
        good = reference.PUBLISHED[key]
        bad_rel = dict(good, relations=["2*y3 - w1^3", "2*y6 + y3^2 - w1^2*y4"] + good["relations"][2:])
        with patched(reference, "PUBLISHED", {**reference.PUBLISHED, key: bad_rel}):
            gate = run_stages("presentation")["main"][0]
        self.assertTrue(failed(gate, "published relation in computed ideal: 2*y6"), gate.failures)
        self.assertTrue(failed(gate, "seeded probe"), gate.failures)
        missing = dict(good, relations=good["relations"][:3])
        with patched(reference, "PUBLISHED", {**reference.PUBLISHED, key: missing}):
            gate = run_stages("presentation")["main"][0]
        self.assertTrue(failed(gate, "computed relation 4 in published ideal"), gate.failures)
        w = good["words"]
        bad_word = dict(good, words={"w1": w["w1"], "y4": w["y4"], "y3": w["y3"], "y6": w["y6"]})
        with patched(reference, "PUBLISHED", {**reference.PUBLISHED, key: bad_word}):
            gate = run_stages("presentation")["main"][0]
        self.assertTrue(failed(gate, "generator names and degrees"), gate.failures)
        with patched(reference.RootSystem, "is_reduced", lambda self, w: False):
            gate = run_stages("presentation")["main"][0]
        self.assertTrue(failed(gate, "generator words"), gate.failures)
        bad_deg = dict(good, relation_degrees=(3, 6, 8, 11))
        with patched(reference, "PUBLISHED", {**reference.PUBLISHED, key: bad_deg}):
            gate = run_stages("presentation")["main"][0]
        self.assertTrue(failed(gate, "relation degrees"), gate.failures)

    def test_gysin_gates(self):
        real = reference.RootSystem.chevalley_column

        def off_by_one(self, word, i):
            col = real(self, word, i)
            if len(word) == 7 and col:
                k = next(iter(col))
                col[k] += 1
            return col

        with patched(reference.RootSystem, "chevalley_column", off_by_one):
            gate = run_stages("gysin")["main"][0]
        self.assertEqual([f for f in gate.failures if "against Chevalley" in f],
                         ["A_7 against Chevalley: entries differ from Chevalley's formula"])
        with patched(reference, "smith_invariants", lambda m, n: (99, ())):
            gate = run_stages("gysin")["main"][0]
        self.assertTrue(failed(gate, "groups of degree"), gate.failures)
        with patched(reference, "LEVI_DEGREES", {("F4", (1,)): (2, 3, 4)}):
            gate = run_stages("gysin")["main"][0]
        self.assertTrue(failed(gate, "level sizes"), gate.failures)
        with patched(reference.RootSystem, "is_minimal_rep", lambda self, w, K: len(w) < 9):
            gate = run_stages("gysin")["main"][0]
        self.assertEqual(gate.failures, ["representatives: 10 bad words, 0 repeats"])

    def test_cli_gates(self):
        with patched(reference, "WEYL_DEGREES", {**reference.WEYL_DEGREES, "F4": (2, 6, 8, 10)}):
            gate = run_stages("cli")["cold"][0]
        self.assertTrue(failed(gate, "level sizes"), gate.failures)
        self.assertTrue(failed(gate, "count"), gate.failures)
        with patched(reference.RootSystem, "is_reduced", lambda self, w: len(w) < 20):
            gate = run_stages("cli")["cold"][0]
        self.assertTrue(failed(gate, "sampled words"), gate.failures)
        real = reference.RootSystem.chevalley_product
        with patched(reference.RootSystem, "chevalley_product",
                     lambda self, w, i: {k: 2 * v for k, v in real(self, w, i).items()}):
            gate = run_stages("cli")["warm"][0]
        self.assertTrue(failed(gate, "product against Chevalley"), gate.failures)

    def test_cli_byte_identity_gate(self):
        spec = workloads.TOY_SPECS["cli"]
        gates = run_stages("cli")
        _, inputs, out = gates["warm"]
        workdir = run.WORK / "selftest-bytes"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            path = workdir / "uncached.json"
            path.write_text(out["text"].replace('"coeff": 1', '"coeff": 2', 1) + " ")
            gate = workloads.Gate()
            workloads.STAGE_STEPS[("cli", "warm")][2](
                spec, dict(inputs, uncached_path=str(path)), out, gate)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertTrue(failed(gate, "warm output equals uncached output"), gate.failures)

    def test_raising_gate_counts_as_one_failure(self):
        spec = workloads.TOY_SPECS["cli"]
        inputs = workloads.PREPARE["cli"](spec, 1, str(run.WORK / "selftest-missing"))
        gate = workloads.Gate()
        gate.guarded("gates", workloads.STAGE_STEPS[("cli", "warm")][2], spec, inputs,
                     {"status": 0, "text": "{}"}, gate)
        self.assertEqual(len(gate.failures), 1)


class Launcher(unittest.TestCase):
    def test_without_source_tree_it_exits_nonzero_without_result(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "e7p2-gysin",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_benchmark_json_names_the_printed_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(bench["command"], ["python3", f"{HERE.name}/run.py"])
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [m["name"] for m in bench["per_layer"]], run.PER_LAYER_TRACED + run.PER_LAYER_EXTRA)
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(workloads.SPECS))


if __name__ == "__main__":
    unittest.main()
