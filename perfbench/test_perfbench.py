"""Self-tests for the benchmark's tracer and workloads.

Run from the repository root::

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_nested_spans(self):
        # root [0, 10] holds a [1, 5] (which holds a1 [2, 3]) and b [6, 9].
        parents = [-1, 0, 1, 0]
        durations = [10.0, 4.0, 1.0, 3.0]
        self.assertEqual(tracer.self_times(parents, durations), [3.0, 3.0, 1.0, 3.0])

    def test_self_times_of_real_spans_add_up_to_the_root(self):
        bf = run.import_fresh()
        g = bf.graph.Multigraph(3, (bf.graph.Edge("a", 0, 1, 1), bf.graph.Edge("b", 1, 2, 1)))
        with tracer.Tracer(run.PACKAGE) as probe:
            self.assertTrue(bf.graph.is_connected(g))
        table = probe.summary()
        for name in ("graph.is_connected", "graph.component_count", "graph.components"):
            self.assertEqual(table[name]["calls"], 1)
        root = table["graph.is_connected"]["total_s"]
        self.assertAlmostEqual(sum(row["self_s"] for row in table.values()), root, delta=1e-9)
        self.assertEqual(tracer.module_totals(table)["graph"]["calls"], 3)


class CorrectionTest(unittest.TestCase):
    def test_times_scale_with_the_reference_slices_around_them(self):
        ref = workloads.REFERENCE_S
        steady = workloads.Pass(op_s=[1.0, 2.0, 3.0], ref_s=[ref] * 3)
        self.assertEqual(run.corrected(steady), [1.0, 2.0, 3.0])
        slowed = workloads.Pass(op_s=[2.0] * 100, ref_s=[ref] * 50 + [2 * ref] * 50)
        times = run.corrected(slowed)
        self.assertEqual((times[0], times[-1]), (2.0, 1.0))

    def test_operation_medians_skip_incomplete_passes(self):
        self.assertEqual(run.op_medians([[1.0, 4.0], [3.0, 2.0], [9.0], [2.0, 3.0]]), [2.0, 3.0])


class BindingTest(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        bf = run.import_fresh()
        contract_bindings = [bf, bf.graph, bf.adjudicator, bf.reconnect, bf.cli]
        originals = [m.contract for m in contract_bindings]
        post_init = bf.graph.Multigraph.__post_init__
        self.assertEqual(len({id(f) for f in originals}), 1)
        base = bf.graph.Multigraph(2, ())
        with tracer.Tracer(run.PACKAGE) as probe:
            for module in contract_bindings:
                self.assertIsNot(module.contract, originals[0])
                module.contract(base, ())
            self.assertIs(bf.adjudicator.buster_wins, bf.engine.buster_wins)
            self.assertTrue(hasattr(bf.adjudicator.buster_wins, tracer.ORIGINAL))
        self.assertEqual(probe.summary()["graph.contract"]["calls"], len(contract_bindings))
        self.assertEqual(tracer.installed_wrappers(run.PACKAGE), [])
        for module in contract_bindings:
            self.assertIs(module.contract, originals[0])
        self.assertIs(bf.graph.Multigraph.__post_init__, post_init)
        self.assertFalse(hasattr(bf.adjudicator.buster_wins, tracer.ORIGINAL))


class RepeatTest(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_layer_counts_repeat_for_a_fixed_seed(self):
        small = [workloads.Sweep(stride=400), workloads.Engine(count=40), workloads.Verify(self.workdir, count=40)]
        for workload in small:
            with self.subTest(workload=workload.name):
                bf = run.import_fresh()
                inputs = workload.build(bf, 5)
                expected = workload.expect(bf, inputs)
                counts = []
                for _ in range(2):
                    probe, done = run.traced_pass(workload, bf, inputs)
                    self.assertEqual(workload.check(bf, inputs, expected, done), 0, done.error)
                    metrics = run.layer_metrics(probe.summary(), probe.observed, 1, 1, 1.0)
                    counts.append({k: v["value"] for k, v in metrics.items() if not k.endswith("_s")})
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["graph.multigraph_built"], 0)
                if workload.name == "engine":
                    self.assertEqual(counts[0]["adjudicator.calls"], 0)
                else:
                    self.assertGreater(counts[0]["adjudicator.verify_calls"], 0)

    def test_inputs_repeat_for_a_fixed_seed(self):
        bf = run.import_fresh()
        engine = workloads.Engine(count=20)
        self.assertEqual(engine.build(bf, 3), engine.build(bf, 3))
        self.assertNotEqual(engine.build(bf, 3), engine.build(bf, 4))


class MissingSourceTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result_when_src_is_missing(self):
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(HERE, Path(root) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1", "--seconds", "1"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
