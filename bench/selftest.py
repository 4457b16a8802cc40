"""Self-test of the benchmark: inputs, known answers and tracer arithmetic.

    python3 bench/selftest.py

Three things are checked, on the smallest sizes so the test takes seconds:

* the same seed gives byte-identical inputs and op lists, and rounds differ
  only in their renaming;
* the known answers hold: the small family members and the goldens run
  through ``mpst.cli.run`` as the worker runs them, and a few random corpus
  files are judged by oracle.py;
* the tracer's self times add up: for every span, self time plus the time its
  children cover is its duration, and the self times of a span's subtree sum
  to the span's duration, on a scripted clock and on real ops.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from mpst import cli  # noqa: E402

SMALL_FILE = re.compile(r"_(cyclic|finite|server|pairs)[12]\.mpst$|_(social_media|buyer_seller|unbounded|mutual_loop|empty)\.mpst$")


def write(inst: workloads.Instance, ops, root: Path) -> None:
    for name, text in inst.files.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "ops.json").write_text(
        json.dumps([{"id": op.id, "file": op.file, "argv": op.argv, "judge": op.expect is None} for op in ops]),
        encoding="utf-8",
    )


def run_and_judge(test: unittest.TestCase, inst: workloads.Instance, ops, root: Path) -> None:
    result = worker.run_ops(cli, [{"id": op.id, "file": op.file, "argv": op.argv} for op in ops], root)
    for op, rec in zip(ops, result["ops"]):
        with test.subTest(file=op.file, argv=op.argv):
            test.assertEqual(rec["status"], "ok", rec["detail"])
            test.assertTrue(workloads.matches(workloads.verdict(json.loads(rec["out"])), op.expect),
                            (rec["out"][:500], op.expect))


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            first = json.dumps(workloads.make(name, 7, 1).to_json(), sort_keys=True)
            second = json.dumps(workloads.make(name, 7, 1).to_json(), sort_keys=True)
            self.assertEqual(first, second, name)

    def test_rounds_differ_only_by_renaming(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.make(name, 7, 0), workloads.make(name, 7, 1)
            self.assertEqual([op.file for op in a.ops], [op.file for op in b.ops])
            self.assertEqual([len(op.argv) for op in a.ops], [len(op.argv) for op in b.ops])
            self.assertNotEqual(a.files, b.files)
            shape = lambda text: re.sub(r"\b[a-z]{5}\b", "x", text)  # noqa: E731
            self.assertEqual([shape(t) for t in a.files.values()], [shape(t) for t in b.files.values()])

    def test_seeds_differ(self):
        self.assertNotEqual(workloads.make("corpus", 1, 0).files, workloads.make("corpus", 2, 0).files)

    def test_no_file_shares_a_name_with_another(self):
        inst = workloads.make("statespace", 3, 0)
        seen: dict[str, str] = {}
        for fname, text in inst.files.items():
            for name in set(re.findall(r"\b[a-z]{5}\b", text)):
                self.assertEqual(seen.setdefault(name, fname), fname, name)


class KnownAnswers(unittest.TestCase):
    def test_families_and_goldens(self):
        for name in workloads.WORKLOADS:
            inst = workloads.make(name, 5, 0)
            ops = [op for op in inst.ops if SMALL_FILE.search(op.file) and op.expect is not None]
            self.assertTrue(ops, name)
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                write(inst, ops, Path(tmp))
                run_and_judge(self, inst, ops, Path(tmp))

    def test_corpus_oracle_agrees(self):
        inst = workloads.make("corpus", 5, 0)
        files = [f for f in inst.files if "_random" in f][:4]
        ops = [op for op in inst.ops if op.file in files and op.argv[0] != "meta"]
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            write(inst, ops, Path(tmp))
            out = subprocess.run([sys.executable, str(HERE / "oracle.py"), tmp], capture_output=True,
                                 text=True, check=True).stdout
            known = {int(k): v for k, v in json.loads(out).items()}
            self.assertEqual(set(known), {op.id for op in ops})
            for op in ops:
                op.expect = known[op.id]
            judged = [op for op in ops if op.expect is not None]
            self.assertGreater(len(judged), len(ops) // 2)
            run_and_judge(self, inst, judged, Path(tmp))


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        t = tracing.Tracer()
        tracing.install(t)
        t.uninstall()
        names = set(tracing.layer_metrics(t)) | {"trace.overhead_share"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class SelfTimes(unittest.TestCase):
    def check_sums(self, t: tracing.Tracer) -> None:
        own, covered = t.self_times()
        subtree = list(own)
        for i in reversed(range(len(t.start))):
            duration = t.end[i] - t.start[i]
            self.assertAlmostEqual(own[i] + covered[i], duration, delta=1e-9)
            self.assertGreaterEqual(own[i], -1e-9)
            if t.parent[i] >= 0:
                subtree[t.parent[i]] += subtree[i]
        for i in range(len(t.start)):
            self.assertAlmostEqual(subtree[i], t.end[i] - t.start[i], delta=1e-6)

    def test_scripted_clock(self):
        # Each span open and close reads the next tick: outer 0-15, inner
        # 1-2 and 3-4, gen resumptions 5-8, 9-12 and 13-14, each of the first
        # two holding an inner call (6-7, 10-11).
        ticks = iter(range(100))
        t = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = t.wrap("inner", lambda: None)

        def gen():
            yield inner()
            yield inner()

        traced_gen = t.wrap("gen", gen)
        t.wrap("outer", lambda: [inner(), inner(), list(traced_gen())])()
        self.check_sums(t)
        s = t.summary()
        self.assertEqual((s["outer.calls"], s["inner.calls"], s["gen.calls"]), (1.0, 4.0, 1.0))
        self.assertEqual((s["outer.self_s"], s["inner.self_s"], s["gen.self_s"]), (6.0, 4.0, 5.0))

    def test_real_ops(self):
        inst = workloads.make("inference", 5, 0)
        ops = [op for op in inst.ops if op.file.endswith(("server2.mpst", "pairs1.mpst"))]
        t = tracing.Tracer()
        tracing.install(t)
        try:
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                write(inst, ops, Path(tmp))
                run_and_judge(self, inst, ops, Path(tmp))
        finally:
            t.uninstall()
        self.assertEqual(cli.run.__module__, "mpst.cli")  # uninstalled
        s = tracing.layer_metrics(t)
        self.assertEqual(s["cli.run.calls"], float(len(ops)))
        self.assertGreater(s["inference.infer.outcomes"], 0)
        self.assertGreater(s["terms.minimize.calls"], 0)
        self.check_sums(t)


if __name__ == "__main__":
    unittest.main()
