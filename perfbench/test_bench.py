"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/test_bench.py        (or: python3 -m pytest perfbench)

It runs run.py as the benchmark's caller does, both with tracing off and
on, and checks the result line against BENCHMARK.json, the determinism of
traced counters and report digests, the reference evaluator, and that
the benchmark refuses to run without skic's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import skiref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}-tiny.json").read_text())


class WorkloadRuns(unittest.TestCase):
    def check_result(self, result: dict, spec_metrics: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_untraced_and_traced(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            with self.subTest(workload=name):
                self.check_result(result_line(run_bench(name, 0)), SPEC["end_to_end"])
                self.check_result(result_line(run_bench(name, 1)), SPEC["per_layer"])
                first = record(name, 5, 1)
                result_line(run_bench(name, 1))
                second = record(name, 5, 1)
                # counters and outputs repeat exactly; only times may differ
                self.assertEqual(first["counters"], second["counters"])
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["digest"], first["plain_digest"])
                self.assertEqual(first["digest"], record(name, 5, 0)["digest"])
                self.assertEqual(first["gael_tokens"], record(name, 5, 0)["gael_tokens"])
                # the check's explain round trip runs through the wrapped functions
                self.assertGreater(first["metrics"]["explainer.roundtrip_s"]["value"], 0)
                self.assertGreater(first["counters"]["explainer.parse.calls"], 0)
                self.assertNotIn("explainer.parse_explanation", first["trace"]["unfired_hooks"])

    def test_refuses_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_bench("corpus_mix", 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Generators(unittest.TestCase):
    def test_seeded_and_distinct(self):
        for workload in workloads.WORKLOADS.values():
            a = workloads.ProgramStream(workload, 11, ROOT, tiny=True)
            b = workloads.ProgramStream(workload, 11, ROOT, tiny=True)
            first = [p.source for _ in range(3) for p in a.next_round()]
            self.assertEqual(first, [p.source for _ in range(3) for p in b.next_round()])
            self.assertEqual(len(first), len(set(first)))

    def test_expected_values_match_hand_written_gael(self):
        # l0 := \\x. #add x 3;  d1 := \\x. #mul (l0 x) 2;  \\y. d1 y
        x, y = ("var", "x"), ("var", "y")
        defs = [("l0", ("lam", ("x",), ("prim", "add", (x, ("int", 3))))),
                ("d1", ("lam", ("x",), ("prim", "mul", (("call", "l0", (x,)), ("int", 2)))))]
        main = ("lam", ("y",), ("call", "d1", (y,)))
        prog = workloads.make_program("c", defs, main, 1, random.Random(3), group=2)
        self.assertEqual(prog.source, "l0 := \\x. #add x 3;\nd1 := \\x. #mul (l0 x) 2;\n\\y. d1 y\n")
        self.assertTrue(prog.expected)
        for (arg,), value in prog.expected:
            self.assertEqual(value, (arg + 3) * 2)
        gael = "l0 := S #add (K 3);\nd1 := S (S (K #mul) l0) (K 2);\nS (K d1) I"
        self.assertEqual(skiref.check_program(gael, prog.expected), [])
        wrong = gael.replace("#mul", "#sub")
        self.assertEqual(len(skiref.check_program(wrong, prog.expected)), len(prog.expected))

    def test_corpus_mix_rounds_follow_the_corpus(self):
        corpus = workloads.bundled_corpus(ROOT)
        shapes = workloads.corpus_shapes(corpus)
        self.assertEqual(len(shapes), len(corpus) + len(workloads.EXTRA_CORPUS_SHAPES))
        sources = {p.pid: p.source for p in corpus}
        self.assertEqual(workloads.program_shape(sources["01_identity"]), (1, 0))
        self.assertEqual(workloads.program_shape(sources["10_twice_inc"]), (1, 1))
        self.assertEqual(workloads.program_shape(sources["11_mul_add"]), (3, 0))
        self.assertEqual(workloads.program_shape(sources["19_ski_classic"]), (0, 2))


class Passes(unittest.TestCase):
    def test_merge_passes(self):
        import run

        def one(latencies, reference_s, rss):
            return {"latencies": latencies, "reference_s": reference_s, "attempted": len(latencies),
                    "failed": 0, "failures": [], "peak_rss_mb": rss, "gael_tokens": 7, "digest": "d"}

        # the second pass ran on a host half as fast: seconds double, relative cost stays
        merged = run.merge_passes([one([1.0, 4.0], 0.5, 30.0), one([2.0, 8.0], 1.0, 31.0), one([1.5, 5.0], 0.5, 32.0)])
        self.assertEqual(merged["latencies"], [1.0, 4.0])
        self.assertEqual(merged["relative"], [2.0, 8.0])
        self.assertEqual((merged["programs"], merged["passes"], merged["attempted"]), (2, 3, 6))
        self.assertEqual(merged["peak_rss_mb"], 31.0)
        self.assertTrue(merged["same_outputs"])
        self.assertFalse(run.merge_passes([one([1.0], 1.0, 1.0), {**one([1.0], 1.0, 1.0), "digest": "e"}])["same_outputs"])

    def test_reference_computation(self):
        import worker

        self.assertEqual(skiref.check_program(worker.REFERENCE_GAEL, worker.REFERENCE_EXPECTED), [])
        self.assertGreaterEqual(sum(worker.reference_times(0.05)), 0.005)


class ReferenceEvaluator(unittest.TestCase):
    def test_reduces_emitted_gael(self):
        text = "inc := S #addZ (K 1);\nS (K inc) inc"
        self.assertEqual(skiref.check_program(text, [((4,), 6), ((-3,), -1)]), [])
        self.assertEqual(len(skiref.check_program(text, [((4,), 7)])), 1)
        self.assertEqual(skiref.check_program("S (S (S (K #if) (S #eq (K 0))) (K 1)) (K 0)",
                                              [((0,), 1), ((2,), 0)]), [])
        self.assertEqual(skiref.check_program("#eq 2", [((2,), True), ((3,), False)]), [])

    def test_reports_non_values(self):
        problems = skiref.check_program("K", [((1,), 1)])
        self.assertIn("not an integer", problems[0])


if __name__ == "__main__":
    unittest.main()
