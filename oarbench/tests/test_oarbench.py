"""Self-tests of the oarbench benchmark.

Run from the repository root:

    python3 -m unittest discover -s oarbench/tests -v

They build the benchmark through run.py (first call: about a minute), then
check that inputs are a pure function of the seed, that a tiny pass of
every workload runs every output check and prints every metric name, and
that the traced run writes a followable chrome trace.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ["serve", "search", "train", "chip"]

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def run(*args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=REPO,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


def provenance(lines):
    return json.loads(lines[-2][len("provenance: "):])


def digest(workload, seed):
    code, lines = run("--workload", workload, "--seed", str(seed), "--digest")
    assert code == 0, lines
    return json.loads(lines[-1])["inputs_digest"]


class InputsDigest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = digest(w, 5)
                self.assertEqual(a, digest(w, 5))
                self.assertNotEqual(a, digest(w, 6))

    def test_held_out_seed_is_accepted(self):
        self.assertNotEqual(digest("train", "heldout"), digest("train", 5))


class TinyPass(unittest.TestCase):
    def test_every_workload_checks_outputs_and_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run("--workload", w, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--size", "tiny")
                r = result(lines)
                self.assertEqual(code, 0, lines[-2:])
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(list(r["metrics"]), END_TO_END)
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0.0, name)
                p = provenance(lines)
                self.assertEqual(p["problems"], [])
                self.assertLessEqual(p["os_threads_peak"], p["os_threads_allowed"])
                self.assertLessEqual(p["threads"], 4)
                self.assertEqual(len(p["setup_s_samples"]), 2)  # tiny size: two set-ups
                self.assertIn("percentile", p["tail_ms"])

    def test_serve_hits_equal_scheduled_repeats(self):
        code, lines = run("--workload", "serve", "--seed", "4", "--seconds", "1",
                          "--trace", "0", "--size", "tiny")
        self.assertEqual(code, 0)
        d = provenance(lines)["workload_detail"]
        self.assertGreater(d["scheduled_repeats"], 0)
        self.assertEqual(d["cache_hits"], d["scheduled_repeats"])

    def test_deterministic_quality_repeats_exactly(self):
        for w in ["serve", "train", "chip"]:
            with self.subTest(workload=w):
                args = ("--workload", w, "--seed", "8", "--seconds", "1", "--trace", "0",
                        "--size", "tiny")
                q = [result(run(*args)[1])["metrics"]["quality"]["value"] for _ in range(2)]
                self.assertEqual(q[0], q[1])

    def test_chip_that_does_not_converge_is_a_failed_op_not_a_wrong_answer(self):
        # Seed 33's chip 73 meets the chip router's negotiation deadlock
        # (NOTES.md, chip): truthfully reported overflow, so the run stays
        # correct and the chip counts in `failed`.
        code, lines = run("--workload", "chip", "--seed", "33", "--seconds", "24",
                          "--trace", "0")
        r = result(lines)
        self.assertEqual(code, 0, lines[-2:])
        self.assertTrue(r["correct"])
        stuck = provenance(lines)["workload_detail"]["not_converged_chips"]
        self.assertEqual(r["failed"], len(stuck))
        self.assertAlmostEqual(r["metrics"]["ok_frac"]["value"],
                               1.0 - r["failed"] / r["attempted"])


class TracedRun(unittest.TestCase):
    def test_traced_run_gives_every_layer_metric_and_a_chrome_trace(self):
        code, lines = run("--workload", "serve", "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--size", "tiny")
        r = result(lines)
        self.assertEqual(code, 0, lines[-2:])
        self.assertTrue(r["correct"])
        self.assertEqual(sorted(r["metrics"]), sorted(PER_LAYER))
        p = provenance(lines)
        path = p["chrome_trace"]
        if not os.path.isabs(path):
            path = os.path.join(REPO, path)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for span in ["serve.request", "serve.queue", "nn.infer_batch", "search.route",
                     "mcts.run", "core.final_build", "rl.train_step", "chip.route"]:
            self.assertIn(span, names)
        # One serve request and one search episode can be followed by id.
        request = [e for e in events if e["args"]["id"] == 0 and
                   e["name"].startswith("serve.")]
        self.assertGreaterEqual(len(request), 3)
        episode = [e for e in events if e["name"] == "mcts.run"][0]
        children = [e for e in events if e["args"]["parent"] == episode["args"]["span"]]
        self.assertTrue(any(c["name"] == "core.final_build" for c in children))

    def test_counts_of_deterministic_passes_repeat_exactly(self):
        exact = ["experience.hit_frac", "nn.int8_forward_frac", "chip.iterations_per_op",
                 "chip.reroutes_per_op", "chip.iter0_overflow",
                 "route.adjacency_rebuilds_per_op"]
        args = ("--workload", "chip", "--seed", "5", "--seconds", "1", "--trace", "1",
                "--size", "tiny")
        first, second = (result(run(*args)[1])["metrics"] for _ in range(2))
        for name in exact:
            self.assertEqual(first[name]["value"], second[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
