#!/usr/bin/env python3
"""Smoke test of the FexIoT benchmark: every workload at a tiny size.

Run from anywhere: python3 perfbench/smoke_test.py

For each workload it runs perfbench/run.py --tiny untraced and traced and
asserts that the result line has its required shape, that every
correctness check passed, that every metric of BENCHMARK.json is emitted,
that the run record holds the figures README.md names beside them, that
the layers the workload exercises report non-zero figures, and that the
Chrome trace loads.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                   "perfbench", "out")

# Figures the untraced run must also write to its run record: the quality
# guards (per-layer names) and the figures with no BENCHMARK.json name
# (README.md, "The specified metric names").
RECORDED = {
    "fed_train": ["federated.accuracy", "runtime.uplink_mb",
                  "federated.time_to_acc_s"],
    "fed_fleet": ["federated.accuracy", "runtime.uplink_mb"],
    "serve_stream": ["serve_p99_ms", "serving.generator_lag_ms"],
    "analyze": ["explain.fidelity", "analyze_flagged_share"],
}

COMMON_LAYERS = ["tensor.gemm_gflops", "tensor.spmm_us", "gnn.forward_us",
                 "gnn.backward_us", "gnn.forward_batch_us", "trace.spans"]
FED_LAYERS = COMMON_LAYERS + [
    "graph.corpus_s", "graph.prepare_s", "federated.local_train_p50_ms",
    "federated.local_train_max_ms", "federated.straggler_ratio",
    "federated.accuracy", "runtime.codec_encode_us", "runtime.codec_decode_us",
    "runtime.codec_mb_per_s", "runtime.execute_round_ms",
    "runtime.delivered_ratio", "runtime.uplink_mb", "self.federated_s",
    "self.runtime_s"]
# Per-layer metrics each workload must report as non-zero.
TOUCHED = {
    "fed_train": FED_LAYERS,
    "fed_fleet": FED_LAYERS,
    "serve_stream": COMMON_LAYERS + [
        "serving.ingest_p50_us", "serving.request_call_us",
        "serving.queue_wait_ms", "serving.batch_size_mean", "serving.firings",
        "self.serving_s"],
    "analyze": COMMON_LAYERS + [
        "graph.corpus_s", "graph.prepare_s", "explain.explain_p50_ms",
        "explain.explain_p99_ms", "explain.model_evals", "explain.waves",
        "core.predict_us", "ml.drift_us", "self.explain_s", "self.core_s"],
}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    return done.returncode, done.stdout


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        code, out = run(workload, trace)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        schema = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in schema])
        for m in schema:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result["metrics"]

    def check_workload(self, workload):
        metrics = self.check_result(workload, 0)
        for m in BENCH["end_to_end"]:
            self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
        with open(os.path.join(OUT, f"record-{workload}-trace0.json")) as f:
            record = json.load(f)
        for name in RECORDED[workload]:
            self.assertIn(name, record["values"], name)
        for key in ("host_cores", "kernel_pool_threads"):
            self.assertIn(key, record)

        layers = self.check_result(workload, 1)
        for name in TOUCHED[workload]:
            self.assertNotEqual(layers[name]["value"], 0, name)
        with open(os.path.join(OUT, f"trace-{workload}.json")) as f:
            events = json.load(f)["traceEvents"]
        self.assertGreater(len(events), 0)
        for i, e in enumerate(events):
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            self.assertLess(e["args"]["parent"], i)

    def test_fed_train(self):
        self.check_workload("fed_train")

    def test_fed_fleet(self):
        self.check_workload("fed_fleet")

    def test_serve_stream(self):
        self.check_workload("serve_stream")

    def test_analyze(self):
        self.check_workload("analyze")


if __name__ == "__main__":
    unittest.main()
