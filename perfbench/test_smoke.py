"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with either of

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that each workload prints its own step metrics, that a deliberately wrong
output is counted as failed and raises ``error_rate``, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload metrics printed before the result line, beyond the gated ones.
STEP_METRICS = {
    "nn-cli": {"deal_s_p50": "s", "deal_s_tail": "s", "recover_s_p50": "s",
               "recover_s_tail": "s", "secrets_per_s": "1/s", "open_bytes_per_bit": "B/bit",
               "leak_advantage": "ratio"},
    "tn-stream": {"deal_s_p50": "s", "deal_s_tail": "s", "recover_s_p50": "s",
                  "recover_s_tail": "s", "secrets_per_s": "1/s", "letters_per_bit": "letters/bit",
                  "leak_advantage": "ratio"},
    "break": {"break_s_p50": "s", "break_s_tail": "s", "breaks_per_s": "1/s",
              "break_ratio": "ratio"},
}
COMMON = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def printed_metrics(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


class SmokeTest(unittest.TestCase):
    def run_workload(self, workload: str, trace: int, *extra: str):
        code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), *extra)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return code, result, printed_metrics(lines)

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in STEP_METRICS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, printed = self.run_workload(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    wanted = {**expected, **COMMON, **STEP_METRICS[workload]}
                    self.assertEqual({k: printed[k][1] for k in wanted}, wanted)
                    self.assertEqual(printed["error_rate"][0], 0.0)

    def test_wrong_output_raises_error_rate(self):
        for workload in STEP_METRICS:
            with self.subTest(workload=workload):
                code, result, printed = self.run_workload(workload, 0, "--inject-wrong-output")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(printed["error_rate"][0], 0.0)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_out" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, lines = bench("--workload", "nn-cli", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
