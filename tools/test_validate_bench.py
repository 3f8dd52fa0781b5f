#!/usr/bin/env python3
"""Unit tests for the baseline diff in tools/validate_bench.py: the budget
a case gets is the 15 % floor or the baseline's own sample spread, and one
outlier sample must not widen that spread.

Registered in ctest as `tools.validate_bench`.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from validate_bench import baseline_spread, diff_against


def case(name: str, samples: list[float], median: float) -> dict:
    return {
        "name": name,
        "samples_ms": samples,
        "median_ms": median,
        "min_ms": min(samples),
        "max_ms": max(samples),
    }


class BaselineSpreadTest(unittest.TestCase):
    def test_single_outlier_is_dropped(self) -> None:
        base = case("c", [5.7, 5.8, 5.9, 6.0, 13.3], 5.9)
        self.assertAlmostEqual(baseline_spread(base, 5.9), (6.0 - 5.7) / 5.9)

    def test_low_outlier_is_dropped_too(self) -> None:
        base = case("c", [1.0, 5.8, 5.9, 6.0, 6.1], 5.9)
        self.assertAlmostEqual(baseline_spread(base, 5.9), (6.1 - 5.8) / 5.9)

    def test_only_one_sample_is_dropped(self) -> None:
        base = case("c", [3.0, 5.9, 6.0, 6.1, 9.0], 6.0)
        self.assertAlmostEqual(baseline_spread(base, 6.0), (9.0 - 5.9) / 6.0)

    def test_fewer_than_four_samples_keep_min_max(self) -> None:
        base = case("c", [5.7, 5.9, 13.3], 5.9)
        self.assertAlmostEqual(baseline_spread(base, 5.9), (13.3 - 5.7) / 5.9)

    def test_missing_samples_fall_back_to_min_max(self) -> None:
        base = {"median_ms": 2.0, "min_ms": 1.0, "max_ms": 4.0}
        self.assertAlmostEqual(baseline_spread(base, 2.0), 1.5)
        self.assertEqual(baseline_spread({"median_ms": 2.0}, 2.0), 0.0)


class DiffAgainstTest(unittest.TestCase):
    def diff(self, base: dict, new_median: float) -> list[str]:
        new = dict(base, median_ms=new_median)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, entry in (("base", base), ("new", new)):
                path = Path(tmp) / f"{label}.json"
                path.write_text(json.dumps({"cases": [entry]}))
                paths.append(path)
            with redirect_stdout(io.StringIO()):
                return diff_against(paths[0], paths[1])

    def test_outlier_no_longer_switches_the_gate_off(self) -> None:
        base = case("c", [5.7, 5.8, 5.9, 6.0, 13.3], 5.9)
        # +30% was inside the old 131% budget; the 15% floor now applies.
        errors = self.diff(base, 5.9 * 1.30)
        self.assertEqual(len(errors), 1)
        self.assertIn("budget 15%", errors[0])
        self.assertEqual(self.diff(base, 5.9 * 1.10), [])

    def test_genuinely_noisy_baseline_keeps_its_wide_budget(self) -> None:
        base = case("c", [4.0, 5.0, 6.0, 7.0, 8.0], 6.0)
        # 4 and 8 tie as farthest; dropping 4 leaves (8 - 5) / 6 = 50%.
        self.assertEqual(self.diff(base, 6.0 * 1.45), [])
        self.assertEqual(len(self.diff(base, 6.0 * 1.55)), 1)


if __name__ == "__main__":
    unittest.main()
