#!/usr/bin/env python3
"""Validates a droute-bench-v1 JSON report produced by droute::bench.

Schema (emitted by bench/harness.cpp, consumed by the nightly CI bench job):

  * top level: object with schema == "droute-bench-v1", a string `binary`,
    a boolean `quick`, and a non-empty `cases` list;
  * every case: string `name` (unique within the file) and non-empty string
    `unit`; integer `warmup` >= 0 and `repeats` >= 1; `samples_ms` a list of
    exactly `repeats` non-negative finite numbers;
  * summary stats `median_ms` / `p95_ms` / `mean_ms` / `min_ms` / `max_ms`
    finite, with min <= median <= p95 <= max and all of them inside the
    sample range;
  * `events` >= 0 and `events_per_sec` >= 0 (0 when events is 0);
  * `extras` an object mapping string keys to finite numbers.

Usage: tools/validate_bench.py [--against BASELINE.json] <BENCH_*.json>...
Exits non-zero iff any report is invalid; prints a summary line per file.

With --against, every report is additionally diffed case-by-case against
the committed baseline (bench/baselines/): a case regresses when its
median exceeds the baseline median by more than the regression budget —
15 %, widened to the baseline's own relative sample spread when that is
larger, so a case whose baseline run was noisy does not gate on noise.
The spread ignores the one sample farthest from the median when there are
four or more, so a single outlier cannot switch a gate off.
A case present in the baseline but missing from the new report is an
error (a silently dropped benchmark is how coverage rots); a new case
absent from the baseline is reported informationally.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SCHEMA = "droute-bench-v1"
STAT_KEYS = ("median_ms", "p95_ms", "mean_ms", "min_ms", "max_ms")

# A median may drift this much above baseline before the diff fails, unless
# the baseline's own samples spread wider (then the spread is the budget).
REGRESSION_BUDGET = 0.15


def finite_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_case(case: object, where: str, errors: list[str]) -> str | None:
    """Appends errors for one case entry; returns its name when present."""
    if not isinstance(case, dict):
        errors.append(f"{where}: case must be an object")
        return None
    name = case.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: missing case name")
        name = None
    else:
        where = f"{where} ({name})"
    unit = case.get("unit")
    if not isinstance(unit, str) or not unit:
        errors.append(f"{where}: unit must be a non-empty string")

    warmup = case.get("warmup")
    repeats = case.get("repeats")
    if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
        errors.append(f"{where}: warmup must be an integer >= 0")
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        errors.append(f"{where}: repeats must be an integer >= 1")
        repeats = None

    samples = case.get("samples_ms")
    if not isinstance(samples, list) or not all(
        finite_number(s) and s >= 0 for s in samples
    ):
        errors.append(f"{where}: samples_ms must list non-negative numbers")
        samples = None
    elif repeats is not None and len(samples) != repeats:
        errors.append(
            f"{where}: {len(samples)} sample(s) but repeats={repeats}"
        )

    stats = {}
    for key in STAT_KEYS:
        value = case.get(key)
        if not finite_number(value):
            errors.append(f"{where}: {key} must be a finite number")
        else:
            stats[key] = value
    if len(stats) == len(STAT_KEYS):
        ordered = (
            stats["min_ms"] <= stats["median_ms"] <= stats["p95_ms"]
            <= stats["max_ms"]
        )
        if not ordered:
            errors.append(f"{where}: min <= median <= p95 <= max violated")
        if samples:
            if stats["min_ms"] != min(samples) or stats["max_ms"] != max(samples):
                errors.append(f"{where}: min/max do not match samples_ms")

    events = case.get("events")
    rate = case.get("events_per_sec")
    if not finite_number(events) or events < 0:
        errors.append(f"{where}: events must be a number >= 0")
    if not finite_number(rate) or rate < 0:
        errors.append(f"{where}: events_per_sec must be a number >= 0")
    elif finite_number(events) and events == 0 and rate != 0:
        errors.append(f"{where}: events_per_sec nonzero with events == 0")

    extras = case.get("extras")
    if not isinstance(extras, dict) or not all(
        isinstance(k, str) and finite_number(v) for k, v in extras.items()
    ):
        errors.append(f"{where}: extras must map strings to finite numbers")
    return name


def validate(path: Path) -> list[str]:
    errors: list[str] = []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot parse {path}: {exc}"]

    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    if document.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {document.get('schema')!r}")
    if not isinstance(document.get("binary"), str):
        errors.append("binary must be a string")
    if not isinstance(document.get("quick"), bool):
        errors.append("quick must be a boolean")

    cases = document.get("cases")
    if not isinstance(cases, list) or not cases:
        errors.append("cases must be a non-empty list")
        return errors

    seen: set[str] = set()
    for index, case in enumerate(cases):
        name = validate_case(case, f"cases[{index}]", errors)
        if name is not None:
            if name in seen:
                errors.append(f"cases[{index}]: duplicate case name {name!r}")
            seen.add(name)

    if not errors:
        print(f"{path}: OK — {len(cases)} case(s)")
    return errors


def _cases_by_name(path: Path) -> dict[str, dict] | None:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    cases = document.get("cases") if isinstance(document, dict) else None
    if not isinstance(cases, list):
        return None
    return {
        c["name"]: c
        for c in cases
        if isinstance(c, dict) and isinstance(c.get("name"), str)
    }


def baseline_spread(case: dict, median: float) -> float:
    """The baseline case's relative sample spread, (max - min) / median.

    With four or more samples the one farthest from the median is dropped
    first: one 13.3 ms sample among 5.7-6.0 ms ones says the machine
    hiccupped once, not that the case is 131% noisy. With fewer samples the
    recorded min_ms/max_ms are used.
    """
    samples = case.get("samples_ms")
    if (
        isinstance(samples, list)
        and len(samples) >= 4
        and all(finite_number(s) for s in samples)
    ):
        kept = sorted(samples)
        del kept[max(range(len(kept)), key=lambda i: abs(kept[i] - median))]
        return (kept[-1] - kept[0]) / median
    if finite_number(case.get("min_ms")) and finite_number(case.get("max_ms")):
        return (case["max_ms"] - case["min_ms"]) / median
    return 0.0


def diff_against(baseline_path: Path, report_path: Path) -> list[str]:
    """Compares report medians to the committed baseline, case by case."""
    errors: list[str] = []
    baseline = _cases_by_name(baseline_path)
    report = _cases_by_name(report_path)
    if baseline is None:
        return [f"cannot read baseline {baseline_path}"]
    if report is None:
        return [f"cannot read report {report_path}"]

    for name in sorted(baseline):
        base = baseline[name]
        new = report.get(name)
        if new is None:
            errors.append(
                f"case {name!r} is in the baseline but missing from the new "
                "report — a dropped benchmark must be removed from the "
                "baseline explicitly"
            )
            continue
        base_median = base.get("median_ms")
        new_median = new.get("median_ms")
        if not finite_number(base_median) or not finite_number(new_median):
            errors.append(f"case {name!r}: median_ms missing or non-finite")
            continue
        if base_median <= 0:
            print(f"  {name}: baseline median is 0 ms — skipped")
            continue
        regression = (new_median - base_median) / base_median
        # The baseline run's own relative spread is its noise band; a case
        # that jittered 40% when the baseline was recorded cannot be gated
        # at 15%.
        budget = max(REGRESSION_BUDGET, baseline_spread(base, base_median))
        verdict = "OK"
        if regression > budget:
            verdict = "REGRESSED"
            errors.append(
                f"case {name!r}: median {new_median:.6g} ms is "
                f"{regression * 100:+.1f}% vs baseline {base_median:.6g} ms "
                f"(budget {budget * 100:.0f}%)"
            )
        print(
            f"  {name}: {base_median:.6g} -> {new_median:.6g} ms "
            f"({regression * 100:+.1f}%, budget {budget * 100:.0f}%) {verdict}"
        )
    for name in sorted(set(report) - set(baseline)):
        print(f"  {name}: new case, not in baseline (informational)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Validate droute-bench-v1 reports"
    )
    parser.add_argument("reports", nargs="+", metavar="BENCH.json")
    parser.add_argument(
        "--against",
        metavar="BASELINE.json",
        default=None,
        help="also diff each report's medians against this baseline",
    )
    args = parser.parse_args()

    status = 0
    for arg in args.reports:
        errors = validate(Path(arg))
        if not errors and args.against:
            print(f"{arg}: diff against {args.against}")
            errors = diff_against(Path(args.against), Path(arg))
        for error in errors:
            print(f"validate_bench: {arg}: {error}", file=sys.stderr)
        if errors:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
