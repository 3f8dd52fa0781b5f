#!/usr/bin/env python3
"""droute-analyze: AST-level determinism & coroutine-lifetime analyzer.

Scans src/ (or the given paths) with the rule plugins in rules/ against
the structural model in model.py, optionally augmented with real resolved
types via libclang + compile_commands.json (engine_clang.py).

Exit codes:
    0  clean (every diagnostic waived, no stale waivers)
    1  unwaived diagnostics, stale waivers, or waivers missing a reason
    2  usage / environment error
    3  --engine clang requested but libclang is unavailable

Waivers: `// analyze: allow(<rule>) — reason` on the diagnosed line.
A waiver that suppresses nothing is itself an error (it rotted), and a
waiver without a reason is reported as rule `waiver-missing-reason` — the
policy lives in DESIGN.md §13.

Typical invocations:
    tools/analyze/run.py --root . --compile-commands build/compile_commands.json
    tools/analyze/run.py --engine clang --json report.json   # CI
    tools/analyze/run.py --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import engine_clang  # noqa: E402
from model import build_model, FileModel  # noqa: E402
from rules import AnalysisContext, Diagnostic, all_rules  # noqa: E402

REPORT_SCHEMA = "droute-analyze-v1"
RULE_STALE_WAIVER = "waiver-stale"
RULE_MISSING_REASON = "waiver-missing-reason"

# Subdirectories of the repo scanned by default. tests/ and bench/ are
# intentionally out of the default net for now: the rules encode src/
# contracts (tests exercise rvalue-await edge cases on purpose).
DEFAULT_SCAN_DIRS = ("src",)


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    if paths:
        out: list[Path] = []
        for raw in paths:
            p = Path(raw)
            if not p.is_absolute():
                p = root / p
            if p.is_dir():
                out.extend(sorted(p.rglob("*.h")) + sorted(p.rglob("*.cpp")))
            elif p.exists():
                out.append(p)
            else:
                print(f"analyze: no such path: {raw}", file=sys.stderr)
        return sorted(set(out))
    files: list[Path] = []
    for sub in DEFAULT_SCAN_DIRS:
        base = root / sub
        if base.is_dir():
            files.extend(base.rglob("*.h"))
            files.extend(base.rglob("*.cpp"))
    return sorted(files)


def rel_path(root: Path, path: Path, fixture_mode: bool) -> str:
    """Repo-relative path used for rule scoping. In fixture mode a file
    named fixtures/{good,bad}/<subsystem>__<name>.cpp is scoped as if it
    lived at src/<subsystem>/<name>.cpp, so fixtures can exercise the
    deterministic-subsystem rules without living in src/."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.name
    if fixture_mode and "__" in path.stem:
        subsystem, name = path.stem.split("__", 1)
        return f"src/{subsystem}/{name}{path.suffix}"
    return rel


def analyze(
    root: Path,
    files: list[Path],
    engine: str,
    compile_commands: Path | None,
    fixture_mode: bool = False,
) -> tuple[list[Diagnostic], list[str], str, list[FileModel]]:
    """Returns (diagnostics, warnings, engine_used, models)."""
    warnings: list[str] = []
    engine_used = "syntax"

    clang_ok = False
    if engine in ("auto", "clang"):
        clang_ok, why = engine_clang.available()
        if not clang_ok:
            msg = f"libclang unavailable ({why}); using built-in syntax engine"
            if engine == "clang":
                raise EnvironmentError(msg)
            warnings.append(msg)

    commands: dict[str, list[str]] = {}
    if clang_ok and compile_commands is not None and compile_commands.exists():
        commands = engine_clang.load_compile_commands(compile_commands)
    default_args = ["-std=c++20", f"-I{root / 'src'}"]

    # Pass 1: build every model (and augment with resolved types).
    models: list[FileModel] = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            warnings.append(f"{path}: unreadable: {exc}")
            continue
        model = build_model(path, rel_path(root, path, fixture_mode), text)
        if clang_ok:
            args = commands.get(str(path.resolve()), default_args)
            warnings.extend(engine_clang.augment_model(model, args, []))
            engine_used = "clang"
        models.append(model)

    # Cross-file context: task-returning functions and unordered members
    # are declared in headers but used in .cpp files.
    ctx = AnalysisContext.from_models(models)

    # Pass 2: run the rules, apply waivers, then report waiver hygiene.
    rules = [rule_cls() for rule_cls in all_rules()]
    diagnostics: list[Diagnostic] = []
    for model in models:
        for rule in rules:
            for diag in rule.check(model, ctx):
                if model.waivers.allows(diag.line, diag.rule):
                    waiver = model.waivers.get(diag.line, diag.rule)
                    diag.waived = True
                    diag.waiver_reason = waiver.reason if waiver else ""
                diagnostics.append(diag)
        for waiver in model.waivers.stale():
            diagnostics.append(
                Diagnostic(
                    file=model.rel,
                    line=waiver.line_no,
                    rule=RULE_STALE_WAIVER,
                    message=(
                        f"waiver `analyze: allow({waiver.rule})` suppresses "
                        "nothing — the violation moved or was fixed; delete "
                        "the marker"
                    ),
                )
            )
        for waiver in model.waivers.missing_reason():
            if not waiver.used:
                continue  # already reported as stale
            diagnostics.append(
                Diagnostic(
                    file=model.rel,
                    line=waiver.line_no,
                    rule=RULE_MISSING_REASON,
                    message=(
                        f"waiver `analyze: allow({waiver.rule})` states no "
                        "reason — add `— why` so the next reader can audit it"
                    ),
                )
            )
    diagnostics.sort(key=lambda d: (d.file, d.line, d.rule))
    return diagnostics, warnings, engine_used, models


def write_report(
    out_path: Path,
    root: Path,
    engine_used: str,
    files: list[Path],
    diagnostics: list[Diagnostic],
    warnings: list[str],
) -> None:
    unwaived = [d for d in diagnostics if not d.waived]
    report = {
        "schema": REPORT_SCHEMA,
        "engine": engine_used,
        "root": str(root),
        "files_scanned": len(files),
        "rules": [
            {"name": rule_cls.name, "summary": " ".join(rule_cls.summary.split())}
            for rule_cls in all_rules()
        ],
        "diagnostics": [
            {
                "file": d.file,
                "line": d.line,
                "rule": d.rule,
                "message": d.message,
                "waived": d.waived,
                **({"waiver_reason": d.waiver_reason} if d.waived else {}),
            }
            for d in diagnostics
        ],
        "warnings": warnings,
        "summary": {
            "violations": len(unwaived),
            "waived": sum(1 for d in diagnostics if d.waived),
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files/dirs (default: src/)")
    parser.add_argument("--root", default=".", help="repo root")
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json for the clang engine "
        "(default: <root>/build/compile_commands.json when present)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "clang", "syntax"),
        default="auto",
        help="auto: clang when importable, else syntax (with a warning)",
    )
    parser.add_argument("--json", default=None, help="write a JSON report")
    parser.add_argument(
        "--fixture-mode",
        action="store_true",
        help="scope fixtures/<dir>/<subsystem>__<name>.cpp as "
        "src/<subsystem>/<name>.cpp (used by selftest.py)",
    )
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.name}\n    {' '.join(rule_cls.summary.split())}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"analyze: no such root: {args.root}", file=sys.stderr)
        return 2

    compile_commands = None
    if args.compile_commands:
        compile_commands = Path(args.compile_commands)
    elif (root / "build" / "compile_commands.json").exists():
        compile_commands = root / "build" / "compile_commands.json"

    files = collect_files(root, args.paths)
    if not files:
        print("analyze: nothing to scan", file=sys.stderr)
        return 2

    try:
        diagnostics, warnings, engine_used, _ = analyze(
            root, files, args.engine, compile_commands, args.fixture_mode
        )
    except EnvironmentError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 3

    for warning in warnings:
        print(f"analyze: warning: {warning}", file=sys.stderr)

    if args.json:
        write_report(
            Path(args.json), root, engine_used, files, diagnostics, warnings
        )

    unwaived = [d for d in diagnostics if not d.waived]
    waived = [d for d in diagnostics if d.waived]
    for diag in unwaived:
        print(f"{diag.file}:{diag.line}: [{diag.rule}] {diag.message}")
    if unwaived:
        print(
            f"analyze: {len(unwaived)} violation(s), {len(waived)} waived "
            f"({engine_used} engine, {len(files)} files)"
        )
        return 1
    print(
        f"analyze: clean — {len(files)} files, {len(waived)} waived "
        f"({engine_used} engine)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
