"""libclang augmentation engine.

When clang.cindex + a libclang shared library are importable, each file is
additionally parsed as a real translation unit with the exact flags
recorded in the CMake-emitted compile_commands.json. The AST is used to
*augment* the token-level model with resolved types — the cases a purely
syntactic scan cannot see:

  * variables/fields whose canonical type is an unordered container but
    whose declared spelling is `auto` or an alias two headers away;
  * functions whose canonical result type is sim::Task<T> under any alias;
  * ordered containers pointer-keyed behind a typedef.

The control-flow facts (lambda captures, co_await sites, lock scopes) come
from the shared structural builder either way, so the fixture corpus in
tools/analyze/fixtures/ exercises both engines identically — CI runs the
selftest with --engine clang to keep this file honest.

Import failures are reported, not raised: run.py degrades to the syntax
engine with a warning locally, and CI passes --engine clang to make
libclang mandatory there.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from model import FileModel

_AVAILABLE: bool | None = None
_IMPORT_ERROR = ""


def available() -> tuple[bool, str]:
    """(usable, why-not). Probes the import and a trivial parse once."""
    global _AVAILABLE, _IMPORT_ERROR
    if _AVAILABLE is not None:
        return _AVAILABLE, _IMPORT_ERROR
    try:
        import clang.cindex as cindex  # noqa: F401

        index = cindex.Index.create()
        del index
        _AVAILABLE = True
    except Exception as exc:  # ImportError or LibclangError
        _AVAILABLE = False
        _IMPORT_ERROR = f"{type(exc).__name__}: {exc}"
    return _AVAILABLE, _IMPORT_ERROR


def load_compile_commands(path: Path) -> dict[str, list[str]]:
    """Maps absolute source path -> sanitized compiler args."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    commands: dict[str, list[str]] = {}
    for entry in entries:
        file_path = str(Path(entry.get("directory", ".")) / entry["file"])
        file_path = str(Path(file_path).resolve())
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = shlex.split(entry.get("command", ""))
        commands[file_path] = _sanitize_args(argv, entry.get("directory", "."))
    return commands


def _sanitize_args(argv: list[str], directory: str) -> list[str]:
    """Keeps -I/-D/-std/-f flags, drops compiler/input/output operands, and
    absolutizes relative include paths against the recorded directory."""
    out: list[str] = []
    skip_next = False
    for i, arg in enumerate(argv):
        if i == 0:  # the compiler itself
            continue
        if skip_next:
            skip_next = False
            continue
        if arg in ("-c", "-MD", "-MMD", "-pipe", "-g"):
            continue
        if arg in ("-o", "-MF", "-MT", "-MQ", "--driver-mode"):
            skip_next = True
            continue
        if arg.startswith(("-I", "-isystem", "-D", "-std=", "-f", "-W")):
            if arg in ("-I", "-isystem", "-D"):
                # separated form: keep flag and its operand
                out.append(arg)
                if i + 1 < len(argv):
                    out.append(_absolutize(argv[i + 1], directory))
                skip_next = True
                continue
            if arg.startswith("-I"):
                out.append("-I" + _absolutize(arg[2:], directory))
                continue
            out.append(arg)
            continue
        # everything else (positional inputs, warnings-as-errors, etc.)
    return out


def _absolutize(path_text: str, directory: str) -> str:
    p = Path(path_text)
    return str(p if p.is_absolute() else Path(directory) / p)


_UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
_TASK_RESULT_RE = re.compile(r"\bTask<")
_PTR_KEY_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)<[^,<>]*\*\s*[,>]"
)


def augment_model(
    model: FileModel,
    args: list[str],
    extra_args: list[str],
) -> list[str]:
    """Parses model.path as a TU and folds resolved-type facts into the
    model. Returns human-readable parse warnings (never raises once
    available() said yes)."""
    import clang.cindex as cindex

    warnings: list[str] = []
    index = cindex.Index.create()
    try:
        tu = index.parse(str(model.path), args=args + extra_args)
    except cindex.TranslationUnitLoadError as exc:
        return [f"{model.rel}: libclang failed to parse: {exc}"]

    fatal = [
        d for d in tu.diagnostics
        if d.severity >= cindex.Diagnostic.Error
    ]
    for diag in fatal[:5]:
        warnings.append(f"{model.rel}: clang: {diag.spelling}")

    main_file = str(model.path)

    def walk(cursor) -> None:
        for child in cursor.get_children():
            loc = child.location
            if loc.file is None or str(loc.file) != main_file:
                # still recurse into same-file contexts only
                continue
            _classify(child)
            walk(child)

    def _classify(cursor) -> None:
        kind = cursor.kind
        try:
            if kind in (
                cindex.CursorKind.VAR_DECL,
                cindex.CursorKind.FIELD_DECL,
            ):
                canon = cursor.type.get_canonical().spelling
                if _UNORDERED_RE.search(canon):
                    model.unordered_vars.add(cursor.spelling)
                if _PTR_KEY_RE.search(canon):
                    from model import PointerKeyDecl

                    line = cursor.location.line
                    if not any(
                        d.line == line for d in model.pointer_key_decls
                    ):
                        model.pointer_key_decls.append(
                            PointerKeyDecl(line=line, type_text=canon[:80])
                        )
            elif kind in (
                cindex.CursorKind.FUNCTION_DECL,
                cindex.CursorKind.CXX_METHOD,
                cindex.CursorKind.FUNCTION_TEMPLATE,
            ):
                result = cursor.result_type.get_canonical().spelling
                if _TASK_RESULT_RE.search(result):
                    parent = cursor.semantic_parent
                    if parent is not None and parent.kind in _CLASS_KINDS:
                        model.task_methods.add(
                            (parent.spelling, cursor.spelling)
                        )
                    else:
                        model.task_functions.add(cursor.spelling)
        except ValueError:
            # unknown cursor kind in this libclang build — skip, the
            # structural model already covers the file
            pass

    _CLASS_KINDS = (
        cindex.CursorKind.CLASS_DECL,
        cindex.CursorKind.STRUCT_DECL,
        cindex.CursorKind.CLASS_TEMPLATE,
    )
    walk(tu.cursor)
    model.engine = "clang"
    return warnings
