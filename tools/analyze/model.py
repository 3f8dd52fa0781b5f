"""The per-file semantic model that every analyzer rule consumes, plus the
token-level structural builder that produces it.

Two engines fill this model:

  * the built-in syntactic engine (this module): a real tokenizer plus
    balanced-bracket structure — lambdas with parsed capture lists,
    co_await sites with operand shape, range-for statements, lock-guard
    scopes, reference-to-temporary declarations, class-scope fields, and
    declared-type tracking for unordered containers and Task-returning
    functions. It needs nothing beyond the Python stdlib, so the analyzer
    always runs (ctest entries analyze.ast_rules / analyze.src_clean).

  * engine_clang.py: when clang.cindex + libclang are importable it parses
    each TU with the flags recorded in compile_commands.json and *augments*
    the same model with resolved canonical types (variables whose deduced
    or aliased type is an unordered container, functions whose return type
    is sim::Task, pointer-keyed ordered containers behind typedefs). Rules
    never know which engine filled the model.

Scoping: determinism rules apply to the sim-deterministic subsystems
(DETERMINISTIC_SUBSYSTEMS); everything else in src/ gets the weaker
sink-sensitive variant. See DESIGN.md §13.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from waivers import WaiverSet  # noqa: E402

from cpptokens import Token, tokenize  # noqa: E402

# Subsystems whose event order, digests, and serialized output must be a
# pure function of the seed (DESIGN.md §13). Paths are src/-relative
# first components.
DETERMINISTIC_SUBSYSTEMS = frozenset(
    {"sim", "net", "transfer", "cloud", "chaos", "scenario", "ctrl"}
)

UNORDERED_CONTAINERS = frozenset(
    {"unordered_map", "unordered_set", "unordered_multimap",
     "unordered_multiset"}
)
ORDERED_CONTAINERS = frozenset({"map", "set", "multimap", "multiset"})
LOCK_TYPES = frozenset(
    {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
)
COROUTINE_KEYWORDS = frozenset({"co_await", "co_yield", "co_return"})


@dataclass
class LambdaInfo:
    line: int
    intro: int                 # token index of the '['
    captures: list[str]        # normalized: "&", "&x", "this", "x", "=", "*this"
    body: tuple[int, int]      # token index span [open '{', close '}']
    is_coroutine: bool = False


@dataclass
class AwaitSite:
    line: int
    index: int                 # token index of the co_await keyword
    operand_is_call: bool      # co_await <id-chain>(...): awaits a temporary
    callee: str = ""           # qualified callee ("sim::delay", "notify.wait")


@dataclass
class RangeForInfo:
    line: int
    range_text: str
    range_tokens: list[Token]
    body: tuple[int, int]      # token span of the loop body (brace or stmt)


@dataclass
class ScopedDecl:
    """A declaration plus the token index where its scope ends."""
    line: int
    index: int
    scope_end: int
    detail: str = ""           # lock type, or ref-decl callee


@dataclass
class PointerKeyDecl:
    line: int
    type_text: str


@dataclass
class TaskField:
    line: int
    text: str


@dataclass
class FileModel:
    path: Path
    rel: str                   # repo-relative posix path, used for scoping
    raw_lines: list[str]
    tokens: list[Token]
    waivers: WaiverSet
    lambdas: list[LambdaInfo] = field(default_factory=list)
    awaits: list[AwaitSite] = field(default_factory=list)
    range_fors: list[RangeForInfo] = field(default_factory=list)
    lock_decls: list[ScopedDecl] = field(default_factory=list)
    ref_decls: list[ScopedDecl] = field(default_factory=list)
    pointer_key_decls: list[PointerKeyDecl] = field(default_factory=list)
    task_fields: list[TaskField] = field(default_factory=list)
    unordered_vars: set[str] = field(default_factory=set)
    unordered_types: set[str] = field(default_factory=set)
    # Task-returning functions: free ones by bare name, member coroutines as
    # (class, name) so a method name shared with another class's plain
    # method does not turn that method's calls into task calls. An out-of-line
    # `Task<...> a::b(` waits in task_qualified until every file's classes
    # are known: `a` may be a class or a namespace.
    task_functions: set[str] = field(default_factory=set)
    task_methods: set[tuple[str, str]] = field(default_factory=set)
    task_qualified: set[tuple[str, str]] = field(default_factory=set)
    # Class bodies seen in this file, each with its base-class names, and
    # `using X = ...` / `typedef ... X;` alias names (which name no class
    # the analyzer can see into).
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    type_aliases: set[str] = field(default_factory=set)
    engine: str = "syntax"

    def subsystem(self) -> str:
        parts = Path(self.rel).parts
        if len(parts) >= 2 and parts[0] == "src":
            return parts[1]
        return ""

    def is_deterministic_scope(self) -> bool:
        return self.subsystem() in DETERMINISTIC_SUBSYSTEMS


# ---------------------------------------------------------------------------
# Structural scanning helpers


def _bracket_maps(tokens: list[Token]) -> tuple[dict[int, int], list[int]]:
    """Returns (open<->close match map for (){}[], innermost enclosing
    '{' index per token, or -1)."""
    match: dict[int, int] = {}
    encl: list[int] = [-1] * len(tokens)
    stack: list[tuple[str, int]] = []
    brace_stack: list[int] = []
    pairs = {")": "(", "}": "{", "]": "["}
    for i, tok in enumerate(tokens):
        encl[i] = brace_stack[-1] if brace_stack else -1
        if tok.kind != "punct":
            continue
        if tok.text in "({[":
            stack.append((tok.text, i))
            if tok.text == "{":
                brace_stack.append(i)
        elif tok.text in ")}]":
            want = pairs[tok.text]
            # tolerate mismatches from macro soup: pop until match
            while stack and stack[-1][0] != want:
                opened, j = stack.pop()
                if opened == "{" and brace_stack and brace_stack[-1] == j:
                    brace_stack.pop()
            if stack:
                _, j = stack.pop()
                match[j] = i
                match[i] = j
                if tok.text == "}" and brace_stack and brace_stack[-1] == j:
                    brace_stack.pop()
    return match, encl


def _skip_template_args(tokens: list[Token], i: int, limit: int = 400) -> int:
    """If tokens[i] is '<' opening a template argument list, returns the
    index just past the matching '>'; otherwise returns i. '>>' closes two
    levels. Gives up (returns i) when no close is found before `limit`
    tokens or a ';' — then it was a comparison, not a template list."""
    if i >= len(tokens) or tokens[i].text != "<":
        return i
    depth = 0
    j = i
    end = min(len(tokens), i + limit)
    while j < end:
        text = tokens[j].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif text == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif text in (";", "{", "}"):
            return i
        j += 1
    return i


def _qualified_chain(tokens: list[Token], i: int) -> tuple[str, int]:
    """Parses `id(::id)*` (with optional template args on the last
    segment) starting at i. Returns (joined text, index just past)."""
    if i >= len(tokens) or tokens[i].kind != "id":
        return "", i
    parts = [tokens[i].text]
    j = i + 1
    while (
        j + 1 < len(tokens)
        and tokens[j].text == "::"
        and tokens[j + 1].kind == "id"
    ):
        parts.append(tokens[j + 1].text)
        j += 2
    j = _skip_template_args(tokens, j)
    return "::".join(parts), j


_STMT_BOUNDARY = frozenset({";", "{", "}"})


def _statement_start(tokens: list[Token], match: dict[int, int], i: int) -> int:
    """Walks a member-access chain leftwards from token i (an identifier)
    to the first token of the expression statement it belongs to."""
    j = i
    for _ in range(64):  # chain-length guard
        if j == 0:
            return j
        prev = tokens[j - 1]
        if prev.text in (".", "->", "::"):
            k = j - 2
            if k >= 0 and tokens[k].text in (")", "]") and k in match:
                # (...)  or  [...]  — jump to its opener (and past the
                # callee of a call `f(...)`), then keep walking
                j = match[k]
                callee = tokens[j - 1] if j > 0 else None
                if (
                    tokens[k].text == ")"
                    and callee is not None
                    and callee.kind == "id"
                    and callee.text not in _NOT_A_TYPE
                ):
                    j -= 1
                continue
            if k >= 0 and (tokens[k].kind == "id" or tokens[k].text == "this"):
                j = k
                continue
            return j
        return j
    return j


# ---------------------------------------------------------------------------
# Model builder


def build_model(path: Path, rel: str, text: str) -> FileModel:
    raw_lines = text.splitlines()
    tokens = tokenize(text)
    model = FileModel(
        path=path,
        rel=rel,
        raw_lines=raw_lines,
        tokens=tokens,
        waivers=WaiverSet.parse(raw_lines, "analyze"),
    )
    match, encl = _bracket_maps(tokens)
    _scan_lambdas(model, match)
    _scan_awaits(model)
    _mark_coroutine_lambdas(model)
    _scan_range_fors(model, match)
    _scan_container_decls(model)
    _scan_lock_decls(model, match, encl)
    _scan_ref_decls(model, match, encl)
    _scan_classes(model)
    _scan_task_decls(model, match, encl)
    model._match = match  # type: ignore[attr-defined]
    model._encl = encl    # type: ignore[attr-defined]
    return model


_LAMBDA_PREV_PUNCT = frozenset(
    {"(", ",", "{", "}", ";", "=", "&&", "||", "!", "?", ":", "<", ">",
     "+", "-", "*", "/"}
)
_LAMBDA_PREV_ID = frozenset(
    {"return", "co_return", "co_yield", "co_await", "case", "else", "do"}
)


def _scan_lambdas(model: FileModel, match: dict[int, int]) -> None:
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.text != "[" or i not in match:
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is not None and nxt.text == "[":
            continue  # [[attribute]]
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None:
            if prev.text == "[":
                continue
            if prev.kind == "id" and prev.text not in _LAMBDA_PREV_ID:
                continue  # subscript: var[...]
            if prev.kind == "punct" and prev.text not in _LAMBDA_PREV_PUNCT:
                continue
            if prev.kind in ("num", "str", "chr"):
                continue
        close = match[i]
        captures = _parse_captures(tokens[i + 1 : close])
        # after ']': optional (params), specifiers, -> type, then '{'
        j = close + 1
        if j < len(tokens) and tokens[j].text == "(" and j in match:
            j = match[j] + 1
        body = None
        for _ in range(60):
            if j >= len(tokens):
                break
            text = tokens[j].text
            if text == "{":
                body = (j, match.get(j, j))
                break
            if text in (";", ")", ",", "]", "}"):
                break  # not a lambda after all (or a declaration trick)
            if text == "<":
                j = max(_skip_template_args(model.tokens, j), j + 1)
                continue
            j += 1
        if body is None:
            continue
        model.lambdas.append(
            LambdaInfo(line=tok.line, intro=i, captures=captures, body=body)
        )


def _parse_captures(tokens: list[Token]) -> list[str]:
    captures: list[str] = []
    depth = 0
    current: list[str] = []

    def flush() -> None:
        if not current:
            return
        item = current[0]
        if item == "&" and len(current) > 1 and current[1] not in (",",):
            item = "&" + current[1]
        elif item == "*" and len(current) > 1:
            item = "*" + current[1]
        captures.append(item)
        current.clear()

    for tok in tokens:
        if tok.text in "([{<":
            depth += 1
        elif tok.text in ")]}>":
            depth -= 1
        if tok.text == "," and depth == 0:
            flush()
            continue
        if tok.text == "=" and depth == 0 and current:
            # init capture `x = expr` / `&x = expr`: name already collected
            flush()
            current.append("\0seen")  # swallow the initializer
            continue
        if current and current[0] == "\0seen":
            continue
        current.append(tok.text)
    if current and current[0] != "\0seen":
        flush()
    return captures


def _scan_awaits(model: FileModel) -> None:
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.text != "co_await" or tok.kind != "id":
            continue
        site = AwaitSite(line=tok.line, index=i, operand_is_call=False)
        j = i + 1
        # `co_await (expr)` — peel one paren for shape detection
        chain_parts: list[str] = []
        while j < len(tokens):
            name, k = _qualified_chain(tokens, j)
            if not name:
                break
            chain_parts.append(name)
            if k < len(tokens) and tokens[k].text in (".", "->"):
                j = k + 1
                continue
            if k < len(tokens) and tokens[k].text == "(":
                site.operand_is_call = True
                site.callee = ".".join(chain_parts)
            break
        model.awaits.append(site)


def _mark_coroutine_lambdas(model: FileModel) -> None:
    spans = [lam.body for lam in model.lambdas]
    kw_positions = [
        i for i, t in enumerate(model.tokens)
        if t.kind == "id" and t.text in COROUTINE_KEYWORDS
    ]
    for lam in model.lambdas:
        lo, hi = lam.body
        nested = [s for s in spans if s[0] > lo and s[1] < hi]
        for pos in kw_positions:
            if not lo < pos < hi:
                continue
            if any(n[0] < pos < n[1] for n in nested):
                continue
            lam.is_coroutine = True
            break


def _scan_range_fors(model: FileModel, match: dict[int, int]) -> None:
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.text != "for" or tok.kind != "id":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        open_paren = i + 1
        close_paren = match.get(open_paren)
        if close_paren is None:
            continue
        colon = None
        depth = 0
        for j in range(open_paren + 1, close_paren):
            text = tokens[j].text
            if text in "([{":
                depth += 1
            elif text in ")]}":
                depth -= 1
            elif text == ";" and depth == 0:
                colon = None
                break  # classic for(;;)
            elif text == ":" and depth == 0 and colon is None:
                colon = j
        if colon is None:
            continue
        range_tokens = tokens[colon + 1 : close_paren]
        body_open = close_paren + 1
        if body_open < len(tokens) and tokens[body_open].text == "{":
            body = (body_open, match.get(body_open, body_open))
        else:
            # single-statement body: up to the terminating ';'
            j = body_open
            depth = 0
            while j < len(tokens):
                text = tokens[j].text
                if text in "([{":
                    depth += 1
                elif text in ")]}":
                    depth -= 1
                elif text == ";" and depth == 0:
                    break
                j += 1
            body = (body_open, j)
        model.range_fors.append(
            RangeForInfo(
                line=tok.line,
                range_text=" ".join(t.text for t in range_tokens),
                range_tokens=list(range_tokens),
                body=body,
            )
        )


def _scan_container_decls(model: FileModel) -> None:
    """Collects declared unordered-container variable names + aliases, and
    pointer-keyed ordered-container declarations."""
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        if tok.text in UNORDERED_CONTAINERS:
            end = _skip_template_args(tokens, i + 1)
            if end == i + 1:
                continue  # no template args — a bare mention
            j = end
            while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                name = tokens[j].text
                after = tokens[j + 1].text if j + 1 < len(tokens) else ""
                if after != "(":  # a '(', would be a function returning one
                    model.unordered_vars.add(name)
            # alias:  using Foo = std::unordered_map<...>;
            back = i - 1
            while back > 0 and tokens[back].text in ("::", "std"):
                back -= 1
            if back >= 1 and tokens[back].text == "=" and tokens[back - 1].kind == "id":
                if back >= 2 and tokens[back - 2].text in ("using",):
                    model.unordered_types.add(tokens[back - 1].text)
        elif tok.text in model.unordered_types:
            j = i + 1
            while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                after = tokens[j + 1].text if j + 1 < len(tokens) else ""
                if after != "(":
                    model.unordered_vars.add(tokens[j].text)
        elif tok.text in ORDERED_CONTAINERS:
            # require std:: qualification so plain identifiers named `map`
            # don't match
            if i < 2 or tokens[i - 1].text != "::" or tokens[i - 2].text != "std":
                continue
            if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
                continue
            end = _skip_template_args(tokens, i + 1)
            if end == i + 1:
                continue
            first_arg_last = None
            depth = 0
            for j in range(i + 2, end - 1):
                text = tokens[j].text
                if text == "<":
                    depth += 1
                elif text in (">", ">>"):
                    depth -= 1 if text == ">" else 2
                elif text == "," and depth == 0:
                    break
                first_arg_last = tokens[j]
            if first_arg_last is not None and first_arg_last.text == "*":
                type_text = " ".join(
                    t.text for t in tokens[i - 2 : min(end, i + 14)]
                )
                model.pointer_key_decls.append(
                    PointerKeyDecl(line=tok.line, type_text=type_text)
                )


def _scan_lock_decls(
    model: FileModel, match: dict[int, int], encl: list[int]
) -> None:
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in LOCK_TYPES:
            continue
        j = _skip_template_args(tokens, i + 1)
        if j < len(tokens) and tokens[j].kind == "id":
            nxt = tokens[j + 1].text if j + 1 < len(tokens) else ""
            if nxt not in ("(", "{", ";", "="):
                continue  # not a declaration (e.g. a type in a signature)
            open_brace = encl[i]
            scope_end = match.get(open_brace, len(tokens) - 1)
            model.lock_decls.append(
                ScopedDecl(
                    line=tok.line, index=i, scope_end=scope_end,
                    detail=tok.text,
                )
            )


def _scan_ref_decls(
    model: FileModel, match: dict[int, int], encl: list[int]
) -> None:
    """Reference declarations bound directly to a free-function call:
    `const auto& x = make_thing(...);` — the classic
    reference-to-temporary. Member/method calls on named objects are
    skipped (they usually return references to stable storage)."""
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.text != "&" or i + 3 >= len(tokens):
            continue
        name_tok = tokens[i + 1]
        if name_tok.kind != "id" or tokens[i + 2].text != "=":
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is None or prev.kind != "id" or prev.text in ("return", "co_return"):
            continue  # need a type-ish token before '&'
        callee, k = _qualified_chain(tokens, i + 3)
        if not callee or k >= len(tokens) or tokens[k].text != "(":
            continue
        close = match.get(k)
        if close is None or close + 1 >= len(tokens):
            continue
        if tokens[close + 1].text != ";":
            continue  # e.g. a default argument, or a longer expression
        open_brace = encl[i]
        if open_brace < 0:
            continue  # namespace scope: not our concern
        scope_end = match.get(open_brace, len(tokens) - 1)
        model.ref_decls.append(
            ScopedDecl(line=tok.line, index=i, scope_end=scope_end, detail=callee)
        )


def _class_keyword(tokens: list[Token], open_brace: int) -> int:
    """Index of the class/struct/union keyword when `open_brace` opens such
    a body (walking back to the statement head), else -1."""
    j = open_brace - 1
    for _ in range(64):
        if j < 0:
            return -1
        text = tokens[j].text
        if text in ("class", "struct", "union"):
            return j
        if text in (";", "{", "}", ")") or tokens[j].kind == "pp":
            return -1
        j -= 1
    return -1


def _is_class_body(tokens: list[Token], match: dict[int, int], open_brace: int) -> bool:
    return _class_keyword(tokens, open_brace) >= 0


def _class_name(tokens: list[Token], open_brace: int) -> str | None:
    """Name of the class whose body `open_brace` opens (None when it opens
    another scope or an anonymous class)."""
    kw = _class_keyword(tokens, open_brace)
    if kw < 0 or tokens[kw + 1].kind != "id":
        return None
    return tokens[kw + 1].text


def enclosing_class(model: FileModel, i: int) -> str | None:
    """The class whose member code encloses token i: the innermost class
    body, or `Cls` of an out-of-line `Cls::f(...) {` definition. None at
    namespace scope and in free functions."""
    tokens = model.tokens
    match = model._match  # type: ignore[attr-defined]
    encl = model._encl    # type: ignore[attr-defined]
    brace = encl[i]
    while brace >= 0:
        if _class_keyword(tokens, brace) >= 0:
            return _class_name(tokens, brace)
        j = brace - 1
        while j >= 0 and tokens[j].text not in (")", ";", "{", "}"):
            j -= 1  # function qualifiers, trailing return type
        opener = match.get(j, -1) if j >= 0 and tokens[j].text == ")" else -1
        if (
            opener >= 3
            and tokens[opener - 1].kind == "id"
            and tokens[opener - 2].text == "::"
            and tokens[opener - 3].kind == "id"
        ):
            return tokens[opener - 3].text
        brace = encl[brace]
    return None


_NOT_A_TYPE = frozenset(
    {"return", "co_return", "co_await", "co_yield", "case", "else", "do",
     "throw", "delete", "sizeof"}
)


def declared_type(model: FileModel, name: str, before: int) -> str | None:
    """Last segment of the declared type of variable `name`, from its
    nearest declaration (`Type name`, `ns::Type& name`) before token
    `before`. None when no declaration is visible or the type is a template
    instantiation (`std::unique_ptr<Api>` does not say what `->` reaches).
    `auto` comes back as "auto", which names no class."""
    tokens = model.tokens
    for k in range(before - 1, 0, -1):
        if tokens[k].text != name or tokens[k].kind != "id":
            continue
        if k + 1 >= len(tokens) or tokens[k + 1].text not in (
            ",", ")", ";", "=", "{", "(", "["
        ):
            continue
        j = k - 1
        while j >= 0 and tokens[j].text in ("&", "&&", "*", "const"):
            j -= 1
        if j >= 0 and tokens[j].text in (">", ">>"):
            return None
        if j >= 0 and tokens[j].kind == "id" and tokens[j].text not in _NOT_A_TYPE:
            return tokens[j].text
    return None


_ACCESS_WORDS = frozenset({"public", "protected", "private", "virtual"})


def _scan_classes(model: FileModel) -> None:
    """Records every class body with its bases (`class D : public ns::B<T>,
    C {` gives D -> (B, C)), and every type alias name."""
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.text == "{":
            kw = _class_keyword(tokens, i)
            if kw < 0 or tokens[kw + 1].kind != "id":
                continue
            bases: list[str] = []
            j = kw + 2
            while j < i and tokens[j].text != ":":
                j += 1
            while j < i:
                j += 1
                while j < i and tokens[j].text in _ACCESS_WORDS:
                    j += 1
                chain, j = _qualified_chain(tokens, j)
                if chain:
                    bases.append(chain.rsplit("::", 1)[-1])
                while j < i and tokens[j].text != ",":
                    j += 1
            model.classes[tokens[kw + 1].text] = tuple(bases)
        elif (
            tok.text == "using"
            and i + 2 < len(tokens)
            and tokens[i + 1].kind == "id"
            and tokens[i + 2].text == "="
        ):
            model.type_aliases.add(tokens[i + 1].text)
        elif tok.text == "typedef":
            j = i + 1
            while j < len(tokens) and tokens[j].text != ";":
                j += 1
            if tokens[j - 1].kind == "id":
                model.type_aliases.add(tokens[j - 1].text)


def _scan_task_decls(
    model: FileModel, match: dict[int, int], encl: list[int]
) -> None:
    """Finds (a) functions declared to return sim::Task<T> (fed into the
    discarded-task rule's symbol tables: member coroutines with their class,
    declared in the class body or defined out of line as `Cls::name`) and
    (b) Task-typed data members at class scope (the task-field lifetime
    rule)."""
    tokens = model.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != "Task":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "<":
            continue
        end = _skip_template_args(tokens, i + 1)
        if end == i + 1:
            continue
        # Function returning Task<...>: `Task<...> name (` or
        # `Task<...> Cls::name (`
        chain, after = _qualified_chain(tokens, end)
        if chain and after < len(tokens) and tokens[after].text == "(":
            parts = chain.split("::")
            if len(parts) >= 2:
                model.task_qualified.add((parts[-2], parts[-1]))
            elif encl[i] >= 0 and _is_class_body(tokens, match, encl[i]):
                owner = _class_name(tokens, encl[i])
                if owner is not None:
                    model.task_methods.add((owner, chain))
            else:
                model.task_functions.add(chain)
            continue
        # `Task<T>*` / `Task<T>&` members are non-owning views: they do not
        # extend the frame's lifetime, so the field rule skips them (the
        # capture rules own that hazard).
        if end < len(tokens) and tokens[end].text in ("*", "&"):
            continue
        # Otherwise: is this Task mention part of a class-scope data member?
        open_brace = encl[i]
        if open_brace < 0 or not _is_class_body(tokens, match, open_brace):
            continue
        # Walk back to the statement head; skip aliases/friends/usings.
        head = i
        skip = False
        for j in range(i - 1, max(-1, i - 48), -1):
            text = tokens[j].text
            if text in (";", "{", "}", ":") or tokens[j].kind == "pp":
                break
            if text in ("using", "typedef", "friend"):
                skip = True
                break
            head = j
        if skip:
            continue
        # Scan forward to ';'; a '(' before any '=' means a member function
        # declaration, not a field.
        is_field = True
        seen_eq = False
        stmt_end = i
        j = end
        depth = 0
        while j < len(tokens):
            text = tokens[j].text
            if text == "<":
                depth += 1
            elif text in (">", ">>"):
                depth -= 1 if text == ">" else 2
            elif depth <= 0:
                if text == ";":
                    stmt_end = j
                    break
                if text == "=":
                    seen_eq = True
                if text == "(" and not seen_eq:
                    is_field = False
                    break
                if text in ("{", "}"):
                    # default member init with braces is fine; a brace body
                    # means we ran into a function definition
                    if not seen_eq:
                        is_field = False
                    break
            j += 1
        if is_field:
            text = " ".join(
                t.text for t in tokens[head : min(stmt_end + 1, head + 16)]
            )
            model.task_fields.append(TaskField(line=tok.line, text=text))
