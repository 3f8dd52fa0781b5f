"""Coroutine-lifetime rules. The repo-wide contracts these enforce are
documented prose in DESIGN.md §10 — a Task must not outlive its Simulator,
awaitables are awaited as lvalues (GCC PR 99576), and a coroutine frame
only borrows what is guaranteed to outlive its last suspension. The rules
turn each contract into a diagnostic.
"""

from __future__ import annotations

from . import AnalysisContext, Diagnostic, register
from model import (  # noqa: E402
    FileModel, _skip_template_args, _statement_start, declared_type,
    enclosing_class,
)

RULE_REF_CAPTURE = "coroutine-ref-capture"
RULE_DISCARDED_TASK = "coroutine-discarded-task"
RULE_RVALUE_AWAIT = "coroutine-rvalue-await"
RULE_TASK_FIELD = "coroutine-task-field"

# Awaitable factories documented rvalue-safe: their awaiter methods are not
# &-qualified and the object completes within the co_await expression
# (sim/task.h). Matched against the last segment of the callee chain.
RVALUE_SAFE_AWAITABLES = frozenset({"delay", "delay_until"})


def _last_segment(callee: str) -> str:
    for sep in (".", "::"):
        if sep in callee:
            callee = callee.rsplit(sep, 1)[1]
    return callee


@register
class RefCaptureRule:
    name = RULE_REF_CAPTURE
    summary = (
        "no coroutine lambda capturing by reference or capturing `this` — "
        "the frame outlives the capturing scope's stack; waive only with a "
        "documented lifetime argument"
    )

    def check(self, model: FileModel, ctx: AnalysisContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for lam in model.lambdas:
            if not lam.is_coroutine:
                continue
            bad = [
                c for c in lam.captures
                if c == "&" or c.startswith("&") or c == "this"
            ]
            if not bad:
                continue
            out.append(
                Diagnostic(
                    file=model.rel,
                    line=lam.line,
                    rule=self.name,
                    message=(
                        f"coroutine lambda captures [{', '.join(bad)}] — the "
                        "frame suspends past the capturing scope; capture by "
                        "value (or `*this`), or waive with the lifetime "
                        "argument"
                    ),
                )
            )
        return out


@register
class DiscardedTaskRule:
    name = RULE_DISCARDED_TASK
    summary = (
        "no discarded Task<T> temporaries: calling a task coroutine as a "
        "bare statement drops the only handle while the body keeps running "
        "in the simulator"
    )

    @staticmethod
    def _calls_a_task(model: FileModel, i: int, ctx: AnalysisContext) -> bool:
        """Whether the call named at token i may resolve to a task
        coroutine. A member call `obj.name(` / `obj->name(` is cleared only
        when obj's class is known (a plain variable declared in this file as
        a non-template class) and neither it nor a seen base declares a
        `name` coroutine; members declared in a header, chained receivers
        and call results are of unknown class and stay flagged."""
        tokens = model.tokens
        name = tokens[i].text
        prev = tokens[i - 1].text if i > 0 else ""
        if prev in (".", "->"):
            obj = tokens[i - 2] if i >= 2 else None
            before = tokens[i - 3].text if i >= 3 else ""
            owner = None
            if obj is not None and obj.text == "this":
                owner = enclosing_class(model, i)
            elif obj is not None and obj.kind == "id" and before not in (".", "->", "::"):
                owner = declared_type(model, obj.text, i - 2)
            return ctx.may_own_task(owner, name)
        if name in ctx.task_functions:
            return True
        if prev == "::":
            return (tokens[i - 2].text, name) in ctx.task_methods
        # unqualified: a member call only inside member code
        owner = enclosing_class(model, i)
        return owner is not None and ctx.may_own_task(owner, name)

    def check(self, model: FileModel, ctx: AnalysisContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        tokens = model.tokens
        match = getattr(model, "_match", {})
        known = ctx.task_functions | {name for _, name in ctx.task_methods}
        for i, tok in enumerate(tokens):
            if tok.kind != "id" or tok.text not in known:
                continue
            j = i + 1
            # skip explicit template args: foo<T>(...)
            j = _skip_template_args(tokens, j)
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            close = match.get(j)
            if close is None or close + 1 >= len(tokens):
                continue
            if tokens[close + 1].text != ";":
                continue  # result is consumed (assigned, awaited, chained)
            start = _statement_start(tokens, match, i)
            prev = tokens[start - 1] if start > 0 else None
            starts_statement = (
                prev is None
                or prev.kind == "pp"
                or prev.text in (";", "{", "}", "else", "do")
            )
            if not starts_statement and prev is not None and prev.text == ")":
                # `if (cond) task();` — a control-clause close-paren also
                # begins a discarded statement (but a ternary/call does not)
                open_idx = match.get(start - 1)
                if open_idx is not None and open_idx > 0:
                    head = tokens[open_idx - 1].text
                    starts_statement = head in ("if", "while", "for", "switch")
            if not starts_statement:
                continue
            if not self._calls_a_task(model, i, ctx):
                continue
            out.append(
                Diagnostic(
                    file=model.rel,
                    line=tok.line,
                    rule=self.name,
                    message=(
                        f"result of task coroutine `{tok.text}(...)` is "
                        "discarded — bind it and join (co_await / drive / "
                        "cancel) so the frame cannot outlive its inputs"
                    ),
                )
            )
        return out


@register
class RvalueAwaitRule:
    name = RULE_RVALUE_AWAIT
    summary = (
        "awaitables must be lvalues: `co_await make_x()` awaits a "
        "temporary (GCC PR 99576 miscompiles the frame slot) — bind to a "
        "local first; sim::delay/delay_until are documented rvalue-safe"
    )

    def check(self, model: FileModel, ctx: AnalysisContext) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for site in model.awaits:
            if not site.operand_is_call:
                continue
            if _last_segment(site.callee) in RVALUE_SAFE_AWAITABLES:
                continue
            out.append(
                Diagnostic(
                    file=model.rel,
                    line=site.line,
                    rule=self.name,
                    message=(
                        f"`co_await {site.callee}(...)` awaits a temporary — "
                        "bind the awaitable to a local, then co_await the "
                        "lvalue (GCC PR 99576; sim/task.h header note)"
                    ),
                )
            )
        return out


@register
class TaskFieldRule:
    name = RULE_TASK_FIELD
    summary = (
        "no Task<T> data members outside src/sim: a stored task's pending "
        "resume lives in the simulator queue, so the owning type silently "
        "inherits the must-not-outlive-Simulator contract"
    )

    def check(self, model: FileModel, ctx: AnalysisContext) -> list[Diagnostic]:
        if model.subsystem() == "sim":
            return []
        out: list[Diagnostic] = []
        for fld in model.task_fields:
            out.append(
                Diagnostic(
                    file=model.rel,
                    line=fld.line,
                    rule=self.name,
                    message=(
                        f"Task-typed data member (`{fld.text}`) — the owner "
                        "now must not outlive the Simulator; prefer joining "
                        "tasks in the scope that spawned them, or waive with "
                        "the teardown-order argument"
                    ),
                )
            )
        return out
