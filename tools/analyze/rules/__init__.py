"""Rule-plugin registry for droute-analyze.

A rule is a class with:

    name        kebab-case rule id (what waivers name)
    summary     one-line description for --list-rules and the JSON report
    check(model, ctx) -> list[Diagnostic]

Register with @register. Rules are pure functions of the FileModel (filled
by either engine) plus the cross-file AnalysisContext, so adding a rule
never touches the engines. See DESIGN.md §13 "How to add a rule".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Diagnostic:
    file: str          # repo-relative path
    line: int
    rule: str
    message: str
    waived: bool = False
    waiver_reason: str = ""


@dataclass
class AnalysisContext:
    """Cross-file facts collected in the first pass over every model."""
    task_functions: set[str] = field(default_factory=set)
    task_methods: set[tuple[str, str]] = field(default_factory=set)
    classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    type_aliases: set[str] = field(default_factory=set)
    unordered_vars: set[str] = field(default_factory=set)

    @classmethod
    def from_models(cls, models: list) -> "AnalysisContext":
        ctx = cls()
        for model in models:
            ctx.task_functions |= model.task_functions
            ctx.task_methods |= model.task_methods
            ctx.classes.update(model.classes)
            ctx.type_aliases |= model.type_aliases
            ctx.unordered_vars |= model.unordered_vars
        # `Task<...> a::b(` is member coroutine (a, b); unless `a` is a known
        # class it may also be a namespace, so the bare name `b` is a free
        # task function too.
        known = ctx.classes.keys() | {owner for owner, _ in ctx.task_methods}
        for model in models:
            for qualifier, name in model.task_qualified:
                ctx.task_methods.add((qualifier, name))
                if qualifier not in known:
                    ctx.task_functions.add(name)
        return ctx

    def may_own_task(self, owner: str | None, name: str) -> bool:
        """Whether a `name(` member call on an object of class `owner` may
        reach a task coroutine: the class or one of its seen bases declares
        one, or the class is unknown (None, `auto`, an alias)."""
        if owner is None or owner == "auto" or owner in self.type_aliases:
            return True
        todo, seen = [owner], set()
        while todo:
            cls = todo.pop()
            if (cls, name) in self.task_methods:
                return True
            seen.add(cls)
            todo.extend(b for b in self.classes.get(cls, ()) if b not in seen)
        return False


_RULES: list[type] = []


def register(rule_cls: type) -> type:
    _RULES.append(rule_cls)
    return rule_cls


def all_rules() -> list[type]:
    # import for side effect of registration
    from . import coroutine, determinism, suspension  # noqa: F401
    return sorted(_RULES, key=lambda r: r.name)
