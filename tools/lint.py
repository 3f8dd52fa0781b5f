#!/usr/bin/env python3
"""droute house-rules linter (registered as the `lint.house_rules` ctest).

Rules, all scoped to src/:

  pragma-once   every header starts its preprocessor life with #pragma once.
  raw-new       no raw `new` / `delete` expressions; ownership lives in
                containers and smart pointers. (`= delete`d special members
                are fine.)
  time-eq       no direct `==` / `!=` on sim::Time expressions — exact
                float equality on a simulated clock is a latent bug. Use
                sim::time_eq / sim::time_ne (sim/simulator.h, which is
                exempt as the approved-helper home).
  nodiscard     every declaration returning util::Result<T> or util::Status
                in a header carries [[nodiscard]] (same line or the line
                above). The types are class-level [[nodiscard]] too; the
                per-function attribute keeps the contract visible at the
                declaration site and survives type aliasing.
  metric-name   obs metric name literals follow the `subsystem.noun_verb`
                convention (lowercase dotted segments): counters end in
                `_total`, histograms end in a unit suffix (_s, _bytes,
                _mbps, _ratio), gauges carry neither. Checked at every
                counter()/gauge()/histogram()/count() call site so exported
                dumps stay greppable (DESIGN.md §9).
  metric-prefix a metric registered under src/<subsystem>/ names that
                subsystem as its first dotted segment (src/ctrl/ registers
                `ctrl.*`, src/net/ registers `net.*`, ...). Exported dumps
                mix every subsystem into one namespace; the prefix is what
                keeps `grep '^ctrl\\.'` equal to "everything the control
                plane emits".
  job-state     (src/transfer/ only) no `std::make_shared<...Job...>`
                callback-era job state. Transfer control flow lives in
                sim::Task<T> coroutines (DESIGN.md §10); shared-state job
                structs threaded through callbacks are the pattern this
                repo migrated away from.
  task-shim     no include of the deleted transfer/task_shim.h, and (in
                src/transfer/ and src/ctrl/) no `using <Name> =
                std::function` alias. Each transfer engine has one entry
                point, its sim::Task<T> coroutine, and the batch scheduler
                runs jobs as sim::Tasks (DESIGN.md §10); a callback alias
                is how a second, callback-style API beside them starts.
  fabric-flow   `start_flow(` is called only from src/net/ and
                src/transfer/sim_transport.cpp, and nothing includes the
                deleted net/fabric_await.h. Simulated bytes move through
                the fabric's one transfer::TransferEngine (DESIGN.md §15);
                a direct flow elsewhere is a second way onto the fabric
                that the batch layer's inflight audit cannot see.
  relay-chain   nothing includes the deleted transfer/steered.h, and no
                class or struct owns a RsyncEngine member (by value, or
                through unique_ptr/shared_ptr/optional/vector/deque)
                outside transfer/rsync_engine.h and transfer/detour.h.
                DetourEngine runs every relay chain in both directions —
                one rsync push per relay, then the API leg, or the API leg
                to the last relay and the pushes back (DESIGN.md §15); an
                engine owning its own rsync engine is how a second relay
                loop starts. Borrowing one by pointer or reference, or a
                local inside a function, stays allowed.
  api-session   outside src/cloud/, only src/transfer/api_upload.cpp calls
                the StorageServer upload-session verbs (create_session,
                append_chunk, finalize, abandon — a member call; an empty
                finalize() is Md5's, not the server's). Every provider
                upload — direct, store-and-forward's last leg and the
                pipelined relay's provider leg — is one
                ApiUploadEngine::upload_task session (DESIGN.md §15); a
                session opened anywhere else is a second copy that drifts
                from it (429 backoff, OAuth, the transfer.api_upload span).

One rule is scoped to bench/:

  bench-unit    every DROUTE_BENCH registration declares its reporting unit
                as a non-empty string literal (e.g. "ms"). BENCH_*.json
                consumers chart medians across commits; a case without a
                unit makes the axis unlabeled and the trend unreadable.

One rule is scoped to tests/corpus/ instead:

  corpus-header every checked-in replay case (tests/corpus/*.case) opens
                with provenance headers: `# seed: N` (matching its `case N`
                body line) and `# violated: <property>` naming the property
                the case was minimized against (DESIGN.md §11). A corpus
                without provenance can't be triaged when it regresses.

A line can waive one rule with an inline marker, stating the reason:
    ... // lint: allow(raw-new) — private ctor, owned by unique_ptr

The marker machinery is shared with tools/analyze (tools/waivers.py): a
waiver only counts when its rule actually fired on that line, and a waiver
that suppressed nothing is reported as a `waiver-stale` violation so
markers cannot rot in place.

Usage: tools/lint.py [repo-root]
Exits non-zero iff violations were found.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from waivers import WaiverSet  # noqa: E402

# Expressions whose comparison with == / != almost certainly means "compare
# simulated times exactly", which the fluid model never guarantees.
TIME_EXPR = r"(?:\bnow\(\)|\bnext_event_time\(\)|\b[A-Za-z_]\w*\.(?:start_time|end_time)\b|\blast_advance_\b|\bkTimeInfinity\b)"
TIME_EQ_RE = re.compile(
    rf"{TIME_EXPR}\s*[=!]=|[=!]=\s*{TIME_EXPR}"
)
# Approved helper home: defines time_eq/time_ne themselves.
TIME_EQ_EXEMPT = {Path("src/sim/simulator.h")}

NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?(?:util::)?(?:Result<.*>|Status)\s+\w+\s*\(?"
)
DECL_EXCLUDE_RE = re.compile(
    r"\b(?:class|struct|using|typedef|return)\b|=\s*(?:default|delete)\s*;"
)

NEW_DELETE_RE = re.compile(r"\bnew\b|\bdelete\b")

# Callback-era shared job state in the transfer layer: a heap-allocated
# *Job* struct captured by every continuation. The coroutine migration
# (DESIGN.md §10) made these frames implicit; new ones should not appear.
JOB_STATE_RE = re.compile(r"\bmake_shared\s*<\s*\w*Job\w*\s*>")
JOB_STATE_SCOPE = ("src", "transfer")

# The callback-shim header died with the batched TransferEngine rewrite
# (DESIGN.md §15), and the per-engine callback entry points after it: each
# engine is driven through its sim::Task<T> coroutine alone, and the batch
# scheduler's launcher callback after those. No include may resurrect the
# header, and no src/transfer/ or src/ctrl/ type may declare a callback
# alias again.
TASK_SHIM_RE = re.compile(r"#\s*include\s*[\"<][^\">]*task_shim\.h[\">]")
CALLBACK_ALIAS_RE = re.compile(r"\busing\s+\w+\s*=\s*std::function\b")
CALLBACK_ALIAS_SCOPES = (("src", "transfer"), ("src", "ctrl"))

# One way onto the fabric: outside the fabric's own package, only the sim
# transport behind the batch layer starts flows (DESIGN.md §15), and the
# deleted coroutine adapter that used to bypass it stays deleted.
START_FLOW_RE = re.compile(r"\bstart_flow\s*\(")
START_FLOW_ALLOWED_DIR = ("src", "net")
START_FLOW_ALLOWED_FILES = {Path("src/transfer/sim_transport.cpp")}
FABRIC_AWAIT_RE = re.compile(r"#\s*include\s*[\"<][^\">]*fabric_await\.h[\">]")

# One relay loop: DetourEngine sequences rsync relay legs and the API leg.
# The deleted steered engine, which ran a second copy, stays deleted, and
# only the engines that run relay legs own an rsync engine.
STEERED_INCLUDE_RE = re.compile(
    r"#\s*include\s*[\"<][^\">]*transfer/steered\.h[\">]"
)
RSYNC_MEMBER_RE = re.compile(
    r"^\s*(?:(?:static|mutable|const)\s+)*"
    r"(?:std::(?:unique_ptr|shared_ptr|optional|vector|deque)\s*<\s*)?"
    r"(?:(?:droute::)?transfer::)?RsyncEngine\s*>?\s+\w+\s*[;{=\[]"
)
RSYNC_MEMBER_ALLOWED_FILES = {
    Path("src/transfer/rsync_engine.h"),
    Path("src/transfer/detour.h"),
}
# One API upload session: ApiUploadEngine::upload_task opens, feeds,
# finalizes and abandons provider sessions; nothing else under src/ (the
# cloud package itself aside) drives a StorageServer session.
API_SESSION_RE = re.compile(
    r"(?:\.|->)\s*(?:(?:create_session|append_chunk|abandon)\s*\("
    r"|finalize\s*\(\s*(?:[^)\s]|$))"
)
API_SESSION_ALLOWED_DIR = ("src", "cloud")
API_SESSION_ALLOWED_FILES = {Path("src/transfer/api_upload.cpp")}
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct|union)\b")
ENUM_HEAD_RE = re.compile(r"\benum\b")


def class_scope_lines(lines: list[str]) -> list[bool]:
    """For each comment-stripped line, whether it starts inside the body of
    a class, struct or union (rather than a namespace, function or
    initializer). A brace opens a class body when the text since the last
    `;`, `{` or `}` names class/struct/union, is no enum, and holds no `(`
    (which would make it a function head, e.g. under `template <class T>`).
    """
    scopes: list[bool] = []
    stack: list[bool] = []
    head = ""
    for line in lines:
        scopes.append(bool(stack) and stack[-1])
        for c in line:
            if c == "{":
                stack.append(
                    bool(CLASS_HEAD_RE.search(head))
                    and not ENUM_HEAD_RE.search(head)
                    and "(" not in head
                )
                head = ""
            elif c == "}":
                if stack:
                    stack.pop()
                head = ""
            elif c == ";":
                head = ""
            else:
                head += c
        head += " "
    return scopes


# Metric-name literals at instrument call sites. Runs on RAW lines (names
# live inside string literals, which strip_code removes).
METRIC_CALL_RE = re.compile(
    r"(?:obs::|\.|->)(?P<kind>counter|gauge|histogram|count)\s*\(\s*"
    r"\"(?P<name>[^\"]*)\""
)
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")
HISTOGRAM_UNIT_SUFFIXES = ("_s", "_bytes", "_mbps", "_ratio")

# Bench-case registrations. The unit operand must be a non-empty string
# literal so BENCH_*.json always carries a labeled axis. The macro's own
# #define in bench/harness.h is skipped by the directive check.
BENCH_CASE_RE = re.compile(r"\bDROUTE_BENCH\s*\(\s*(?P<name>\w+)\s*,\s*(?P<unit>[^)]*)\)")
BENCH_UNIT_OK_RE = re.compile(r'^"[^"]+"$')

# Replay-corpus provenance headers (written by proptest's shrinker; kept by
# hand-authored cases too). `violated` names a run_case property or "none".
CORPUS_SEED_RE = re.compile(r"^#\s*seed:\s*(?P<seed>\d+)\s*$")
CORPUS_VIOLATED_RE = re.compile(r"^#\s*violated:\s*[a-z][a-z0-9_]*\s*$")
CORPUS_CASE_RE = re.compile(r"^case\s+(?P<seed>\d+)\s*$")


def strip_code(line: str) -> str:
    """Removes string/char literals and trailing // comments (single line).

    Block comments are handled by the caller via a running state flag.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            i += 1
            out.append(quote + quote)  # keep token boundaries
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []
        # WaiverSet for the file currently being linted; report() consults
        # it so every check detects first and suppresses second (which is
        # what lets stale waivers be noticed at all).
        self._waivers = WaiverSet()

    def report(self, path: Path, line_no: int, rule: str, message: str) -> None:
        if self._waivers.allows(line_no, rule):
            return
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line_no}: [{rule}] {message}")

    def report_stale_waivers(self, path: Path) -> None:
        for waiver in self._waivers.stale():
            rel = path.relative_to(self.root)
            self.violations.append(
                f"{rel}:{waiver.line_no}: [waiver-stale] "
                f"`lint: allow({waiver.rule})` suppresses nothing — the "
                "violation moved or was fixed; delete the marker"
            )
        self._waivers = WaiverSet()

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root)
        text = path.read_text(encoding="utf-8")
        raw_lines = text.splitlines()
        self._waivers = WaiverSet.parse(raw_lines, "lint")

        if path.suffix == ".h":
            self.check_pragma_once(path, raw_lines)

        # Build comment-stripped lines (tracking /* */ state across lines).
        stripped: list[str] = []
        in_block = False
        for line in raw_lines:
            if in_block:
                end = line.find("*/")
                if end == -1:
                    stripped.append("")
                    continue
                line = line[end + 2:]
                in_block = False
            code = strip_code(line)
            while True:
                start = code.find("/*")
                if start == -1:
                    break
                end = code.find("*/", start + 2)
                if end == -1:
                    code = code[:start]
                    in_block = True
                    break
                code = code[:start] + " " + code[end + 2:]
            stripped.append(code)

        in_transfer = rel.parts[: len(JOB_STATE_SCOPE)] == JOB_STATE_SCOPE
        no_callback_alias = rel.parts[:2] in CALLBACK_ALIAS_SCOPES
        may_start_flows = (
            rel.parts[: len(START_FLOW_ALLOWED_DIR)] == START_FLOW_ALLOWED_DIR
            or rel in START_FLOW_ALLOWED_FILES
        )
        may_drive_sessions = (
            rel.parts[: len(API_SESSION_ALLOWED_DIR)] == API_SESSION_ALLOWED_DIR
            or rel in API_SESSION_ALLOWED_FILES
        )
        in_class = (
            [False] * len(stripped)
            if rel in RSYNC_MEMBER_ALLOWED_FILES
            else class_scope_lines(stripped)
        )
        for idx, code in enumerate(stripped):
            line_no = idx + 1
            self.check_raw_new(path, line_no, code)
            if rel not in TIME_EQ_EXEMPT:
                self.check_time_eq(path, line_no, code)
            self.check_metric_name(path, line_no, raw_lines[idx])
            self.check_task_shim(path, line_no, raw_lines[idx])
            self.check_fabric_flow(path, line_no, code, raw_lines[idx],
                                   may_start_flows)
            if in_transfer:
                self.check_job_state(path, line_no, code)
            if no_callback_alias:
                self.check_callback_alias(path, line_no, code)
            self.check_relay_chain(path, line_no, code, raw_lines[idx],
                                   in_class[idx])
            if not may_drive_sessions:
                self.check_api_session(path, line_no, code)
        if path.suffix == ".h":
            self.check_nodiscard(path, stripped)
        self.report_stale_waivers(path)

    def check_pragma_once(self, path: Path, lines: list[str]) -> None:
        for line in lines:
            text = line.strip()
            if text == "#pragma once":
                return
            if text.startswith("#") and not text.startswith("#pragma"):
                break  # some other directive came first
        self.report(path, 1, "pragma-once", "header is missing #pragma once")

    def check_raw_new(self, path: Path, line_no: int, code: str) -> None:
        # `= delete`d special members are declarations, not deallocations.
        code = re.sub(r"=\s*delete\b", "", code)
        if NEW_DELETE_RE.search(code):
            self.report(
                path, line_no, "raw-new",
                "raw new/delete — use containers or smart pointers "
                "(waive with `lint: allow(raw-new)` and a reason)",
            )

    def check_job_state(self, path: Path, line_no: int, code: str) -> None:
        if JOB_STATE_RE.search(code):
            self.report(
                path, line_no, "job-state",
                "shared-state *Job* allocation — write the pipeline as a "
                "sim::Task<T> coroutine instead (DESIGN.md §10; waive with "
                "`lint: allow(job-state)` and a reason)",
            )

    def check_task_shim(self, path: Path, line_no: int, raw: str) -> None:
        if TASK_SHIM_RE.search(raw):
            self.report(
                path, line_no, "task-shim",
                "include of the deleted transfer/task_shim.h — call the "
                "engine's coroutine entry point and co_await it or drive() "
                "it instead (DESIGN.md §15)",
            )

    def check_callback_alias(self, path: Path, line_no: int, code: str) -> None:
        if CALLBACK_ALIAS_RE.search(code):
            self.report(
                path, line_no, "task-shim",
                "callback alias in the transfer or control layer — expose "
                "the sim::Task coroutine as the one entry point and let "
                "callers co_await it or drive() it (DESIGN.md §10)",
            )

    def check_fabric_flow(
        self, path: Path, line_no: int, code: str, raw: str,
        may_start_flows: bool,
    ) -> None:
        if FABRIC_AWAIT_RE.search(raw):
            self.report(
                path, line_no, "fabric-flow",
                "include of the deleted net/fabric_await.h — submit the leg "
                "to the world's transfer::TransferEngine and co_await the "
                "BatchHandle instead (DESIGN.md §15)",
            )
        if not may_start_flows and START_FLOW_RE.search(code):
            self.report(
                path, line_no, "fabric-flow",
                "Fabric::start_flow outside src/net/ and the sim transport — "
                "move the bytes through the fabric's TransferEngine "
                "(DESIGN.md §15)",
            )

    def check_relay_chain(
        self, path: Path, line_no: int, code: str, raw: str, in_class: bool,
    ) -> None:
        if STEERED_INCLUDE_RE.search(raw):
            self.report(
                path, line_no, "relay-chain",
                "include of the deleted transfer/steered.h — run the session "
                "with DetourEngine::steered_task (DESIGN.md §15)",
            )
        if in_class and RSYNC_MEMBER_RE.search(code):
            self.report(
                path, line_no, "relay-chain",
                "RsyncEngine member outside the relay engines — run relay "
                "chains through DetourEngine::transfer_task instead of a "
                "second relay loop (DESIGN.md §15)",
            )

    def check_api_session(self, path: Path, line_no: int, code: str) -> None:
        if API_SESSION_RE.search(code):
            self.report(
                path, line_no, "api-session",
                "StorageServer session call outside the API upload engine — "
                "run the provider leg as ApiUploadEngine::upload_task (feed "
                "it a ChunkFeed to pipeline it) instead of a second session "
                "loop (DESIGN.md §15)",
            )

    def check_time_eq(self, path: Path, line_no: int, code: str) -> None:
        if TIME_EQ_RE.search(code):
            self.report(
                path, line_no, "time-eq",
                "direct ==/!= on a sim::Time expression — use sim::time_eq "
                "or sim::time_ne with an explicit epsilon",
            )

    def check_metric_name(self, path: Path, line_no: int, raw: str) -> None:
        rel = path.relative_to(self.root)
        subsystem = (
            rel.parts[1]
            if len(rel.parts) > 2 and rel.parts[0] == "src"
            else None
        )
        for match in METRIC_CALL_RE.finditer(raw):
            kind = match.group("kind")
            name = match.group("name")
            if not METRIC_NAME_RE.match(name):
                self.report(
                    path, line_no, "metric-name",
                    f'"{name}" is not `subsystem.noun_verb` '
                    "(lowercase dotted segments)",
                )
                continue
            if subsystem is not None and not name.startswith(subsystem + "."):
                self.report(
                    path, line_no, "metric-prefix",
                    f'"{name}" registered under src/{subsystem}/ must be '
                    f"named {subsystem}.*",
                )
            if kind in ("counter", "count") and not name.endswith("_total"):
                self.report(
                    path, line_no, "metric-name",
                    f'counter "{name}" must end in _total',
                )
            elif kind == "gauge" and name.endswith("_total"):
                self.report(
                    path, line_no, "metric-name",
                    f'gauge "{name}" must not end in _total',
                )
            elif kind == "histogram" and not name.endswith(
                HISTOGRAM_UNIT_SUFFIXES
            ):
                self.report(
                    path, line_no, "metric-name",
                    f'histogram "{name}" must end in a unit suffix '
                    f"({', '.join(HISTOGRAM_UNIT_SUFFIXES)})",
                )

    def check_nodiscard(self, path: Path, lines: list[str]) -> None:
        for idx, code in enumerate(lines):
            if not NODISCARD_DECL_RE.match(code):
                continue
            if "(" not in code or DECL_EXCLUDE_RE.search(code):
                continue
            here = "[[nodiscard]]" in code
            above = idx > 0 and "[[nodiscard]]" in lines[idx - 1]
            if not (here or above):
                self.report(
                    path, idx + 1, "nodiscard",
                    "Result/Status-returning declaration lacks [[nodiscard]]",
                )

    def check_bench_file(self, path: Path) -> None:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        self._waivers = WaiverSet.parse(raw_lines, "lint")
        for idx, raw in enumerate(raw_lines):
            if raw.lstrip().startswith("#"):
                continue  # the macro's own #define in harness.h
            for match in BENCH_CASE_RE.finditer(raw):
                unit = match.group("unit").strip()
                if not BENCH_UNIT_OK_RE.match(unit):
                    self.report(
                        path, idx + 1, "bench-unit",
                        f"bench case `{match.group('name')}` must declare its "
                        "unit as a non-empty string literal (got "
                        f"{unit or 'nothing'})",
                    )
        self.report_stale_waivers(path)

    def check_corpus_case(self, path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        header_seed = None
        body_seed = None
        has_violated = False
        for line in lines:
            if m := CORPUS_SEED_RE.match(line):
                header_seed = m.group("seed")
            elif CORPUS_VIOLATED_RE.match(line):
                has_violated = True
            elif m := CORPUS_CASE_RE.match(line):
                body_seed = m.group("seed")
        if header_seed is None:
            self.report(
                path, 1, "corpus-header",
                "replay case is missing its `# seed: N` provenance header",
            )
        if not has_violated:
            self.report(
                path, 1, "corpus-header",
                "replay case is missing its `# violated: <property>` header "
                "(use `none` for hand-written cases)",
            )
        if (
            header_seed is not None
            and body_seed is not None
            and header_seed != body_seed
        ):
            self.report(
                path, 1, "corpus-header",
                f"`# seed: {header_seed}` disagrees with `case {body_seed}`",
            )

    def run(self) -> int:
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.suffix in (".h", ".cpp"):
                self.lint_file(path)
        bench = self.root / "bench"
        if bench.is_dir():
            for path in sorted(bench.rglob("*")):
                if path.suffix in (".h", ".cpp"):
                    self.check_bench_file(path)
        corpus = self.root / "tests" / "corpus"
        if corpus.is_dir():
            for path in sorted(corpus.glob("*.case")):
                self.check_corpus_case(path)
        if self.violations:
            print(f"lint: {len(self.violations)} violation(s)")
            for v in self.violations:
                print(" ", v)
            return 1
        print("lint: clean")
        return 0


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    root = root.resolve()
    if not (root / "src").is_dir():
        print(f"lint: no src/ under {root}", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
