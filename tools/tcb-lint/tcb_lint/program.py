"""The whole-program index the cross-TU rules run on.

Clang Thread Safety Analysis is per-function and per-TU; the three
concurrency rules (lock-order-graph, no-blocking-under-lock,
tainted-admission) need facts that span translation units: which class
member every `MutexLock` resolves to, which locks a callee acquires
transitively, which functions block.  This module builds that view from the
same comment/string-blanked `SourceFile`s the per-file rules use:

  classes     name -> members (with types), bases, mutex members
  functions   every definition: owning class, parameter/local types,
              `MutexLock` scopes (with brace-matched lifetimes),
              call sites (with receiver-resolved callees)
  mutexes     lock identities ("Class::member" or "lock_order::anchor")
              with their declared TCB_ACQUIRED_BEFORE/AFTER ranks
  closures    memoized acquires-closure and blocking-closure over the
              name-resolved call graph

Precision policy: this is a lexical analysis, so resolution can fail
(templates, call-result receivers, lambdas).  Unresolved receivers are
*never* flagged — a `std::queue::pop` under a lock must not be confused
with the blocking `TaskGroup::join`.  Lambda bodies are blanked before
scope analysis: code captured into a lambda runs later, on another thread,
not under the lock held at the capture site.  Virtual calls fan out to
every override found in subclasses of the receiver's static type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from tcb_lint.source import SourceFile

KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "throw",
    "static_assert", "decltype", "alignof", "new", "delete", "do", "else",
    "case", "default", "operator", "co_return", "co_await", "co_yield",
    "assert", "defined",
}

# Tokens that may legally precede a call expression; any *other* identifier
# directly before `name(` means `name` is a declarator (e.g. `MutexLock
# lock(mutex_)`), not a call.
CALL_PRECEDERS = {"return", "co_return", "co_await", "co_yield", "throw",
                  "else", "do", "case"}

CLASS_RE = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(:\s*[^{;]*)?\{")
BASE_RE = re.compile(r"(?:public|protected|private)?\s*(?:virtual\s+)?"
                     r"([A-Za-z_][\w:]*)")
NAMESPACE_RE = re.compile(
    r"\bnamespace\s+((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)?\s*\{")

MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:inline\s+)?(?:constexpr\s+)?"
    r"(?:const\s+)?"
    r"([A-Za-z_][\w:]*(?:\s*<[^;()]*>)?)"       # type
    r"\s*[&*]?\s+([A-Za-z_]\w*)\s*"             # name
    r"((?:TCB_\w+\s*\([^;]*?\)\s*)*)"           # annotations
    r"(?:=[^;]*|\{[^;]*\})?;", re.M)

FN_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*)"              # qualified prefix
    r"([A-Za-z_~]\w*)\s*"                       # name
    r"\(((?:[^()]|\([^()]*\))*)\)\s*"           # params (1 nesting level, so
                                                # std::function<void()> works)
    r"((?:const\b\s*|noexcept\b\s*|override\b\s*|final\b\s*|"
    r"TCB_\w+\s*(?:\([^()]*\))?\s*|->\s*[\w:&<>,\s]+?\s*)*)"
    r"(?::\s*[^{;]*?)?\{")                      # ctor init list, then body

# Tokens stripped from the text preceding a definition to recover its return
# type (span-source-stability keys on it).
RET_STRIP_RE = re.compile(
    r"\[\[[^\]]*\]\]|\btemplate\s*<[^;{}]*>|"
    r"\b(?:inline|static|virtual|explicit|constexpr|friend|extern|typename|"
    r"mutable)\b|\b(?:public|protected|private)\s*:")

LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:noexcept\s*)?(?:->\s*[\w:&<>\s]+?\s*)?\{")

MUTEXLOCK_RE = re.compile(
    r"(?:const\s+)?(?:tcb\s*::\s*)?MutexLock\s+[A-Za-z_]\w*\s*"
    r"[({]\s*([^(){};]*?)\s*[)}]\s*;")

REQUIRES_RE = re.compile(r"TCB_REQUIRES\s*\(([^()]*)\)")
ACQ_AFTER_RE = re.compile(r"TCB_ACQUIRED_AFTER\s*\(([^()]*)\)")
ACQ_BEFORE_RE = re.compile(r"TCB_ACQUIRED_BEFORE\s*\(([^()]*)\)")

CALL_RE = re.compile(
    r"(?:"
    r"(?P<recv>this|[A-Za-z_]\w*(?:\s*\[[^\[\]]*\])?|[A-Za-z_]\w*\s*\{[^{}]*\}"
    r"|(?:[A-Za-z_]\w*\s*::\s*)+(?:global|instance)\s*\(\s*\))"
    r"\s*(?P<op>\.|->)\s*"
    r")?"
    r"(?P<quals>(?:[A-Za-z_]\w*\s*::\s*)*)"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")

LOCAL_RE = re.compile(
    r"^\s*(?:const\s+)?"
    r"([A-Za-z_][\w:]*(?:<[^;=(){}]*>)?)"       # type
    r"\s*[&*]?\s+([A-Za-z_]\w*)\s*[=({;]", re.M)

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?([\w:]+(?:<[^()]*>)?|auto)\s*[&*]*\s*"
    r"([A-Za-z_]\w*)\s*:\s*([^)]+)\)")

TEMPLATE_ARG_RE = re.compile(r"<\s*(?:const\s+)?([\w:]+)\s*[&*]?\s*>")


def base_type(type_text: str) -> str:
    """'const tcb::RequestQueue&' -> 'RequestQueue'; keeps std:: prefixes."""
    t = type_text.strip()
    t = re.sub(r"\btcb\s*::\s*", "", t)
    t = re.sub(r"\bconst\b", "", t).strip()
    t = t.rstrip("&* ")
    if t.startswith("std::"):
        return t
    return t.split("::")[-1]


def element_type(type_text: str) -> str | None:
    """'std::vector<Request>' -> 'Request' (container element)."""
    m = TEMPLATE_ARG_RE.search(type_text)
    if m:
        return base_type(m.group(1))
    return None


@dataclass
class MutexInfo:
    lock_id: str                      # "Class::member" or "ns::name"
    path: str
    line: int
    acquired_after: list[str] = field(default_factory=list)
    acquired_before: list[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    path: str
    line: int
    bases: list[str] = field(default_factory=list)
    members: dict[str, str] = field(default_factory=dict)  # name -> base type
    mutex_members: set[str] = field(default_factory=set)


@dataclass
class LockScope:
    lock_id: str | None               # None = unresolved (still "a lock held")
    expr: str
    line: int
    start: int                        # char offsets into the function body
    end: int


@dataclass
class CallSite:
    name: str
    recv: str | None                  # raw receiver text (None = free call)
    recv_class: str | None            # resolved receiver class, or None
    quals: str                        # explicit A::B:: qualification
    line: int
    pos: int
    open_paren: int = -1              # offset of the call's '(' in the body


@dataclass
class LambdaInfo:
    start: int                        # char offsets into the *raw* function
    end: int                          # body (1:1 with the blanked body)
    captures: list[str]               # raw capture tokens ('&', '&x', 'this')
    text: str                         # full raw lambda text (introducer+body)


@dataclass
class FunctionInfo:
    name: str
    cls: str | None
    path: str
    line: int
    params: str
    body: str                         # lambda-blanked body text
    body_first_line: int
    ns: str | None = None             # innermost enclosing namespace
    ret_type: str = ""                # normalized return type ("" = ctor/dtor)
    annots: str = ""                  # trailing qualifiers + decl annotations
    raw_body: str = ""                # unblanked body (same length as body)
    requires: list[str] = field(default_factory=list)       # raw args
    scopes: list[LockScope] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    lambdas: list[LambdaInfo] = field(default_factory=list)
    types: dict[str, str] = field(default_factory=dict)     # var -> base type

    @property
    def qualname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def held_at(self, pos: int) -> list[LockScope]:
        return [s for s in self.scopes if s.start <= pos < s.end]


def _match_brace(code: str, open_brace: int) -> int:
    """Index just past the brace matching code[open_brace] (== len on EOF)."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _match_paren(code: str, open_paren: int) -> int:
    """Index just past the paren matching code[open_paren] (== len on EOF)."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def _collect_lambdas(body: str) -> tuple[str, list[LambdaInfo]]:
    """Blank every top-level lambda and record it.

    Deferred work does not run under the locks held at its capture site, so
    leaving lambda bodies in place would fabricate lock-order edges and
    blocking-under-lock findings (e.g. ThreadPool::parallel_for emplacing
    completion lambdas while holding the pool mutex).  Blanking is
    length-preserving (newlines survive), so the recorded offsets stay valid
    in both the raw and the blanked body; the lifetime rules analyze the
    recorded lambdas separately.
    """
    out = body
    lambdas: list[LambdaInfo] = []
    search_from = 0
    while True:
        m = LAMBDA_RE.search(out, search_from)
        if not m:
            return out, lambdas
        open_brace = m.end() - 1
        end = _match_brace(out, open_brace)
        raw = body[m.start():end]
        cm = re.match(r"\[([^\[\]]*)\]", raw)
        captures = _split_args(cm.group(1)) if cm else []
        lambdas.append(LambdaInfo(m.start(), end, captures, raw))
        blanked = "".join(c if c == "\n" else " " for c in out[m.start():end])
        out = out[:m.start()] + blanked + out[end:]
        search_from = m.start() + len(blanked)


def _blank_lambdas(body: str) -> str:
    return _collect_lambdas(body)[0]


def _extents(code: str, pattern: re.Pattern) -> list[tuple[re.Match, int, int]]:
    """(match, body_start, body_end) for every brace-introduced region."""
    out = []
    for m in pattern.finditer(code):
        open_brace = m.end() - 1
        out.append((m, open_brace + 1, _match_brace(code, open_brace) - 1))
    return out


def _split_args(text: str) -> list[str]:
    """Split annotation/parameter text on top-level commas."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


class ProgramIndex:
    """Cross-TU facts for one lint set (the real tree, or one fixture dir)."""

    BLOCKING_SEEDS = {
        "TaskGroup::join": "blocks on future::get for every in-flight task",
        "ThreadPool::submit": "acquires the pool mutex and may run the task "
                              "inline when the pool has no workers",
        "ThreadPool::parallel_for": "blocks until every chunk completes",
    }

    def __init__(self, sources: list[SourceFile]):
        self.sources = {sf.path: sf for sf in sources}
        # Rules scope by effective path (fixtures impersonate src/ paths)
        # but report findings at the real path.
        self.effective = {sf.path: sf.effective_path for sf in sources}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.mutexes: dict[str, MutexInfo] = {}
        self.subclasses: dict[str, list[str]] = {}
        # (cls, method) -> annotation text from header declarations, so
        # TCB_REQUIRES on a declaration reaches the out-of-line definition.
        self._decl_annots: dict[tuple[str, str], str] = {}
        # (namespace, name) -> annotation text for *free* function
        # declarations (TCB_BITWISE on tcb::matmul in ops.hpp must reach the
        # definition in gemm.cpp without colliding with tcb::ref::matmul).
        self._free_decl_annots: dict[tuple[str | None, str], str] = {}
        for sf in sources:
            self._index_file(sf)
        # Merge declaration annotations after *all* files are indexed: the
        # compile DB lists TUs before headers, so an out-of-line definition
        # is usually indexed before the declaration carrying its
        # TCB_REQUIRES / TCB_LIFETIME_BOUND / TCB_ESCAPES annotations.
        for fn in self.functions:
            if fn.cls and (fn.cls, fn.name) in self._decl_annots:
                fn.annots += " " + self._decl_annots[(fn.cls, fn.name)]
            elif fn.cls is None \
                    and (fn.ns, fn.name) in self._free_decl_annots:
                fn.annots += " " + self._free_decl_annots[(fn.ns, fn.name)]
            for rm in REQUIRES_RE.finditer(fn.annots):
                fn.requires.extend(
                    a for a in _split_args(rm.group(1))
                    if a and not a.startswith("!"))
        self._resolve_subclasses()
        for fn in self.functions:
            self._analyze_function(fn)
        self._acq_cache: dict[str, dict[str, tuple[str, int, tuple[str, ...]]]] = {}
        self._blk_cache: dict[str, tuple[str, tuple[str, ...]] | None] = {}

    # -- indexing ----------------------------------------------------------

    def _index_file(self, sf: SourceFile) -> None:
        code = sf.code()
        class_extents = _extents(code, CLASS_RE)
        ns_extents = _extents(code, NAMESPACE_RE)

        def line_of(pos: int) -> int:
            return code.count("\n", 0, pos) + 1

        def innermost_namespace(pos: int) -> str | None:
            best = None
            for m, s, e in ns_extents:
                if s <= pos < e and m.group(1):
                    best = m.group(1)
            if best is None:
                return None
            # `namespace tcb::ref {` nests: the innermost component is the
            # one that disambiguates (tcb::matmul vs tcb::ref::matmul).
            return re.split(r"\s*::\s*", best)[-1]

        for m, s, e in class_extents:
            cname = m.group(2)
            ci = self.classes.setdefault(
                cname, ClassInfo(cname, sf.path, line_of(m.start())))
            if m.group(3):
                for bm in BASE_RE.finditer(m.group(3).lstrip(":")):
                    base = base_type(bm.group(1))
                    if base and base[0].isupper():
                        ci.bases.append(base)
            body = code[s:e]
            for dm in MEMBER_RE.finditer(body):
                mtype, mname, annots = dm.group(1), dm.group(2), dm.group(3)
                bt = base_type(mtype)
                if bt in KEYWORDS or mname in KEYWORDS:
                    continue
                ci.members[mname] = bt
                if bt == "Mutex":
                    ci.mutex_members.add(mname)
                    self._add_mutex(f"{cname}::{mname}", sf.path,
                                    line_of(s + dm.start()), annots, cname)
            # Method declarations carrying annotations (defined elsewhere).
            for dm in re.finditer(
                    r"([A-Za-z_]\w*)\s*\(((?:[^()]|\([^()]*\))*)\)\s*"
                    r"((?:const\b\s*|noexcept\b\s*|override\b\s*|"
                    r"TCB_\w+\s*(?:\([^()]*\))?\s*)*);", body):
                if "TCB_" in dm.group(3) or "TCB_" in dm.group(2):
                    self._decl_annots[(cname, dm.group(1))] = \
                        dm.group(3) + " " + dm.group(2)

        # Free-function declarations carrying annotations (defined in some
        # other TU), keyed by innermost namespace.  Mirrors the member
        # declaration merge above for namespace-scope functions.
        for dm in re.finditer(
                r"([A-Za-z_]\w*)\s*\(((?:[^()]|\([^()]*\))*)\)\s*"
                r"((?:const\b\s*|noexcept\b\s*|"
                r"TCB_\w+\s*(?:\([^()]*\))?\s*)*);", code):
            if "TCB_" not in dm.group(3) or dm.group(1) in KEYWORDS:
                continue
            if any(s <= dm.start() < e for _m, s, e in class_extents):
                continue
            key = (innermost_namespace(dm.start()), dm.group(1))
            prior = self._free_decl_annots.get(key, "")
            self._free_decl_annots[key] = (prior + " " + dm.group(3)).strip()

        # Namespace-scope mutexes (the lock_order anchors).  The annotation
        # group allows paren-less macros too (TCB_LOCK_ORDER_ANCHOR).
        for dm in re.finditer(
                r"^\s*(?:static\s+)?inline\s+(?:tcb\s*::\s*)?Mutex\s+"
                r"([A-Za-z_]\w*)\s*((?:TCB_\w+\s*(?:\([^;]*?\))?\s*)*);",
                code, re.M):
            if any(s <= dm.start() < e for _m, s, e in class_extents):
                continue
            ns = innermost_namespace(dm.start())
            lock_id = f"{ns}::{dm.group(1)}" if ns else dm.group(1)
            self._add_mutex(lock_id, sf.path, line_of(dm.start()),
                            dm.group(2), None)

        # Function definitions.
        for m in FN_RE.finditer(code):
            name = m.group(2)
            if name in KEYWORDS:
                continue
            quals = [q for q in re.split(r"\s*::\s*", m.group(1)) if q]
            open_brace = m.end() - 1
            body_end = _match_brace(code, open_brace) - 1
            cls = quals[-1] if quals else None
            if cls is None:
                for cm, cs, ce in class_extents:
                    if cs <= m.start() < ce:
                        cls = cm.group(2)
                        break
            raw_body = code[open_brace + 1:body_end]
            body, lambdas = _collect_lambdas(raw_body)
            fn = FunctionInfo(
                name=name, cls=cls, path=sf.path,
                line=line_of(m.start()), params=m.group(3), body=body,
                body_first_line=line_of(open_brace + 1),
                ns=innermost_namespace(m.start()),
                ret_type=self._ret_type(code, m.start()),
                raw_body=raw_body, lambdas=lambdas)
            fn.annots = m.group(4) or ""
            self.functions.append(fn)
            self.by_name.setdefault(name, []).append(fn)

    @staticmethod
    def _ret_type(code: str, def_start: int) -> str:
        """Normalized text between the previous statement and a definition.

        Empty for constructors/destructors (nothing precedes the name) and
        whenever the heuristic cannot see a type.  Multi-token types keep
        their '&'/'*'/template structure so rules can key on reference and
        span returns.
        """
        seg_start = max(code.rfind(c, 0, def_start) for c in ";{}") + 1
        seg = RET_STRIP_RE.sub(" ", code[seg_start:def_start])
        return re.sub(r"\s+", " ", seg).strip()

    def _add_mutex(self, lock_id: str, path: str, line: int,
                   annots: str, cls: str | None) -> None:
        mi = MutexInfo(lock_id, path, line)
        for rm in ACQ_AFTER_RE.finditer(annots):
            mi.acquired_after.extend(
                self._resolve_lock_name(a, cls)
                for a in _split_args(rm.group(1)))
        for rm in ACQ_BEFORE_RE.finditer(annots):
            mi.acquired_before.extend(
                self._resolve_lock_name(a, cls)
                for a in _split_args(rm.group(1)))
        self.mutexes[lock_id] = mi

    @staticmethod
    def _resolve_lock_name(arg: str, cls: str | None) -> str:
        arg = re.sub(r"\btcb\s*::\s*", "", arg.strip())
        if "::" in arg or cls is None:
            return arg
        return f"{cls}::{arg}"

    def _resolve_subclasses(self) -> None:
        for ci in self.classes.values():
            for b in ci.bases:
                self.subclasses.setdefault(b, []).append(ci.name)

    # -- per-function analysis --------------------------------------------

    def _analyze_function(self, fn: FunctionInfo) -> None:
        self._collect_types(fn)
        body = fn.body

        def line_of(pos: int) -> int:
            return fn.body_first_line + body.count("\n", 0, pos)

        # Brace depth at every position, for lock-scope lifetimes.
        depth_at = []
        d = 0
        for c in body:
            depth_at.append(d)
            if c == "{":
                d += 1
            elif c == "}":
                d = max(0, d - 1)

        for m in MUTEXLOCK_RE.finditer(body):
            expr = m.group(1)
            d0 = depth_at[m.start()] if m.start() < len(depth_at) else 0
            end = len(body)
            for i in range(m.end(), len(body)):
                if depth_at[i] < d0:
                    end = i
                    break
            fn.scopes.append(LockScope(
                lock_id=self._resolve_mutex_expr(expr, fn),
                expr=expr, line=line_of(m.start()), start=m.start(), end=end))

        for m in CALL_RE.finditer(body):
            name = m.group("name")
            if name in KEYWORDS or name == "MutexLock":
                continue
            recv = m.group("recv")
            if recv is None and not m.group("quals"):
                # `Type name(` is a declaration, not a call: reject when the
                # previous token is an identifier that cannot precede a call.
                before = body[:m.start()].rstrip()
                pm = re.search(r"([A-Za-z_]\w*|[>\]])\s*$", before)
                if pm and pm.group(1) not in CALL_PRECEDERS \
                        and pm.group(1) not in (">", "]"):
                    continue
            fn.calls.append(CallSite(
                name=name, recv=recv,
                recv_class=self._resolve_receiver(recv, fn),
                quals=re.sub(r"\s+", "", m.group("quals") or ""),
                line=line_of(m.start()), pos=m.start(),
                open_paren=m.end() - 1))

    def _collect_types(self, fn: FunctionInfo) -> None:
        for p in _split_args(fn.params):
            pm = re.match(r"(?:const\s+)?([\w:]+(?:<[^()]*>)?)\s*[&*]*\s*"
                          r"([A-Za-z_]\w*)$", p.strip())
            if pm and pm.group(2) not in KEYWORDS:
                fn.types[pm.group(2)] = base_type(pm.group(1))
        for lm in LOCAL_RE.finditer(fn.body):
            ltype, lname = base_type(lm.group(1)), lm.group(2)
            if ltype in KEYWORDS or lname in KEYWORDS or ltype == "return":
                continue
            fn.types.setdefault(lname, ltype)
        for rm in RANGE_FOR_RE.finditer(fn.body):
            rtype, rvar, rexpr = rm.group(1), rm.group(2), rm.group(3).strip()
            if rtype != "auto":
                fn.types[rvar] = base_type(rtype)
                continue
            container = self._expr_type(rexpr, fn)
            elem = element_type(container or "")
            if elem:
                fn.types[rvar] = elem

    def _expr_type(self, expr: str, fn: FunctionInfo) -> str | None:
        expr = expr.strip()
        if re.fullmatch(r"[A-Za-z_]\w*", expr):
            if expr in fn.types:
                return fn.types[expr]
            if fn.cls and fn.cls in self.classes:
                return self.classes[fn.cls].members.get(expr)
        return None

    def _resolve_receiver(self, recv: str | None,
                          fn: FunctionInfo) -> str | None:
        if recv is None:
            return None
        recv = recv.strip()
        if recv == "this":
            return fn.cls
        tm = re.fullmatch(r"([A-Za-z_]\w*)\s*\{[^{}]*\}", recv)
        if tm:  # temporary: NaiveBatcher{}.build(...)
            return tm.group(1) if tm.group(1) in self.classes else None
        sm = re.fullmatch(r"((?:[A-Za-z_]\w*\s*::\s*)+)(?:global|instance)"
                          r"\s*\(\s*\)", recv)
        if sm:  # singleton accessor: ThreadPool::global().submit(...)
            parts = [q for q in re.split(r"\s*::\s*", sm.group(1)) if q]
            return parts[-1] if parts else None
        im = re.fullmatch(r"([A-Za-z_]\w*)\s*\[[^\[\]]*\]", recv)
        if im:  # element access: candidates[i].length
            container = self._expr_type(im.group(1), fn)
            return element_type(container or "")
        t = self._expr_type(recv, fn)
        if t is None:
            return None
        return element_type(t) if t.startswith("std::") else t

    def _resolve_mutex_expr(self, expr: str, fn: FunctionInfo) -> str | None:
        expr = re.sub(r"\btcb\s*::\s*", "", expr.strip())
        if not expr:
            return None
        m = re.fullmatch(r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)", expr)
        if m:
            if "::" in expr:
                return expr if expr in self.mutexes else None
            if fn.cls and fn.cls in self.classes \
                    and expr in self.classes[fn.cls].mutex_members:
                return f"{fn.cls}::{expr}"
            return expr if expr in self.mutexes else None
        am = re.fullmatch(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*([A-Za-z_]\w*)", expr)
        if am:
            cls = self._resolve_receiver(am.group(1), fn)
            if cls and cls in self.classes \
                    and am.group(2) in self.classes[cls].mutex_members:
                return f"{cls}::{am.group(2)}"
        return None

    # -- call resolution and closures -------------------------------------

    def resolve_call(self, fn: FunctionInfo, call: CallSite) -> list[FunctionInfo]:
        """Definitions a call may reach; empty when unresolved.

        Precision-first: a method call only resolves through a receiver
        whose class is known; free calls resolve only when exactly the
        named free function exists.  Virtual calls fan out to overrides in
        every known subclass of the receiver's static type.
        """
        candidates = self.by_name.get(call.name, [])
        if not candidates:
            return []
        if call.recv is not None or call.quals:
            cls = call.recv_class
            if cls is None and call.quals:
                parts = [q for q in call.quals.split("::") if q]
                cls = parts[-1] if parts and parts[-1] in self.classes else None
            if cls is None:
                return []
            wanted = {cls} | set(self._all_subclasses(cls))
            return [c for c in candidates if c.cls in wanted]
        return [c for c in candidates if c.cls is None]

    def _all_subclasses(self, cls: str) -> list[str]:
        out, stack = [], [cls]
        seen = {cls}
        while stack:
            for sub in self.subclasses.get(stack.pop(), []):
                if sub not in seen:
                    seen.add(sub)
                    out.append(sub)
                    stack.append(sub)
        return out

    def held_locks(self, fn: FunctionInfo, pos: int) -> list[tuple[str | None, str, int]]:
        """(lock_id, expr, line) for every lock held at `pos` in fn's body,
        including TCB_REQUIRES preconditions (held for the whole body)."""
        held = [(self._resolve_lock_name_in(r, fn), r, fn.line)
                for r in fn.requires]
        held += [(s.lock_id, s.expr, s.line) for s in fn.held_at(pos)]
        return held

    def _resolve_lock_name_in(self, arg: str, fn: FunctionInfo) -> str | None:
        resolved = self._resolve_mutex_expr(arg, fn)
        return resolved

    def acquires_closure(self, fn: FunctionInfo, _stack: frozenset = frozenset()
                         ) -> dict[str, tuple[str, int, tuple[str, ...]]]:
        """lock_id -> (path, line, call chain) for every lock `fn` may
        acquire, directly or through resolved callees."""
        key = f"{fn.path}:{fn.line}"
        if key in self._acq_cache:
            return self._acq_cache[key]
        if key in _stack:
            return {}
        out: dict[str, tuple[str, int, tuple[str, ...]]] = {}
        for s in fn.scopes:
            if s.lock_id is not None and s.lock_id not in out:
                out[s.lock_id] = (fn.path, s.line, (fn.qualname,))
        stack = _stack | {key}
        for call in fn.calls:
            for callee in self.resolve_call(fn, call):
                for lock_id, (p, ln, chain) in \
                        self.acquires_closure(callee, stack).items():
                    if lock_id not in out:
                        out[lock_id] = (p, ln, (fn.qualname,) + chain)
        if not _stack:
            self._acq_cache[key] = out
        return out

    def blocking_reason(self, fn: FunctionInfo, _stack: frozenset = frozenset()
                        ) -> tuple[str, tuple[str, ...]] | None:
        """Why `fn` may block, or None.  Returns (reason, call chain).

        Direct CondVar::wait makes a function blocking *for its callers*;
        the wait itself, under the lock it releases, is the sanctioned
        pattern and never flagged locally.
        """
        key = f"{fn.path}:{fn.line}"
        if key in self._blk_cache:
            return self._blk_cache[key]
        if key in _stack:
            return None
        result: tuple[str, tuple[str, ...]] | None = None
        if fn.qualname in self.BLOCKING_SEEDS:
            result = (self.BLOCKING_SEEDS[fn.qualname], (fn.qualname,))
        if result is None and re.search(r"\bthis_thread\s*::\s*sleep", fn.body):
            result = ("calls std::this_thread::sleep", (fn.qualname,))
        if result is None:
            for call in fn.calls:
                if call.name == "wait" and call.recv is not None:
                    cls = call.recv_class
                    if cls is None and call.recv:
                        t = self._expr_type(call.recv.strip(), fn)
                        cls = t
                    if cls == "CondVar":
                        result = (f"waits on a CondVar in {fn.qualname} "
                                  f"({fn.path}:{call.line})", (fn.qualname,))
                        break
        if result is None:
            stack = _stack | {key}
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    sub = self.blocking_reason(callee, stack)
                    if sub is not None:
                        result = (sub[0], (fn.qualname,) + sub[1])
                        break
                if result is not None:
                    break
        if not _stack:
            self._blk_cache[key] = result
        return result

    # -- helpers for rules -------------------------------------------------

    def suppressed(self, rule: str, path: str, line: int) -> bool:
        sf = self.sources.get(path)
        return sf is not None and sf.suppressed(rule, line)

    def effective_path(self, path: str) -> str:
        return self.effective.get(path, path)

    def line_of(self, fn: FunctionInfo, pos: int) -> int:
        return fn.body_first_line + fn.body.count("\n", 0, pos)


def build_index(sources: list[SourceFile]) -> ProgramIndex:
    return ProgramIndex(sources)
