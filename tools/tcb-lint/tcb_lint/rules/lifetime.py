"""Whole-program lifetime rules: the cross-TU checks clang's
-Wdangling family cannot do.

no-ref-capture-escape  a lambda that captures locals by reference (or
                       `this`) must not flow into a parameter declared
                       TCB_ESCAPES (ThreadPool::submit, TaskGroup::spawn):
                       the callable outlives the call, so every by-ref
                       capture is a latent dangling reference.  Escape
                       sinks propagate through wrappers
                       resolved in the call-graph index, so a helper that
                       forwards its callable into `submit` is itself a
                       sink even when it lives in another TU.  The
                       structured-join pattern is exempt: a lambda handed
                       to a TaskGroup (`tg.spawn(...)` / `tg.add(...)`)
                       that the same function joins, where every by-ref
                       captured local is declared before the group, cannot
                       dangle.  TCB_NO_ESCAPE callables (parallel_for)
                       retire within the call and are never sinks.

use-after-move         intra-function moved-from tracking: a local or
                       member read after `std::move(x)` in the same scope,
                       or moved from inside a loop while declared outside
                       it with no reset (`x = ...`, `.clear()`,
                       `.reset()`, `.assign()`, `std::exchange`), observes
                       a valid-but-unspecified value.  Branch-exclusive
                       moves (if/else arms) and range-for loop variables
                       are understood and never flagged.

span-source-stability  a src/ function returning a reference or a
                       std::span must either carry TCB_LIFETIME_BOUND
                       (tying the return to its source object so clang
                       diagnoses call sites on temporaries) or provably
                       derive from stable storage (a static local, or
                       `return *this`).
"""

from __future__ import annotations

import re

from tcb_lint.program import (CallSite, FunctionInfo, LambdaInfo,
                              ProgramIndex, _match_paren)
from tcb_lint.rules import ProgramRule, register
from tcb_lint.source import Finding

# `std::function<void()> fn TCB_ESCAPES` -> ("fn", "TCB_ESCAPES")
PARAM_RE = re.compile(
    r"([A-Za-z_]\w*)\s*((?:TCB_\w+\s*(?:\([^()]*\))?\s*)*)$")

MOVE_RE = re.compile(
    r"\bstd\s*::\s*move\s*\(\s*"
    r"((?:this\s*->\s*)?[A-Za-z_]\w*(?:\s*\.\s*[A-Za-z_]\w*)*)\s*\)")

CONTROL_HEADER_RE = re.compile(r"\b(for|while|if)\s*\(")
LOOP_HEADER_RE = re.compile(r"\b(?:for|while)\s*\(")
RANGE_VAR_RE = re.compile(
    r"\(\s*(?:const\s+)?[\w:<>,\s]+?[&*\s]\s*([A-Za-z_]\w*)\s*:")


def _callable_params(fn: FunctionInfo) -> dict[str, str]:
    """name -> trailing TCB annotation text for std::function-ish params."""
    from tcb_lint.program import _split_args

    out: dict[str, str] = {}
    for p in _split_args(fn.params):
        if "function<" not in p.replace(" ", "") and "Callback" not in p:
            continue
        pm = PARAM_RE.search(p.strip())
        if pm:
            out[pm.group(1)] = pm.group(2)
    return out


def _escape_sinks(index: ProgramIndex) -> dict[str, str]:
    """qualname -> why its callable parameter escapes the call.

    Seeds are TCB_ESCAPES declarations; the fixpoint adds wrappers that
    forward a callable parameter into a known sink (resolved through the
    call graph, so the chain crosses TUs).  A TCB_NO_ESCAPE parameter is a
    containment promise and blocks both seeding and propagation.
    """
    sinks: dict[str, str] = {}
    for fn in index.functions:
        if "TCB_ESCAPES" in fn.params or "TCB_ESCAPES" in fn.annots:
            sinks[fn.qualname] = (f"declares its callable parameter "
                                  f"TCB_ESCAPES ({fn.path}:{fn.line})")
    changed = True
    while changed:
        changed = False
        for fn in index.functions:
            if fn.qualname in sinks:
                continue
            params = {name: annots
                      for name, annots in _callable_params(fn).items()
                      if "TCB_NO_ESCAPE" not in annots}
            if not params:
                continue
            for call in fn.calls:
                arg_end = _match_paren(fn.body, call.open_paren)
                args = fn.body[call.open_paren:arg_end]
                passed = [p for p in params
                          if re.search(rf"\b{re.escape(p)}\b", args)]
                if not passed:
                    continue
                for callee in index.resolve_call(fn, call):
                    if callee.qualname in sinks:
                        sinks[fn.qualname] = (
                            f"forwards its callable parameter "
                            f"'{passed[0]}' to {callee.qualname}, "
                            f"which {sinks[callee.qualname]}")
                        changed = True
                        break
                if fn.qualname in sinks:
                    break
    return sinks


def _dangerous_captures(lam: LambdaInfo) -> list[str]:
    out = []
    for c in lam.captures:
        c = c.strip()
        if c == "&" or c == "this" or (c.startswith("&") and "=" not in c):
            out.append(c)
    return out


def _first_word_pos(code: str, name: str) -> int:
    m = re.search(rf"(?<![\w.>]){re.escape(name)}\b", code)
    return m.start() if m else -1


def _structured_join(index: ProgramIndex, fn: FunctionInfo,
                     enclosing: list[CallSite], lam: LambdaInfo,
                     captures: list[str]) -> bool:
    """True when the lambda is handed to a TaskGroup the function joins and
    every by-ref captured local is declared before the group (so it strictly
    outlives every task the group still owns)."""
    for call in enclosing:
        if call.name not in ("add", "spawn") or call.recv_class != "TaskGroup":
            continue
        tg = (call.recv or "").strip()
        if not re.fullmatch(r"[A-Za-z_]\w*", tg):
            continue
        if not re.search(rf"\b{re.escape(tg)}\s*\.\s*join\s*\(", fn.body):
            continue
        tg_pos = _first_word_pos(fn.body, tg)
        ok = True
        for c in captures:
            if not c.startswith("&") or c == "&":
                continue  # `this` / default capture: nothing to order
            name = c.lstrip("&").strip()
            first = _first_word_pos(fn.body[:lam.start], name)
            if first > tg_pos:       # named local born after the group
                ok = False
                break
        if ok:
            return True
    return False


@register
class NoRefCaptureEscape(ProgramRule):
    """By-reference captures must not escape into deferred work.

    A callable passed to a TCB_ESCAPES parameter (ThreadPool::submit and
    anything that forwards into it, found by fixpoint) outlives the call;
    its [&] captures dangle the moment the enclosing frame returns. The
    structured-join pattern (TaskGroup declared after the state, joined in
    the same function) is the sanctioned exception.

    Violation:
        int hits = 0;
        pool.submit([&hits] { ++hits; });   // frame may be gone when it runs
    Clean:
        pool.submit([snapshot = hits] { consume(snapshot); });
    """

    name = "no-ref-capture-escape"
    description = ("a lambda capturing locals by reference (or `this`) must "
                   "not flow into a TCB_ESCAPES callable parameter "
                   "(ThreadPool::submit and wrappers that forward to it); "
                   "the task outlives the call, so by-ref captures dangle — "
                   "capture by value, or use the TaskGroup structured-join "
                   "pattern with captures declared before the group")

    def check_program(self, index: ProgramIndex) -> list[Finding]:
        sinks = _escape_sinks(index)
        out: list[Finding] = []
        for fn in index.functions:
            if not index.effective_path(fn.path).startswith("src/"):
                continue
            for lam in fn.lambdas:
                captures = _dangerous_captures(lam)
                if not captures:
                    continue
                enclosing = [
                    c for c in fn.calls
                    if 0 <= c.open_paren < lam.start
                    and _match_paren(fn.body, c.open_paren) >= lam.end]
                if not enclosing:
                    continue
                innermost = max(enclosing, key=lambda c: c.open_paren)
                sink = next(
                    (callee for callee in index.resolve_call(fn, innermost)
                     if callee.qualname in sinks), None)
                if sink is None:
                    continue
                if _structured_join(index, fn, enclosing, lam, captures):
                    continue
                line = index.line_of(fn, lam.start)
                if index.suppressed(self.name, fn.path, line):
                    continue
                out.append(Finding(
                    self.name, fn.path, line,
                    f"{fn.qualname} passes a lambda capturing "
                    f"[{', '.join(captures)}] by reference to "
                    f"{sink.qualname}, which {sinks[sink.qualname]}; the "
                    f"callable outlives the call, so these captures dangle "
                    f"— capture by value or join through a TaskGroup "
                    f"declared after the captured state"))
        out.sort(key=lambda f: (f.path, f.line, f.message))
        return out


def _reset_after(code: str, pos: int, target: str) -> bool:
    """Does `target` get reassigned/cleared right at `pos`?"""
    tail = code[pos:pos + 40]
    m = re.match(r"\s*(=[^=]|\.\s*(clear|reset|assign)\s*\()", tail)
    if m:
        return True
    head = code[:pos]
    return bool(re.search(r"\bstd\s*::\s*exchange\s*\(\s*$", head))


def _use_after_move_region(code: str, first_line: int, path: str,
                           where: str, index: ProgramIndex, rule: str,
                           members: frozenset[str] = frozenset()
                           ) -> list[Finding]:
    out: list[Finding] = []

    def line_of(pos: int) -> int:
        return first_line + code.count("\n", 0, pos)

    depth_at = []
    d = 0
    for ch in code:
        depth_at.append(d)
        if ch == "{":
            d += 1
        elif ch == "}":
            d = max(0, d - 1)

    # Loop body extents, with their header text for range-for detection.
    loops: list[tuple[int, int, int, str]] = []
    for lm in LOOP_HEADER_RE.finditer(code):
        hdr_end = _match_paren(code, lm.end() - 1)
        bm = re.match(r"\s*\{", code[hdr_end:])
        if bm:
            body_start = hdr_end + bm.end()
            close = next((i for i in range(body_start, len(code))
                          if depth_at[i] < depth_at[body_start]), len(code))
            loops.append((lm.start(), body_start, close,
                          code[lm.start():hdr_end]))

    for m in MOVE_RE.finditer(code):
        target = re.sub(r"\s+", "", m.group(1))
        base = target.split("->")[-1].split(".")[0] or target
        # A move inside a return statement: the moved-from object is dead
        # past the return.  Scan back to the previous ';' only — braces from
        # brace-init temporaries (`NaiveBatcher{}.build(std::move(x))`) are
        # part of the same statement.
        last_semi = code.rfind(";", 0, m.start())
        if re.search(r"\b(?:co_)?return\b", code[last_semi + 1:m.start()]):
            continue
        stmt_start = max(code.rfind(c, 0, m.start()) for c in ";{}") + 1
        lead = code[stmt_start:m.start()]
        # `for (...) stmt;` / `if (...) stmt;`: a brace-less control body is
        # its own scope — nothing after the ';' can see this statement's
        # state (handles move-push in a brace-less range-for followed by an
        # unrelated loop reusing the variable name).
        braceless = False
        for cm in CONTROL_HEADER_RE.finditer(lead):
            if _match_paren(lead, cm.end() - 1) <= len(lead):
                braceless = True
                break
        stmt_end = code.find(";", m.end())
        if stmt_end < 0:
            stmt_end = len(code)

        use_re = re.compile(rf"(?<![\w.>]){re.escape(target)}\b")

        if not braceless:
            scope_end = next(
                (i for i in range(stmt_end, len(code))
                 if depth_at[i] < depth_at[m.start()]), len(code))
            for um in use_re.finditer(code, stmt_end + 1, scope_end):
                if _reset_after(code, um.end(), target):
                    break
                line = line_of(um.start())
                if not index.suppressed(rule, path, line):
                    out.append(Finding(
                        rule, path, line,
                        f"'{target}' is used here after being moved from on "
                        f"line {line_of(m.start())} in {where}; a moved-from "
                        f"object holds a valid but unspecified value — "
                        f"reset it (assign / .clear()) before reuse, or "
                        f"restructure so the move is last"))
                break

        # Loop-carried move: moved every iteration, declared outside the
        # loop, never reset inside it -> iteration 2 reads moved-from state.
        # Every enclosing loop is judged on its own: an object fresh per
        # iteration of the inner loop can still be loop-carried state of an
        # outer one.
        for hdr_start, body_start, body_end, header in loops:
            if not (body_start <= m.start() < body_end):
                continue
            rv = RANGE_VAR_RE.search(header)
            if rv and rv.group(1) == base:
                continue  # fresh binding every iteration
            sb = re.search(r"\[([\w\s,]+)\]\s*:", header)
            if sb and base in [n.strip() for n in sb.group(1).split(",")]:
                continue  # structured-binding range-for: fresh per iteration
            if re.search(rf"[\w>\]]\s*[&*]?\s+{re.escape(base)}\s*[;={{(]",
                         code[body_start:m.start()]):
                continue  # declared inside this loop's body
            if target != "this" and base != "this" and base not in members \
                    and _first_word_pos(code[:hdr_start], base) < 0:
                continue  # base never named before the loop: not outer state
            body = code[body_start:body_end]
            if re.search(
                    rf"(?<![\w.>]){re.escape(target)}\s*"
                    rf"(=[^=]|\.\s*(clear|reset|assign)\s*\()", body) \
                    or re.search(
                        rf"\bstd\s*::\s*exchange\s*\(\s*"
                        rf"{re.escape(target)}\b", body):
                continue  # restored somewhere in the loop body
            line = line_of(m.start())
            if not index.suppressed(rule, path, line):
                out.append(Finding(
                    rule, path, line,
                    f"'{target}' is moved from inside a loop in {where} but "
                    f"declared outside it and never reset in the loop body; "
                    f"the next iteration reads a moved-from value — "
                    f"re-initialize it after the move or declare it inside "
                    f"the loop"))
            break
    return out


@register
class UseAfterMove(ProgramRule):
    """A moved-from object is unusable until reset.

    Reading a local/member after std::move in the same scope, or moving
    loop-external state inside a loop without re-initializing it, operates
    on a valid-but-unspecified husk — empty vectors, null handles —
    usually silently.

    Violation:
        sink(std::move(buf));
        use(buf.size());            // moved-from read
    Clean:
        sink(std::move(buf));
        buf.clear();                // reset re-arms it
        use(buf.size());
    """

    name = "use-after-move"
    description = ("no read of a local or member after std::move in the "
                   "same scope, and no loop-carried move of state declared "
                   "outside the loop without a reset (assignment, .clear(), "
                   ".reset(), .assign(), std::exchange); branch-exclusive "
                   "moves and range-for variables are exempt")

    def check_program(self, index: ProgramIndex) -> list[Finding]:
        out: list[Finding] = []
        for fn in index.functions:
            if not index.effective_path(fn.path).startswith("src/"):
                continue
            members = frozenset(index.classes[fn.cls].members) \
                if fn.cls in index.classes else frozenset()
            out.extend(_use_after_move_region(
                fn.body, fn.body_first_line, fn.path, fn.qualname,
                index, self.name, members))
            # Deferred bodies are their own execution: analyze each lambda
            # as a pseudo-function at its recorded offsets.
            for lam in fn.lambdas:
                open_brace = lam.text.find("{")
                out.extend(_use_after_move_region(
                    lam.text[open_brace + 1:-1],
                    fn.body_first_line
                    + fn.body.count("\n", 0, lam.start + open_brace),
                    fn.path, f"a lambda in {fn.qualname}", index, self.name,
                    members))
        out.sort(key=lambda f: (f.path, f.line, f.message))
        return out


@register
class SpanSourceStability(ProgramRule):
    """Reference/span returns must declare what they borrow from.

    A src/ function returning a reference or std::span either borrows
    from its arguments — then it must carry TCB_LIFETIME_BOUND so clang
    flags `auto& r = f(Temp{});` at the call site — or returns storage
    whose stability the rule can prove (static local, *this).

    Violation:
        const Row& first_row(const Plan& p) { return p.rows[0]; }
    Clean:
        const Row& first_row(const Plan& p TCB_LIFETIME_BOUND) {
          return p.rows[0];
        }
    """

    name = "span-source-stability"
    description = ("a src/ function returning a reference or std::span must "
                   "carry TCB_LIFETIME_BOUND (so clang diagnoses dangling "
                   "call sites on temporaries) or provably return stable "
                   "storage (a static local, or *this); see "
                   "src/util/lifetime.hpp")

    def check_program(self, index: ProgramIndex) -> list[Finding]:
        out: list[Finding] = []
        seen: set[tuple[str, int]] = set()
        for fn in index.functions:
            if not index.effective_path(fn.path).startswith("src/"):
                continue
            ret = fn.ret_type
            if not ret or fn.name.startswith("operator"):
                continue
            ref_ret = ret.endswith("&") and not ret.endswith("&&")
            span_ret = "span<" in ret.replace(" ", "")
            if not (ref_ret or span_ret):
                continue
            if "TCB_LIFETIME_BOUND" in fn.annots \
                    or "TCB_LIFETIME_BOUND" in fn.params:
                continue
            # Stable storage: function-local statics live forever; *this
            # chaining returns the caller's own object.
            if re.search(r"\bstatic\s+[\w:<>]+[^;]*;", fn.body) \
                    or re.search(r"\breturn\s*\*\s*this\b", fn.body):
                continue
            if (fn.path, fn.line) in seen:
                continue
            seen.add((fn.path, fn.line))
            if index.suppressed(self.name, fn.path, fn.line):
                continue
            kind = "a std::span" if span_ret else f"'{ret}'"
            out.append(Finding(
                self.name, fn.path, fn.line,
                f"{fn.qualname} returns {kind} without TCB_LIFETIME_BOUND; "
                f"the borrow is invisible to callers and clang cannot "
                f"diagnose dangling uses on temporaries — annotate it "
                f"(src/util/lifetime.hpp) or return stable storage"))
        out.sort(key=lambda f: (f.path, f.line, f.message))
        return out
