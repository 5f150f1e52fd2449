"""Whole-program concurrency rules: the cross-TU checks TSA cannot do.

lock-order-graph       builds the global acquired-before graph from every
                       MutexLock scope and TCB_REQUIRES precondition across
                       all TUs, reports cycles as potential deadlocks (with
                       a witness path per edge), checks observed edges
                       against the canonical order declared through the
                       `lock_order` anchor chain in parallel/sync.hpp, and
                       suggests TCB_ACQUIRED_AFTER annotations for edges the
                       declared order does not cover.

no-blocking-under-lock flags calls that may block — TaskGroup::join,
                       ThreadPool::submit/parallel_for,
                       anything that transitively waits on a CondVar or
                       sleeps — made while a tcb::Mutex is held.  A direct
                       `cv.wait(lock)` is the sanctioned pattern and is
                       never flagged at its own site; it only marks the
                       containing function as blocking for its callers.
"""

from __future__ import annotations

from dataclasses import dataclass

from tcb_lint.program import FunctionInfo, ProgramIndex
from tcb_lint.rules import ProgramRule, register
from tcb_lint.source import Finding


@dataclass(frozen=True)
class Edge:
    src: str          # lock acquired first (held)
    dst: str          # lock acquired while src is held
    path: str
    line: int
    witness: str      # human-readable acquisition chain


def _collect_edges(index: ProgramIndex) -> list[Edge]:
    edges: dict[tuple[str, str], Edge] = {}

    def add(src: str, dst: str, path: str, line: int, witness: str) -> None:
        edges.setdefault((src, dst), Edge(src, dst, path, line, witness))

    for fn in index.functions:
        for scope in fn.scopes:
            if scope.lock_id is None:
                continue
            for held_id, held_expr, _held_line in index.held_locks(fn, scope.start):
                if held_id is None or (held_id == scope.lock_id
                                       and held_expr == scope.expr):
                    continue
                add(held_id, scope.lock_id, fn.path, scope.line,
                    f"{fn.qualname} acquires {scope.lock_id} while holding "
                    f"{held_id}")
        for call in fn.calls:
            held = [(h, e, l) for h, e, l in index.held_locks(fn, call.pos)
                    if h is not None]
            if not held:
                continue
            for callee in index.resolve_call(fn, call):
                for lock_id, (p, ln, chain) in \
                        index.acquires_closure(callee).items():
                    for held_id, _e, _l in held:
                        if held_id == lock_id:
                            continue
                        add(held_id, lock_id, fn.path, call.line,
                            f"{fn.qualname} holds {held_id} and calls "
                            f"{' -> '.join(chain)}, which acquires {lock_id} "
                            f"({p}:{ln})")
    # Self-acquisition: the same lock class taken while an instance of it is
    # already held.  Either a self-deadlock (same instance) or a two-instance
    # ordering hazard (no instance-level order exists) — reported directly.
    for fn in index.functions:
        for scope in fn.scopes:
            if scope.lock_id is None:
                continue
            for other in fn.scopes:
                if other is scope:
                    continue
                if other.start < scope.start < other.end \
                        and other.lock_id == scope.lock_id:
                    add(scope.lock_id, scope.lock_id, fn.path, scope.line,
                        f"{fn.qualname} re-acquires {scope.lock_id} while an "
                        f"instance of it is already held (line {other.line})")
    return list(edges.values())


def _anchor_ranks(index: ProgramIndex) -> dict[str, int]:
    """Rank every lock that is tied into the lock_order anchor chain.

    Anchors (never-locked `lock_order::` mutexes) declare the canonical
    order by chaining TCB_ACQUIRED_AFTER to each other; a real mutex joins
    the order by declaring TCB_ACQUIRED_AFTER(lock_order::<stage>).
    """
    anchors = {lid: mi for lid, mi in index.mutexes.items()
               if lid.startswith("lock_order::")}
    ranks: dict[str, int] = {}
    # Chain roots first, then propagate; bounded passes since chains are short.
    for _ in range(len(anchors) + 1):
        changed = False
        for lid, mi in anchors.items():
            preds = [a for a in mi.acquired_after if a in anchors]
            if not preds:
                rank = 0
            elif all(p in ranks for p in preds):
                rank = max(ranks[p] for p in preds) + 1
            else:
                continue
            if ranks.get(lid) != rank:
                ranks[lid] = rank
                changed = True
        if not changed:
            break
    lock_ranks: dict[str, int] = dict(ranks)
    for lid, mi in index.mutexes.items():
        if lid in anchors:
            continue
        anchor_preds = [ranks[a] for a in mi.acquired_after if a in ranks]
        if anchor_preds:
            lock_ranks[lid] = max(anchor_preds) + 1
    return lock_ranks


def _find_cycles(edges: list[Edge]) -> list[list[Edge]]:
    """Strongly-connected components with >1 node, plus self-loops, each
    returned as the list of their internal edges."""
    adj: dict[str, list[Edge]] = {}
    nodes: set[str] = set()
    for e in edges:
        adj.setdefault(e.src, []).append(e)
        nodes.update((e.src, e.dst))
    # Iterative Tarjan.
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(adj.get(root, [])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for e in it:
                w = e.dst
                if w not in index_of:
                    index_of[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, []))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)

    for n in sorted(nodes):
        if n not in index_of:
            strongconnect(n)

    out = []
    for comp in sccs:
        internal = [e for e in edges if e.src in comp and e.dst in comp]
        if len(comp) > 1 or any(e.src == e.dst for e in internal):
            out.append(sorted(internal, key=lambda e: (e.src, e.dst)))
    return out


@register
class LockOrderGraph(ProgramRule):
    """Cross-TU acquired-before graph: cycles are potential deadlocks.

    Every MutexLock / TCB_REQUIRES site contributes "src held while dst
    acquired" edges, closed over the call graph; a cycle means two threads
    can acquire the same pair in opposite orders. Edges must also agree
    with the canonical lock_order:: declaration.

    Violation (two TUs):
        void a() { MutexLock l(mu1); take2(); }   // mu1 -> mu2
        void b() { MutexLock l(mu2); take1(); }   // mu2 -> mu1: cycle
    Clean: all paths acquire mu1 before mu2 (or drop mu1 first).
    """

    name = "lock-order-graph"
    description = ("cross-TU acquired-before graph over every MutexLock / "
                   "TCB_REQUIRES site: cycles are potential deadlocks "
                   "(reported with both witness paths); edges must agree "
                   "with the canonical order declared via the lock_order "
                   "anchors (TCB_ACQUIRED_AFTER) in parallel/sync.hpp")

    def check_program(self, index: ProgramIndex) -> list[Finding]:
        edges = _collect_edges(index)
        ranks = _anchor_ranks(index)
        out: list[Finding] = []

        cycles = _find_cycles(edges)
        for cycle_edges in cycles:
            first = cycle_edges[0]
            if index.suppressed(self.name, first.path, first.line):
                continue
            locks = sorted({e.src for e in cycle_edges}
                           | {e.dst for e in cycle_edges})
            witnesses = "; ".join(
                f"[{e.path}:{e.line}] {e.witness}" for e in cycle_edges)
            out.append(Finding(
                self.name, first.path, first.line,
                f"potential deadlock: lock-order cycle between "
                f"{', '.join(locks)} — {witnesses}"))

        cyclic = {e for ce in cycles for e in ce}
        for e in edges:
            if e in cyclic or e.src == e.dst:
                continue
            if index.suppressed(self.name, e.path, e.line):
                continue
            src_rank, dst_rank = ranks.get(e.src), ranks.get(e.dst)
            if src_rank is not None and dst_rank is not None:
                if src_rank > dst_rank:
                    out.append(Finding(
                        self.name, e.path, e.line,
                        f"lock-order inversion against the declared canonical "
                        f"order: {e.src} (rank {src_rank}) acquired before "
                        f"{e.dst} (rank {dst_rank}) — {e.witness}; the "
                        f"TCB_ACQUIRED_AFTER anchors in parallel/sync.hpp "
                        f"require the opposite order"))
            elif e.src.split("::")[0] != e.dst.split("::")[0]:
                # A cross-class nesting the declared order does not cover:
                # surface the inferred annotation so the order stays total.
                unranked = e.dst if dst_rank is None else e.src
                out.append(Finding(
                    self.name, e.path, e.line,
                    f"cross-class lock nesting not covered by the declared "
                    f"order: {e.witness}; annotate {unranked} with "
                    f"TCB_ACQUIRED_AFTER(lock_order::<stage>) to make the "
                    f"canonical order total", severity="warning"))
        out.sort(key=lambda f: (f.path, f.line, f.message))
        return out


@register
class NoBlockingUnderLock(ProgramRule):
    """No potentially-blocking call while a tcb::Mutex is held.

    A task-group join or pool submit under a lock serializes the pool
    behind one mutex at best and deadlocks at worst (the blocked thread may need the
    lock to make progress). The property is transitive: calling a helper
    that blocks is still blocking.

    Violation:
        MutexLock lock(mu_); group.join();
    Clean:
        { MutexLock lock(mu_); grab_state(); }  // drop first
        group.join();
    """

    name = "no-blocking-under-lock"
    description = ("no call that may block (TaskGroup::join, "
                   "ThreadPool::submit/parallel_for, "
                   "transitive CondVar waits, sleeps) may be made while a "
                   "tcb::Mutex is held; direct cv.wait(lock) is the "
                   "sanctioned pattern and stays exempt")

    def check_program(self, index: ProgramIndex) -> list[Finding]:
        out: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for fn in index.functions:
            for call in fn.calls:
                held = [(h, e, l) for h, e, l
                        in index.held_locks(fn, call.pos)]
                if not held:
                    continue
                # cv.wait(lock) releases the lock while waiting; exempt.
                if call.name == "wait" and call.recv_class == "CondVar":
                    continue
                for callee in index.resolve_call(fn, call):
                    reason = index.blocking_reason(callee)
                    if reason is None:
                        continue
                    key = (fn.path, call.line, callee.qualname)
                    if key in seen:
                        continue
                    seen.add(key)
                    if index.suppressed(self.name, fn.path, call.line):
                        continue
                    why, chain = reason
                    held_desc = ", ".join(
                        (h or f"'{e}' (unresolved)") for h, e, _l in held)
                    out.append(Finding(
                        self.name, fn.path, call.line,
                        f"{fn.qualname} calls {callee.qualname} while holding "
                        f"{held_desc}; {' -> '.join(chain)} {why} — blocking "
                        f"under a tcb::Mutex risks deadlock and unbounded "
                        f"lock hold times"))
                    break
        out.sort(key=lambda f: (f.path, f.line, f.message))
        return out
