"""The team walk: one section's SYN or REAL replay, bit for bit as the DES
kernel runs it, without the kernel.

The paper's emulators replay a program one top-level parallel section at
a time (Fig. 8).  The columnar evaluator (:mod:`repro.core.columnar`)
plans a walkable section's replay into per-thread op streams over its
lowering, and :func:`team_walk` replays them: one OpenMP team and the
nested teams its members fork, or one Cilk or ``omp_task`` task pool.

**Ops.**  A thread's stream holds the ops of :mod:`repro.core.lower` — a
float is a demand-free segment, a tuple a missy lane, an int ``ix >= 0``
the acquire of lock ``ix`` and ``~ix`` its release, and a
:class:`~repro.core.lower.Section` a fork of a nested team over that
section — and this module's structural ops: :data:`GRAB`, a dispatch and
then a chunk grab from the team's ``cursor = (chunk ops, chunk
traversal)`` (the last, failed grab still pays the dispatch), :data:`BAR`
and :data:`JOIN`, the pool ops and :class:`PoolTask` spawns.

**Teams.**  The top-level team forks at its fork cost (its master's fork
segment, dispatched at 0).  A fork op does what
``OmpRuntime.parallel_loops`` does: the forking thread pays the fork
cost, spawns the ``t - 1`` inner workers onto the tail of the ready queue
in order (each pays ``omp_thread_start`` first) and becomes the inner
team's member 0; the inner team passes its own barrier once (``BAR``:
``parallel_for`` runs its loop ``nowait``, so only the region's implicit
barrier is left), and member 0 then joins each worker in spawn order
(``JOIN``), pays the join barrier and returns to its own stream.  A
one-member team runs inline.  The top-level team's barrier releases at
its last arrival and its master then pays the join barrier.  Each
thread's FAKE traversal overhead is its own sum, inner workers included.

**Pools.**  A :class:`Pool` replays ``TaskPool``'s one task machine with
the replaying master as a one-member team.  ``START`` pushes the root
task onto the master's queue and spawns the other workers (ready-queue
tail, in order; each runs the pool's worker ops, a start cost and
``WORK``).  A :class:`PoolTask` op spawns a child of the running task
onto the spawning worker's queue and wakes every parked thread to the
ready-queue tail in park order.  ``SYNC``, ``END`` (a task's implicit
sync, then its completion, which notifies when its parent waits on it or
it is the root), ``RUN`` (until the root is done; then the pool stops and
notifies) and ``WORK`` (until the pool stops) run taken tasks — each
pays its take's costs, then runs its body and returns to the op that took
it — and park on the pool's event when nothing can be taken (a sync marks
its task waiting, as ``_sync_loop`` does).  A take is
``TaskPool._take``'s (:meth:`Pool.take`), so one walker serves both queue
disciplines: ``CilkPool``'s per-worker deques (own bottom first, else the
top of the first non-empty victim round-robin) and ``OmpTaskPool``'s
shared FIFO.  Every pool op is an event point.  A pool never has more
threads than cores, so no quantum fires.

**DRAM.**  The executor runs one kernel, hence one DRAM pool, per section
replay, so each walk keeps its own LRU memo (``DRAM_SOLVE_CACHE`` entries,
keyed like the kernel pool's by the quantized running multiset, so a
walk's answers are the first-answer-wins ones of one kernel pool).  On a
miss it takes the solve of the exact running set, in core order, from the
engine's cache (keyed by the ``(f, d)`` pairs), and only on a miss there
runs :meth:`~repro.simhw.dram.DramModel.solve` — the bisection a kernel
pool runs on its misses.  The memo's hits and misses are added to the
``dram.solve.*`` counters, the engine cache's to ``columnar.solves.*``.

**Arithmetic.**  A segment completes at ``now + remaining * s``;
demand-free segments (``s == 1``) never interact, so a run of them (fork
and dispatch costs included) is summed in order without events, up to the
next lane, lock, barrier, join or pool op, fork, chunk grab, or the
thread's end; a lane attach or completion re-checks the running multiset
against the cached signature and re-solves only when it changed; a
continuing lane re-anchors in absolute form only when its ``s`` changes.
Each core has at most one pending event, and same-time events go by
``(time, core)``, the kernel's heap order (``SimKernel._push``).

**Scheduling.**  Threads wait in one FIFO ready queue, as
``CpuScheduler`` keeps it: spawns and barrier and join wake-ups go to its
tail, and a lock handoff to its front.  Locks follow
``SimKernel._acquire``/``_release``: a contended acquire queues the
thread and frees its core; a release with waiters hands the lock to the
waiter that :func:`~repro.simos.sync.handoff_index` picks under the
``fifo``, ``lifo`` or ``random`` policy (one ``random.Random(seed)`` per
walk), the kernel mutex's own pick.  Ready threads are dispatched as
``SimKernel._dispatch`` does, written out in the walk because the
kernel's pick honours affinity and the walk creates its cores lazily:
each round snapshots the idle cores in order and hands each the head of
the queue, so a woken thread runs on the lowest idle core, not its own,
and steps at once.  A thread that blocks, finishes or (in a lock-bearing
or nested section) arrives at the top-level barrier frees its core.

**Quanta.**  The walk does not model preemption; it proves none happens
by mirroring the kernel's lazy quanta.  A dispatch anchors the core's
boundary at ``now + timeslice_cycles`` (the kernel's own float
expression).  When an event's dispatch round ends with threads still
queued, every busy core without an armed expiry gets one at
:func:`~repro.simos.scheduler.next_boundary`, where
``SimKernel._ensure_quanta`` arms it.  Expiries go before same-time
completions; a dispatch makes the core's pending one stale, one on an
idle core does nothing, one that finds the queue empty re-anchors the
boundary, and one that finds a waiter would preempt: the walk stops and
returns None, and the evaluator hands the section to the kernel
(``columnar.declined.quantum``).  With no thread queued no quantum is
armed, so a team of at most one member per core never declines.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque

from repro.core.lower import Section
from repro.core.lru import LRUCache
from repro.obs import get_metrics
from repro.simhw.dram import DRAM_SOLVE_CACHE, DramModel, SegmentDemand
from repro.simos import handoff_index, next_boundary


#: The time of an event that never comes: no pending event, no armed quantum.
_NEVER = float("inf")


class _Op:
    """A structural op of a thread's stream (``team_walk``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Pay the dispatch, then grab the next chunk from the team's cursor.
GRAB = _Op("grab")
#: Wait at the team's barrier.
BAR = _Op("barrier")
#: Join the team's workers, in spawn order.
JOIN = _Op("join")


class _PoolOp(_Op):
    """A task-pool op of a thread's stream (``team_walk``)."""

    __slots__ = ()


#: Push the root task and spawn the pool's workers (``TaskPool.run``).
START = _PoolOp("start")
#: Run tasks until the root is done, then stop the pool (the master loop).
RUN = _PoolOp("run")
#: Run tasks until the pool stops (the worker loop).
WORK = _PoolOp("work")
#: Run tasks until the current task's children are done (help-first sync).
SYNC = _PoolOp("sync")
#: The current task's implicit sync, then its completion.
END = _PoolOp("end")


class PoolTask:
    """A lowered pool task body: its ops, ending in ``END``, and the FAKE
    traversal overhead of the ops it runs inline.  In a thread's stream it
    is a spawn of a child task running it."""

    __slots__ = ("ops", "trav")

    def __init__(self, ops: list, trav: float) -> None:
        self.ops = ops
        self.trav = trav


class Pool:
    """The task pool of one pool walk: ``TaskPool``'s state over lowered
    task bodies (``ColumnarEngine._pool_plan``).

    ``stolen_costs`` None makes it ``OmpTaskPool``'s one shared FIFO
    queue, else ``CilkPool``'s per-worker deques."""

    __slots__ = (
        "n_workers", "root_body", "worker_ops", "own_costs", "stolen_costs",
        "deques", "parked", "cur", "root", "stopping",
    )

    def __init__(self, n_workers: int, root_body: "PoolTask",
                 worker_ops: list, own_costs: tuple,
                 stolen_costs: "tuple | None") -> None:
        self.n_workers = n_workers
        self.root_body = root_body
        self.worker_ops = worker_ops
        self.own_costs = own_costs
        self.stolen_costs = stolen_costs
        self.deques = (
            [deque() for _ in range(n_workers)] if stolen_costs is not None
            else [deque()] * n_workers
        )
        #: Threads parked on the pool's event, in park order.
        self.parked: list[int] = []
        #: Each thread's current task (None in the master and worker loops).
        self.cur: list = [None]
        self.root: "_Task | None" = None
        self.stopping = False

    def take(self, w: int):
        """``TaskPool._take``: the next task for worker ``w`` and the costs
        it pays first, or None."""
        own = self.deques[w]
        if self.stolen_costs is None:
            return (own.popleft(), self.own_costs) if own else None
        if own:
            return own.pop(), self.own_costs
        n = self.n_workers
        for offset in range(1, n):
            victim = self.deques[(w + offset) % n]
            if victim:
                return victim.popleft(), self.stolen_costs
        return None

    def notify(self, ready: deque) -> None:
        """``TaskPool._notify``: wake every parked thread to the ready
        queue's tail, in park order."""
        if self.parked:
            ready.extend(self.parked)
            self.parked.clear()


class _Task:
    """A spawned task of a pool walk (``taskpool.Task``); ``ret`` is the
    ``(ops, pos, task)`` its worker returns to when it completes."""

    __slots__ = ("body", "parent", "pending", "waiting", "done", "ret")

    def __init__(self, body: PoolTask, parent: "_Task | None") -> None:
        self.body = body
        self.parent = parent
        self.pending = 0
        self.waiting = False
        self.done = False
        self.ret = None


def team_walk(dram: DramModel, solves: LRUCache, t, fork, jb, disp, top,
              locking=None, plan=None, pool=None):
    """Replay one OpenMP team, and the nested teams its members fork, or
    one task pool, as the module docstring describes: returns ``(gross
    cycles, longest per-thread traversal overhead)``, or None when a
    quantum could fire.

    ``dram`` is the one socket's solver and ``solves`` the engine's exact
    solve cache.  ``t`` is the team's size, ``fork`` the top-level and
    every nested team's fork cost, ``jb`` the join barrier and ``disp``
    a chunk grab's dispatch cost.  ``top = (chains, traversal, cursor)``
    is the top-level team's plan (``ColumnarEngine._plan``), and
    ``plan(section)`` a nested section's.  ``locking`` is ``(n_locks,
    handoff, seed)`` for a lock-bearing section, and ``pool`` the
    :class:`Pool` of a pool walk (``t`` is then 1, the replaying
    master)."""
    chains, trav, cursor = top
    n_cores = dram.config.n_cores
    ts = dram.config.timeslice_cycles
    fork = float(fork) if fork > 0.0 else 0.0
    # Per-thread state; threads 0..t-1 are the top-level team's members,
    # inner workers are appended as they are spawned.
    ops = list(chains)
    pos = [0] * t
    trav = list(trav)
    #: Saved ``(ops, pos, team, grab)`` frames: a nested team's member 0
    #: and a member done grabbing chunks return to them.
    stack: list = [[] for _ in range(t)]
    #: A team: [next chunk, cursor, barrier arrivals, workers, joined].
    team = [[0, cursor, None, None, 0]] * t
    #: Whether a thread grabs its team's chunks when its ops run out, and
    #: whether it has paid the dispatch or fork cost it is about to act on.
    grab = [False] * t
    pend = [False] * t
    done = [False] * t
    joiner = [-1] * t
    #: Each core's pending event time (a lane completion, the end of a run
    #: of demand-free segments, or a timed event op).
    times = [_NEVER] * t
    #: The thread on each core; -1 while the core is idle.
    on = [-1] * t
    #: Each core's next round-robin boundary (``SimKernel._q_next``) and
    #: its armed quantum expiry (``_NEVER`` while unarmed).
    q_next = [ts] * t
    q_at = [_NEVER] * t
    armed = 0
    arrival = [0.0] * t
    #: core -> [anchor_time, anchor_remaining, slowdown|None, f, lane op]
    lanes: dict[int, list] = {}
    fresh: list[int] = []
    #: The running multiset, kept as counts: exact (f, d) pairs for the
    #: kernel's signature check, quantized pairs for the memo key.
    exact: dict = {}
    quant: dict = {}
    memo: OrderedDict = OrderedDict()
    hits = misses = solved = 0
    locked = locking is not None
    # Top-level arrivals free their cores only when another thread could
    # take them: a lock waiter, or a nested team's thread.
    shared = locked or plan is not None
    if locked:
        n_locks, policy, seed = locking
        owner = [-1] * n_locks
        waiters: list[list[int]] = [[] for _ in range(n_locks)]
        rng = random.Random(seed) if policy == "random" else None
    ready: deque = deque()

    def spawn(chain: list, tr: float, tm: list) -> None:
        """Start a worker of team ``tm`` running ``chain``, traversal
        ``tr`` so far, at the ready queue's tail."""
        k = len(ops)
        ops.append(chain)
        pos.append(0)
        trav.append(tr)
        stack.append([])
        team.append(tm)
        grab.append(False)
        pend.append(False)
        done.append(False)
        joiner.append(-1)
        tm[3].append(k)
        ready.append(k)

    def step(w: int, c: int, now: float) -> bool:
        """Advance thread ``w``, on core ``c``, from ``now`` to its next
        blocking point; True when it attached a missy lane."""
        o = ops[w]
        p = pos[w]
        n = len(o)
        end = now
        timed = False
        while True:
            while p < n:
                op = o[p]
                cls = op.__class__
                if cls is float:
                    end += op
                    timed = True
                    p += 1
                    continue
                if cls is tuple:
                    if timed:
                        break  # the lane waits for the segments
                    pos[w] = p + 1
                    fd = op[1]
                    lanes[c] = [now, op[0], None, fd[0], op]
                    exact[fd] = exact.get(fd, 0) + 1
                    quant[op[2]] = quant.get(op[2], 0) + 1
                    fresh.append(c)
                    return True
                if cls is int:
                    if timed:
                        break  # a lock op is an event point
                    p += 1
                    if op >= 0:  # acquire
                        if owner[op] < 0:
                            owner[op] = w
                            continue
                        waiters[op].append(w)
                        pos[w] = p
                        on[c] = -1
                        return False
                    # release, with direct handoff
                    queue = waiters[~op]
                    if not queue:
                        owner[~op] = -1
                        continue
                    heir = queue.pop(handoff_index(policy, len(queue), rng))
                    owner[~op] = heir
                    ready.appendleft(heir)
                    continue
                if op is GRAB:
                    # Grab chunks until none is left, then go on with the
                    # ops after this one.
                    if p + 1 < n:
                        stack[w].append((o, p + 1, team[w], False))
                    grab[w] = True
                    o = ops[w] = ()
                    p = n = 0
                    continue
                if cls is Section:  # fork a nested team
                    if not pend[w] and fork > 0.0:
                        # The fork cost joins the run; the fork happens
                        # when it completes.
                        end += fork
                        timed = True
                        pend[w] = True
                        break
                    if timed:
                        break
                    pend[w] = False
                    sub_chains, sub_trav, sub_cursor = plan(op)
                    stack[w].append((o, p + 1, team[w], grab[w]))
                    grab[w] = False
                    trav[w] += sub_trav[0]
                    if t > 1:
                        tm = team[w] = [0, sub_cursor, [], [], 0]
                        for i in range(1, t):
                            spawn(sub_chains[i], sub_trav[i], tm)
                    o = ops[w] = sub_chains[0]
                    p = 0
                    n = len(o)
                    continue
                if timed:
                    break  # a barrier, join or pool op is an event point
                if cls is PoolTask:  # spawn a child of the current task
                    task = pool.cur[w]
                    task.pending += 1
                    pool.deques[w].append(_Task(op, task))
                    pool.notify(ready)
                    p += 1
                    continue
                if cls is _PoolOp:
                    task = pool.cur[w]
                    if op is SYNC or op is END:
                        task.waiting = False
                        if not task.pending:
                            if op is SYNC:
                                p += 1
                                continue
                            # The task completes: its parent's count
                            # drops, and a parent waiting on it (or the
                            # root's end) notifies the pool.
                            task.done = True
                            parent = task.parent
                            if parent is None:
                                pool.notify(ready)
                            else:
                                parent.pending -= 1
                                if not parent.pending and parent.waiting:
                                    pool.notify(ready)
                            o, p, pool.cur[w] = task.ret
                            ops[w] = o
                            n = len(o)
                            continue
                    elif op is RUN and pool.root.done:
                        pool.stopping = True
                        pool.notify(ready)
                        p += 1
                        continue
                    elif op is START:
                        # Push the root; spawn the workers, whom the master
                        # joins in spawn order.
                        pool.root = _Task(pool.root_body, None)
                        pool.deques[w].append(pool.root)
                        tm = team[w] = [0, None, None, [], 0]
                        for _ in range(1, pool.n_workers):
                            spawn(pool.worker_ops, 0.0, tm)
                            pool.cur.append(None)
                        p += 1
                        continue
                    taken = pool.take(w)
                    if taken is None:
                        if op is WORK and pool.stopping:
                            p += 1
                            continue
                        # Park on the pool's event.
                        if task is not None:
                            task.waiting = True
                        pool.parked.append(w)
                        pos[w] = p
                        on[c] = -1
                        return False
                    child, costs = taken
                    # Run the child, then come back to this op.
                    child.ret = (o, p, task)
                    pool.cur[w] = child
                    for x in costs:
                        end += x
                        timed = True
                    trav[w] += child.body.trav
                    o = ops[w] = child.body.ops
                    p = 0
                    n = len(o)
                    continue
                tm = team[w]
                if op is BAR:
                    arrived = tm[2]
                    arrived.append(w)
                    if len(arrived) < t:
                        pos[w] = p + 1
                        on[c] = -1
                        return False
                    for x in arrived:
                        if x != w:
                            ready.append(x)
                    arrived.clear()
                    p += 1
                    continue
                # JOIN: the workers in spawn order
                workers = tm[3]
                j = tm[4]
                while j < len(workers) and done[workers[j]]:
                    j += 1
                tm[4] = j
                if j < len(workers):
                    joiner[workers[j]] = w
                    pos[w] = p
                    on[c] = -1
                    return False
                p += 1
            if p < n:
                pos[w] = p
                times[c] = end
                return False
            if grab[w]:  # between chunks of a dynamic-family schedule
                if not pend[w] and disp > 0.0:
                    end += disp  # the grab happens when it completes
                    timed = True
                    pend[w] = True
                if timed:
                    pos[w] = p
                    times[c] = end
                    return False
                pend[w] = False
                tm = team[w]
                k = tm[0]
                chunk_ops, chunk_trav = tm[1]
                if k < len(chunk_ops):
                    tm[0] = k + 1
                    trav[w] += chunk_trav[k]
                    o = ops[w] = chunk_ops[k]
                    p = 0
                    n = len(o)
                    continue
                grab[w] = False  # the last, failed grab
            frames = stack[w]
            if frames:
                o, p, team[w], grab[w] = frames.pop()
                ops[w] = o
                n = len(o)
                continue
            pos[w] = p
            if w >= t:  # an inner worker finishes
                if timed:
                    times[c] = end
                    return False
                done[w] = True
                if joiner[w] >= 0:
                    ready.append(joiner[w])
                on[c] = -1
                return False
            # A top-level member arrives at the barrier.
            if not shared:
                arrival[w] = end
                if not timed:
                    on[c] = -1
                return False
            if timed:
                times[c] = end  # the core frees when the member arrives
                return False
            arrival[w] = now
            on[c] = -1
            return False

    def dispatch(now: float) -> bool:
        """Place ready threads on idle cores and step them; True when one
        attached a missy lane."""
        nonlocal armed
        dirty = False
        while ready:
            if -1 not in on:
                if len(on) == n_cores:
                    break  # every core is busy
                idle = []
            else:
                idle = [c for c, w in enumerate(on) if w < 0]
            idle.extend(range(len(on), n_cores))
            for c in idle:
                if not ready:
                    break
                if c == len(on):  # a core no thread has run on yet
                    on.append(-1)
                    times.append(_NEVER)
                    q_next.append(0.0)
                    q_at.append(_NEVER)
                w = ready.popleft()
                on[c] = w
                # Re-anchor the boundary; a pending expiry goes stale.
                q_next[c] = now + ts
                if q_at[c] != _NEVER:
                    q_at[c] = _NEVER
                    armed -= 1
                dirty = step(w, c, now) or dirty
        return dirty

    # The fork: with a fork cost the master steps when its fork segment
    # completes and the spawned members are dispatched after it;
    # without one all of them start in the kernel's first dispatch
    # round.
    dirty = False
    start = fork
    if start > 0.0:
        on[0] = 0
        dirty = step(0, 0, start)
        ready.extend(range(1, t))
    else:
        ready.extend(range(t))
    dirty = dispatch(start) or dirty
    now = start
    sig: dict = {}
    k = 1.0
    while True:
        if lanes:
            if dirty:
                dirty = False
                if exact != sig:
                    sig = dict(exact)
                    key = frozenset(quant.items())
                    k = memo.get(key)
                    if k is not None:
                        hits += 1
                        memo.move_to_end(key)
                    else:
                        misses += 1
                        running = tuple(lanes[m][4][1] for m in sorted(lanes))
                        k = solves.get(running)
                        if k is None:
                            solved += 1
                            segs = [SegmentDemand(*fd) for fd in running]
                            k = dram.solve(
                                segs,
                                sum(sd.demand_bytes_per_sec for sd in segs),
                            )
                            solves.put(running, k)
                        memo[key] = k
                        if len(memo) > DRAM_SOLVE_CACHE:
                            memo.popitem(last=False)
                    for m, lane in lanes.items():
                        f = lane[3]
                        s = 1.0 - f + f * k
                        s_old = lane[2]
                        if s_old is None:
                            lane[0] = now
                            lane[2] = s
                            times[m] = now + lane[1] * s
                        elif s != s_old:
                            # Rate change: advance in absolute form.
                            rem = lane[1] - (now - lane[0]) / s_old
                            if rem < 0.0:
                                rem = 0.0
                            lane[0] = now
                            lane[1] = rem
                            lane[2] = s
                            times[m] = now + rem * s
                    fresh.clear()
            if fresh:
                # Unchanged multiset: rate only the new lanes.
                for m in fresh:
                    lane = lanes[m]
                    f = lane[3]
                    s = 1.0 - f + f * k
                    lane[2] = s
                    times[m] = now + lane[1] * s
                fresh.clear()
        now = min(times)
        if armed:
            q = min(q_at)
            if q <= now:  # expiries go before same-time completions
                c = q_at.index(q)
                q_at[c] = _NEVER
                armed -= 1
                if on[c] >= 0:
                    if ready:
                        return None  # a preemption
                    q_next[c] = q + ts
                continue
        if now == _NEVER:
            break
        c = times.index(now)
        times[c] = _NEVER
        lane = lanes.pop(c, None)
        if lane is not None:
            op = lane[4]
            for counts, x in ((exact, op[1]), (quant, op[2])):
                if counts[x] == 1:
                    del counts[x]
                else:
                    counts[x] -= 1
            dirty = True
        dirty = step(on[c], c, now) or dirty
        if ready:
            dirty = dispatch(now) or dirty
            if ready:
                # Every core is busy and a thread waits: the kernel
                # arms each unarmed core's quantum at its first
                # boundary after ``now`` (``_ensure_quanta``).
                for c in range(n_cores):
                    if q_at[c] == _NEVER:
                        q_next[c] = q_at[c] = next_boundary(q_next[c], now, ts)
                        armed += 1
    m = get_metrics()
    if hits:
        m.inc("dram.solve.hits", float(hits))
    if misses:
        m.inc("dram.solve.misses", float(misses))
        m.inc("columnar.solves.hits", float(misses - solved))
    if solved:
        m.inc("columnar.solves.misses", float(solved))
    gross = arrival[0] if t == 1 else max(arrival) + jb
    return gross, max(trav)
