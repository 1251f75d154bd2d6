"""A supervised process pool: the shared engine under every parallel path.

This is the supervision machinery that used to live inside the campaign
runner, extracted so the racing portfolio checker (and any future parallel
subsystem) reuses it instead of growing its own: each *task* runs in its own
worker process (bounded to *parallelism* concurrent workers), a task that
hangs is terminated at its deadline, a worker that dies without reporting
(a crash, ``os._exit``, an OOM kill) is detected and recorded -- the caller
always gets one :class:`TaskOutcome` per task, never a hung pool.

On top of the campaign runner's semantics it adds **first-winner
cancellation**: pass ``stop_when`` (a predicate over :class:`TaskOutcome`)
and the pool terminates every other worker the moment an outcome satisfies
it, recording the losers as ``"cancelled"``.  That is exactly the shape of a
checker portfolio race -- first conclusive verdict wins, losers are killed
immediately instead of running out their budgets.

``parallelism=0`` runs the tasks inline in the calling process (no timeout
enforcement, but ``stop_when`` still short-circuits), which doubles as the
deterministic fallback inside daemonic workers that cannot spawn children.

Two entry points share the machinery:

* :func:`run_supervised` -- the original batch call: run a task list, block,
  return the outcomes in task order.  ``on_outcome`` streams each
  :class:`TaskOutcome` to a callback the moment it is recorded.
* :class:`SupervisorPool` -- a **long-running** pool for serving workloads:
  tasks are submitted incrementally (with priorities and per-task
  deadlines), a supervision thread runs them as capacity frees up, and
  completion callbacks fire as tasks finish -- the async-friendly front the
  verification service daemon schedules on (callbacks marshal back into an
  event loop with ``call_soon_threadsafe``).
"""

import heapq
import itertools
import queue as queue_module
import threading
import time
import traceback
from collections import deque

from repro.exceptions import ConfigurationError
from repro.parallel.context import mp_context
from repro.utils import faults as _faults

#: Seconds the supervisor waits for a dead worker's queued result to drain
#: before declaring the worker crashed.
_CRASH_GRACE = 0.5

#: The terminal statuses a task can end in.
STATUSES = ("ok", "error", "timeout", "crashed", "cancelled")


class TaskOutcome:
    """How one supervised task ended.

    *status* is ``"ok"`` (the task ran; *payload* holds its return value),
    ``"error"`` (the task raised; *error* holds the traceback), ``"timeout"``
    (the worker exceeded its deadline and was terminated), ``"crashed"`` (the
    worker died without reporting) or ``"cancelled"`` (a ``stop_when`` winner
    made the task moot and its worker was terminated).
    """

    __slots__ = ("task_id", "status", "payload", "error", "elapsed")

    def __init__(self, task_id, status, payload=None, error=None, elapsed=0.0):
        self.task_id = task_id
        self.status = status
        self.payload = payload
        self.error = error
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.status == "ok"

    def __repr__(self):
        return "TaskOutcome({!r}, {})".format(self.task_id, self.status)


def _worker_main(task_id, target, args, results_queue):
    """Worker entry point: run one task and stream the outcome back."""
    started = time.perf_counter()
    try:
        if _faults.trigger("kill_worker", "task"):
            import os
            import signal
            os.kill(os.getpid(), signal.SIGKILL)
        payload = target(*args)
        results_queue.put((task_id, "ok", payload, None,
                           time.perf_counter() - started))
    except Exception:
        results_queue.put((task_id, "error", None, traceback.format_exc(),
                           time.perf_counter() - started))


def _check_ids(tasks):
    seen = set()
    for task_id, _, _ in tasks:
        if task_id in seen:
            raise ConfigurationError(
                "duplicate task id {!r}: the supervisor keys its bookkeeping "
                "by task id, so every task needs a unique one".format(task_id))
        seen.add(task_id)


def _run_inline(tasks, stop_when, on_outcome=None):
    outcomes = {}
    stopped = False
    for task_id, target, args in tasks:
        if stopped:
            outcome = TaskOutcome(task_id, "cancelled")
        else:
            started = time.perf_counter()
            try:
                payload = target(*args)
                outcome = TaskOutcome(task_id, "ok", payload=payload,
                                      elapsed=time.perf_counter() - started)
            except Exception:
                outcome = TaskOutcome(task_id, "error",
                                      error=traceback.format_exc(),
                                      elapsed=time.perf_counter() - started)
        outcomes[task_id] = outcome
        if on_outcome is not None:
            on_outcome(outcome)
        if stop_when is not None and stop_when(outcome):
            stopped = True
    return outcomes


def _drain(results_queue, records, block_seconds=0.0):
    """Move every available queue item into *records*."""
    while True:
        try:
            item = (results_queue.get(timeout=block_seconds)
                    if block_seconds else results_queue.get_nowait())
        except queue_module.Empty:
            return
        records[item[0]] = item[1:]
        block_seconds = 0.0


def _terminate(process):
    process.terminate()
    process.join(1.0)
    if process.is_alive():
        process.kill()
        process.join(1.0)


def run_supervised(tasks, parallelism, timeout=None, stop_when=None,
                   on_outcome=None):
    """Run *tasks* in supervised worker processes; return their outcomes.

    Parameters
    ----------
    tasks:
        Iterable of ``(task_id, target, args)`` triples.  *target* must be a
        picklable callable (a module-level function) and *args* a picklable
        tuple -- the task is executed as ``target(*args)`` in a worker
        process and its return value must be picklable too.
    parallelism:
        Number of concurrent worker processes; ``0`` runs inline.
    timeout:
        Optional per-task deadline in seconds (worker mode only).
    stop_when:
        Optional predicate over :class:`TaskOutcome`.  The first outcome
        satisfying it wins the race: every other active worker is terminated
        immediately and every unfinished task is recorded as ``"cancelled"``.
    on_outcome:
        Optional callback invoked with each :class:`TaskOutcome` the moment
        it is recorded (completion order, not task order) -- the streaming
        hook progress reporters and event forwarders attach to.

    Returns the list of :class:`TaskOutcome` in task order.
    """
    tasks = [(task_id, target, tuple(args)) for task_id, target, args in tasks]
    _check_ids(tasks)
    if parallelism <= 0:
        outcomes = _run_inline(tasks, stop_when, on_outcome)
        return [outcomes[task_id] for task_id, _, _ in tasks]

    context = mp_context()
    results_queue = context.Queue()
    pending = deque(tasks)
    active = {}   # task_id -> (process, started, deadline)
    records = {}  # task_id -> (status, payload, error, elapsed)
    outcomes = {}
    winner_found = False

    def record(outcome):
        outcomes[outcome.task_id] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    while pending or active:
        while pending and len(active) < parallelism and not winner_found:
            task_id, target, args = pending.popleft()
            process = context.Process(
                target=_worker_main,
                args=(task_id, target, args, results_queue), daemon=True)
            process.start()
            started = time.monotonic()
            deadline = started + timeout if timeout is not None else None
            active[task_id] = (process, started, deadline)
        if winner_found and pending:
            while pending:
                task_id, _, _ = pending.popleft()
                record(TaskOutcome(task_id, "cancelled"))
        _drain(results_queue, records, block_seconds=0.05)

        now = time.monotonic()
        for task_id in list(active):
            process, started, deadline = active[task_id]
            if task_id in records:
                process.join()
                del active[task_id]
                status, payload, error, elapsed = records.pop(task_id)
                outcome = TaskOutcome(task_id, status, payload=payload,
                                      error=error, elapsed=elapsed)
                record(outcome)
                if (not winner_found and stop_when is not None
                        and stop_when(outcome)):
                    winner_found = True
            elif winner_found:
                _terminate(process)
                record(TaskOutcome(task_id, "cancelled",
                                   elapsed=now - started))
                del active[task_id]
            elif deadline is not None and now > deadline:
                _terminate(process)
                record(TaskOutcome(
                    task_id, "timeout", elapsed=now - started,
                    error="task exceeded its {:.3g}s deadline and was "
                          "terminated".format(timeout)))
                del active[task_id]
            elif not process.is_alive():
                # The worker died; give its (possibly buffered) result one
                # last chance to drain before declaring a crash.
                _drain(results_queue, records, block_seconds=_CRASH_GRACE)
                if task_id not in records:
                    record(TaskOutcome(
                        task_id, "crashed", elapsed=time.monotonic() - started,
                        error="worker process died with exit code {} before "
                              "reporting a result".format(process.exitcode)))
                    del active[task_id]
                process.join()

    results_queue.close()
    return [outcomes[task_id] for task_id, _, _ in tasks]


class _PoolTask:
    __slots__ = ("task_id", "target", "args", "timeout", "on_start",
                 "on_outcome")

    def __init__(self, task_id, target, args, timeout, on_start, on_outcome):
        self.task_id = task_id
        self.target = target
        self.args = args
        self.timeout = timeout
        self.on_start = on_start
        self.on_outcome = on_outcome


class SupervisorPool:
    """A long-running supervised pool with incremental submission.

    Where :func:`run_supervised` runs one task list to completion, the pool
    stays up: :meth:`submit` enqueues a task (higher *priority* runs first,
    FIFO within a priority) and returns immediately; a supervision thread
    starts queued tasks as capacity frees up, enforces per-task deadlines,
    detects dead workers, and invokes the task's ``on_outcome`` callback --
    and optional ``on_start`` -- from the supervision thread.  Callbacks
    must be quick and must not raise (a raising callback is swallowed and
    recorded on ``callback_errors`` rather than killing supervision); an
    asyncio consumer bridges with ``loop.call_soon_threadsafe``.

    The pool is the process front of the verification service daemon; the
    campaign scheduler drives it for batch runs too, so both fronts share
    one notion of timeout/crash containment.
    """

    def __init__(self, parallelism, timeout=None):
        parallelism = int(parallelism)
        if parallelism < 1:
            raise ConfigurationError(
                "a supervisor pool needs at least one worker (got {}); use "
                "run_supervised(parallelism=0) for inline execution".format(
                    parallelism))
        self.parallelism = parallelism
        self.timeout = timeout
        self.context = mp_context()
        self.callback_errors = 0
        self._results_queue = self.context.Queue()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._sequence = itertools.count()
        self._pending = []   # heap of (-priority, seq, _PoolTask)
        self._active = {}    # task_id -> (task, process, started, deadline)
        self._queued_ids = set()
        self._closed = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="supervisor-pool")
        self._thread.start()

    # -- submission ----------------------------------------------------------

    def submit(self, task_id, target, args=(), timeout=False, priority=0,
               on_start=None, on_outcome=None):
        """Enqueue ``target(*args)`` as *task_id*; return immediately.

        *timeout* defaults to the pool's deadline (pass ``None`` for no
        deadline on this task).  *priority* orders the queue (higher first).
        *on_outcome* receives the task's :class:`TaskOutcome` from the
        supervision thread.
        """
        if timeout is False:
            timeout = self.timeout
        task = _PoolTask(task_id, target, tuple(args), timeout, on_start,
                         on_outcome)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "cannot submit to a shut-down supervisor pool")
            if task_id in self._queued_ids or task_id in self._active:
                raise ConfigurationError(
                    "duplicate task id {!r}: the pool keys its bookkeeping "
                    "by task id, so every in-flight task needs a unique "
                    "one".format(task_id))
            heapq.heappush(self._pending,
                           (-int(priority), next(self._sequence), task))
            self._queued_ids.add(task_id)
        self._wake.set()
        return task_id

    @property
    def queued(self):
        """Tasks waiting for a worker slot."""
        with self._lock:
            return len(self._pending)

    @property
    def running(self):
        """Tasks currently executing in a worker."""
        with self._lock:
            return len(self._active)

    @property
    def depth(self):
        """Total in-flight tasks (queued + running)."""
        with self._lock:
            return len(self._pending) + len(self._active)

    def shutdown(self, wait=True, cancel_pending=True):
        """Stop the pool: cancel queued tasks, terminate active workers.

        With ``cancel_pending`` every queued task is recorded as
        ``"cancelled"`` (its ``on_outcome`` still fires); active workers are
        terminated and recorded as ``"cancelled"`` too.  With
        ``cancel_pending=False`` the pool drains: no new submissions are
        accepted, queued and active tasks run to completion first.
        """
        with self._lock:
            self._closed = True
            self._drain_on_close = not cancel_pending
        self._wake.set()
        if wait:
            self._thread.join()

    # -- supervision loop ----------------------------------------------------

    def _notify(self, callback, *args):
        if callback is None:
            return
        try:
            callback(*args)
        except Exception:
            self.callback_errors += 1

    def _finish(self, task, outcome):
        self._notify(task.on_outcome, outcome)

    def _loop(self):
        records = {}
        while True:
            with self._lock:
                closed = self._closed
                drain = closed and getattr(self, "_drain_on_close", False)
                # Start queued tasks while there is capacity.  The popped
                # tasks join _active only once their processes are up, so
                # they count against the capacity here.
                started_tasks = []
                while (self._pending
                       and len(self._active) + len(started_tasks)
                       < self.parallelism
                       and (not closed or drain)):
                    _, _, task = heapq.heappop(self._pending)
                    self._queued_ids.discard(task.task_id)
                    started_tasks.append(task)
                cancelled = []
                if closed and not drain:
                    while self._pending:
                        _, _, task = heapq.heappop(self._pending)
                        self._queued_ids.discard(task.task_id)
                        cancelled.append(task)
            for task in cancelled:
                self._finish(task, TaskOutcome(task.task_id, "cancelled"))
            for task in started_tasks:
                process = self.context.Process(
                    target=_worker_main,
                    args=(task.task_id, task.target, task.args,
                          self._results_queue),
                    daemon=True)
                process.start()
                started = time.monotonic()
                deadline = (started + task.timeout
                            if task.timeout is not None else None)
                with self._lock:
                    self._active[task.task_id] = (task, process, started,
                                                  deadline)
                self._notify(task.on_start, task.task_id)

            if closed and not drain:
                with self._lock:
                    active = list(self._active.values())
                    self._active.clear()
                for task, process, started, _ in active:
                    _terminate(process)
                    self._finish(task, TaskOutcome(
                        task.task_id, "cancelled",
                        elapsed=time.monotonic() - started))
                self._results_queue.close()
                return

            _drain(self._results_queue, records, block_seconds=0.05)
            now = time.monotonic()
            with self._lock:
                active_ids = list(self._active)
            for task_id in active_ids:
                with self._lock:
                    entry = self._active.get(task_id)
                if entry is None:
                    continue
                task, process, started, deadline = entry
                outcome = None
                if task_id in records:
                    process.join()
                    status, payload, error, elapsed = records.pop(task_id)
                    outcome = TaskOutcome(task_id, status, payload=payload,
                                          error=error, elapsed=elapsed)
                elif deadline is not None and now > deadline:
                    _terminate(process)
                    outcome = TaskOutcome(
                        task_id, "timeout", elapsed=now - started,
                        error="task exceeded its {:.3g}s deadline and was "
                              "terminated".format(task.timeout))
                elif not process.is_alive():
                    _drain(self._results_queue, records,
                           block_seconds=_CRASH_GRACE)
                    if task_id in records:
                        continue  # picked up next iteration
                    process.join()
                    outcome = TaskOutcome(
                        task_id, "crashed", elapsed=now - started,
                        error="worker process died with exit code {} before "
                              "reporting a result".format(process.exitcode))
                if outcome is not None:
                    with self._lock:
                        del self._active[task_id]
                    self._finish(task, outcome)
                    self._wake.set()  # capacity freed: start queued work now

            with self._lock:
                idle = not self._active and not self._pending and not closed
            if idle:
                self._wake.wait(timeout=1.0)
            self._wake.clear()
            with self._lock:
                if (self._closed and getattr(self, "_drain_on_close", False)
                        and not self._active and not self._pending):
                    self._results_queue.close()
                    return
