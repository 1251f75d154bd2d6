"""Child processes of the benchmark: CLI runs, set-up probes and the daemon.

Every child is started from the checkout with ``src`` on ``PYTHONPATH``
and without ``REPRO_*`` variables, so only the generated inputs reach the
program.  Every child is waited for: ``run_child`` reaps with ``wait4``
to read the child's peak RSS, and :class:`Daemon` stops its process group.
"""

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PYTHON = sys.executable


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, timeout=60.0):
    """Run *argv* to completion; return ``(returncode, output, start, end, maxrss_kb)``.

    Standard error is merged into the output.  *start* and *end*
    (``perf_counter`` seconds) bracket the spawn, the run and the exit;
    the peak RSS is the child's own.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output = _read_all(proc, started + timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, output, started, ended, usage.ru_maxrss


def _read_all(proc, deadline):
    chunks = []
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise ChildFailed("{} did not finish in time".format(proc.args))
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            data = os.read(fd, 65536)
            if not data:
                return b"".join(chunks).decode("utf-8", "replace")
            chunks.append(data)


def python_pass(timeout=30.0):
    """Wall time of ``python3 -c pass``: the interpreter's own start and exit."""
    code, output, started, ended, _ = run_child([PYTHON, "-c", "pass"], timeout)
    if code != 0:
        raise ChildFailed("python -c pass failed: {}".format(output))
    return ended - started


def timed_until_ready(argv, timeout=60.0):
    """Seconds from spawning *argv* until it prints ``READY``; then reap it.

    The child is a set-up probe: it sets a workload up from scratch,
    announces it, cleans up and exits.  Its process group is killed if it
    overruns, so a probe's own daemon cannot outlive it.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        output = ""
        deadline = started + timeout
        fd = proc.stdout.fileno()
        ready_at = None
        while ready_at is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildFailed("set-up probe overran: {}".format(output[-500:]))
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            data = os.read(fd, 65536)
            if not data:
                raise ChildFailed("set-up probe failed: {}".format(output[-2000:]))
            output += data.decode("utf-8", "replace")
            if "READY\n" in output:
                ready_at = time.perf_counter()
        rest = _read_all(proc, deadline + 30.0)
        if proc.wait() != 0:
            raise ChildFailed("set-up probe exited {}: {}".format(
                proc.returncode, rest[-2000:]))
        return ready_at - started
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()


class Daemon:
    """A ``repro-dfs serve`` daemon on an ephemeral port.

    Started in a process group of its own; :meth:`stop` sends SIGTERM (the
    daemon shuts its pool down and exits), waits, and kills the group if
    anything is left.  Its peak RSS -- the largest of the daemon and its
    reaped pool workers -- is read from ``wait4``.
    """

    _ADDRESS = re.compile(r"serving verification on (http://127\.0\.0\.1:\d+)")

    def __init__(self, cache_dir, log_path, jobs=2, max_depth=64):
        self.log_path = Path(log_path)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [PYTHON, "-m", "repro.workcraft.cli", "serve", "--jobs", str(jobs),
             "--port", "0", "--max-depth", str(max_depth),
             "--cache-dir", str(cache_dir)],
            cwd=ROOT, env=child_env(), stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)
        self.url = None
        self.maxrss_kb = None

    def wait_address(self, timeout=60.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = self._ADDRESS.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                return self.url
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise ChildFailed("daemon did not come up: {}".format(
            self.log_path.read_text(errors="replace")[-2000:]))

    def stop(self, timeout=20.0):
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.maxrss_kb = usage.ru_maxrss
                    break
                if time.perf_counter() > deadline:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait()
                    break
                time.sleep(0.01)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
        self._log.close()
