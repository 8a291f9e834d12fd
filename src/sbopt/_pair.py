"""The pair helper process behind ``Evaluator.evaluate_pair``.

``run_pair`` is its one entry: it decides whether the second point of a
pair goes to the helper, sends it, evaluates the first point in the caller
meanwhile, and falls back to the caller when the helper does not answer.
The helper is one child ``python`` per interpreter, started with
``subprocess`` on POSIX in a session of its own, so Ctrl-C at a terminal
reaches only the caller.  This module is imported on the first pair, so
importing ``sbopt`` loads no process machinery.
"""

from __future__ import annotations

import atexit
import os
import pickle
import subprocess
import sys
import threading
from multiprocessing.connection import Pipe

import numpy as np

# The helper's __main__, run as ``python -c BOOT fd``; the caller's sys.path comes first.
# It leaves no name in __main__, where an objective of the caller's __main__ must not load.
BOOT = """
def boot():
    import sys
    from multiprocessing.connection import Connection
    conn = Connection(int(sys.argv[1]))
    sys.path[:] = conn.recv()
    from sbopt._pair import serve
    serve(conn)
globals().pop("boot")()
"""


def two_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


def serve(conn) -> None:
    """The pair helper's loop: evaluate each point received until the pipe closes.

    A request is ``(pickled objective or None to keep the last, tau, seed)``.
    The reply is ``(True, output)`` or ``(False, exception)``, or None when
    the objective did not load or the reply would not load in the caller;
    the caller then evaluates the point itself.
    """
    try:
        conn.send("ready")
        objective = None
        while True:
            pickled, tau, seed = conn.recv()
            if pickled is not None:
                try:
                    objective = pickle.loads(pickled)
                except Exception:  # e.g. a function of the caller's __main__
                    objective = None
            if objective is None:
                conn.send(None)
                continue
            try:
                reply = (True, objective(tau, seed))
            except Exception as exc:
                reply = (False, exc)
            try:
                data = pickle.dumps(reply)
                if not reply[0]:
                    pickle.loads(data)  # some exception types do not load again
            except Exception:
                data = pickle.dumps(None)
            conn.send_bytes(data)
    except (EOFError, OSError):  # the caller closed the pipe or exited
        return


class PairHelper:
    """One child ``python`` that evaluates the second point of each pair.

    It is started on the first pair, never at import, and takes pairs once
    it reports that it has booted, so no caller waits for its start.  The
    parent closes its copy of the child's end of the pipe, so a helper that
    dies or fails to start shows up as an error on the pipe, never as a
    hang, and it is then closed for good.  ``close`` runs at exit.
    """

    def __init__(self):
        self.owner = os.getpid()
        self.lock = threading.Lock()
        self.holds = None  # the objective whose pickle the helper was sent last
        self.refused = None  # the last objective it did not answer for, which runs here
        self.pairs = 0  # points it answered, for tests
        self.alive = self.ready = False
        try:
            self.conn, child = Pipe()
        except OSError:  # e.g. out of file descriptors
            return
        with child:  # the helper holds its own copy
            try:
                self.conn.send(sys.path)
                flags = subprocess._args_from_interpreter_flags()  # -W, -X: warn as here
                self.process = subprocess.Popen(
                    [sys.executable, *flags, "-c", BOOT, str(child.fileno())],
                    pass_fds=(child.fileno(),), start_new_session=True)
                self.alive = True
                atexit.register(self.close)
            except OSError:  # e.g. no process left to start
                self.conn.close()

    def started(self) -> bool:
        """True once the helper has booted; pairs run in the caller until then."""
        if not self.ready and self.alive and self.conn.poll():
            try:
                self.ready = self.conn.recv() == "ready"
            except (EOFError, OSError):  # it died while booting
                self.close()
        return self.ready

    def pair(self, objective, pickled: bytes, tau, seed: int, local):
        """Send one point, run ``local()`` meanwhile, and return ``(local(), reply)``.

        The reply is the helper's, drained even when ``local`` raises, or
        None when the helper is gone.
        """
        try:
            self.conn.send((None if objective is self.holds else pickled, tau, seed))
        except OSError:  # a closed or broken pipe
            self.close()
            return local(), None
        self.holds = objective
        try:
            ev_a = local()
        finally:
            try:
                reply = self.conn.recv()
            except Exception:  # it died
                self.close()
                reply = None
            except BaseException:  # interrupted: out of step with the helper from here on
                self.close()
                raise
        return ev_a, reply

    def close(self) -> None:
        if self.owner == os.getpid() and self.alive:
            self.alive = False
            self.conn.close()
            try:
                self.process.wait(1.0)  # the closed pipe ends its loop
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


_helper: PairHelper | None = None
# The last objective asked about, held so that its id is not reused, and its
# pickle, b"" when it does not pickle.
_pickled = (None, b"")


def process_helper() -> PairHelper | None:
    """This process's pair helper, started on first use; None once it is gone."""
    global _helper
    if _helper is None or _helper.owner != os.getpid():  # none yet, or inherited by fork
        _helper = PairHelper()
    return _helper if _helper.alive else None


def run_pair(objective, tau_b, seed: int, local):
    """Evaluate ``objective(tau_b, seed)`` in the helper while ``local()`` runs here.

    Returns ``(local(), output)``: the objective's output at ``tau_b``, or
    None when the helper did not answer, so the caller evaluates ``tau_b``
    itself.  An exception the objective raised in the helper is raised
    here once ``local()`` has returned.  Returns None, without calling
    ``local``, when the pair runs in turn: off POSIX, on fewer than two
    CPUs, for an objective that does not pickle or that the helper could
    not take, for a ``tau_b`` that is not a finite 1-D vector, before the
    helper has booted, once it is gone, and while another thread holds it.
    """
    global _pickled
    if os.name != "posix" or not two_cpus():  # pass_fds is POSIX-only
        return None
    entry = _pickled
    if entry[0] is not objective:
        try:
            entry = (objective, pickle.dumps(objective))
        except Exception:  # closures, lambdas, open handles
            entry = (objective, b"")
        _pickled = entry
    tau = np.asarray(tau_b, dtype=float)
    if not entry[1] or tau.ndim != 1 or not np.all(np.isfinite(tau)):
        return None  # the caller's evaluate raises where the sequential calls would
    helper = process_helper()
    if helper is None or objective is helper.refused or not helper.lock.acquire(False):
        return None
    try:
        if not helper.started():
            return None
        ev_a, reply = helper.pair(objective, entry[1], tau, seed, local)
    finally:
        helper.lock.release()
    if reply is None:  # it is gone, or cannot take this objective or this reply
        helper.refused = objective
        return ev_a, None
    helper.pairs += 1
    ok, out = reply
    if not ok:
        raise out
    return ev_a, out
