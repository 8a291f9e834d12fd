"""The pair helper process behind ``Evaluator.evaluate_pair``.

One spawned process per interpreter evaluates the second point of each
pair while the caller evaluates the first.  This module is imported on
the first pair, so importing ``sbopt`` loads no process machinery.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import sys
import threading
import types
from multiprocessing import resource_tracker


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
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
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
    """One spawned process that evaluates the second point of each pair.

    It is started on the first pair, never at import, and takes pairs once
    it reports that it has booted, so no caller waits for its start.  The
    parent closes its copy of the child's end of the pipe, so a helper that
    dies or fails to start shows up as an error on the pipe, never as a
    hang, and it is then closed for good.  ``close`` runs at exit.
    """

    def __init__(self):
        self.owner = os.getpid()
        self.lock = threading.Lock()
        self.sent = None  # the pickled objective the helper holds
        self.pairs = 0  # points it answered, for tests
        self.alive = self.ready = False
        try:
            ctx = multiprocessing.get_context("spawn")
            self.conn, child = ctx.Pipe()
        except (ImportError, OSError):  # no process support on this platform
            return
        # Spawn would re-run the caller's __main__ script in the helper, all of
        # it when the script has no __name__ guard; the helper needs only sbopt
        # and the objective's module, so it is started with a blank __main__.
        main = sys.modules["__main__"]
        sys.modules["__main__"] = types.ModuleType("__main__")
        # the private _fd is None until a first spawn starts the tracker
        self.own_tracker = getattr(resource_tracker._resource_tracker, "_fd", 0) is None
        try:
            self.process = ctx.Process(target=serve, args=(child,), daemon=True,
                                       name="sbopt-pair-helper")
            self.process.start()
            self.alive = True
            atexit.register(self.close, at_exit=True)
        except (OSError, RuntimeError):  # e.g. started while a spawned process boots
            self.conn.close()
        finally:
            sys.modules["__main__"] = main
            child.close()

    def started(self) -> bool:
        """True once the helper has booted; pairs run in the caller until then."""
        if not self.ready and self.alive and self.conn.poll():
            try:
                self.ready = self.conn.recv() == "ready"
            except (EOFError, OSError):  # it died while booting
                self.close()
        return self.ready

    def submit(self, pickled: bytes, tau, seed: int) -> bool:
        """Send one point; False (and closed) if the helper is gone."""
        try:
            self.conn.send((None if pickled == self.sent else pickled, tau, seed))
        except OSError:  # a closed or broken pipe
            self.close()
            return False
        self.sent = pickled
        return True

    def result(self):
        """The reply to the last ``submit``; None if the helper is gone."""
        try:
            return self.conn.recv()
        except Exception:  # it died
            self.close()
            return None
        except BaseException:  # interrupted: out of step with the helper from here on
            self.close()
            raise

    def close(self, at_exit: bool = False) -> None:
        if self.owner != os.getpid():
            return
        if self.alive:
            self.alive = False
            self.conn.close()
            self.process.join(1.0)  # the closed pipe ends its loop
            if self.process.exitcode is None:
                self.process.terminate()
                self.process.join()
        if at_exit and self.own_tracker:
            # Spawning started multiprocessing's resource tracker process, which
            # would otherwise exit only after this interpreter has.
            resource_tracker._resource_tracker._stop()


_helper: PairHelper | None = None


def process_helper() -> PairHelper | None:
    """This process's pair helper, started on first use; None once it is gone."""
    global _helper
    if _helper is None or _helper.owner != os.getpid():  # none yet, or inherited by fork
        _helper = PairHelper()
    return _helper if _helper.alive else None


def locked_helper() -> PairHelper | None:
    """The booted pair helper, locked for one pair; None when pairs run in the caller.

    That is on fewer than two CPUs, before the helper has booted, once it
    is gone, and while another thread holds it.  The caller releases
    ``lock``.
    """
    if not two_cpus():
        return None
    helper = process_helper()
    if helper is None or not helper.lock.acquire(blocking=False):
        return None
    if not helper.started():
        helper.lock.release()
        return None
    return helper
