"""The pair helper: one child process that runs half of a job while the caller runs the other.

``run_call(fn, args, local)`` is its one entry.  It decides whether
``fn(*args)`` goes to the helper, sends it, runs ``local()`` in the caller
meanwhile, and falls back to the caller when the helper does not answer.
``fn`` is a picklable module-level function, sent with each job;
``prepare(fn)`` has the helper run ``fn()`` once with no caller waiting.
Every batch of independent work in sbopt goes through it:

- ``Evaluator.evaluate_pair`` sends the objective at the second point of a
  pair: SPSA's two perturbed points, and the two points DIRECT's
  trisection samples along each longest side;
- ``sbopt.kriging`` sends the later half of each fit's likelihood starts,
  of the infill probe's EI rows and of the infill pattern-search starts.
  Each of those rows and starts is computed independently of the others,
  so the joined halves are bit for bit the whole.

A job goes to the helper only while the caller's own measured cost of its
function exceeds the measured round trip of that function's jobs through
the helper (``Gate``), so a function too cheap to gain runs here.  Timing
decides only where a job runs, never its value.

The helper is one child ``python`` per interpreter, started with
``subprocess`` on POSIX in a session of its own, so Ctrl-C at a terminal
reaches only the caller; the two talk over a socket pair (``Channel``).
Its environment holds BLAS to one thread (``BLAS_THREAD_VARS``), so its
BLAS never contends with the caller's for the cores.
This module is imported on the first job, so importing ``sbopt`` loads no
process machinery.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import select
import socket
import subprocess
import sys
import threading
import time

# The helper's __main__, run as ``python -c BOOT fd *path``; it takes the caller's sys.path
# from ``path`` before its first import.  It leaves no name in __main__, where a function
# of the caller's __main__ must not load.
BOOT = """
def boot():
    import sys
    sys.path[:] = sys.argv[2:]
    from sbopt._pair import Channel, serve
    serve(Channel(int(sys.argv[1])))
globals().pop("boot")()
"""
# the variables BLAS libraries read for their thread count, each 1 in the helper's environment
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the jobs of a function that go to the helper whatever they cost, so that its
# round trip is the least of several before the gate can keep the function here;
# for a function cheaper than a round trip they cost about 2 ms once
GATE_SAMPLES = 16


class Channel:
    """The caller's or the helper's end of the socket pair between them, a file descriptor.

    A message is an 8-byte length and that many bytes; ``send`` and
    ``recv`` carry pickles.  A closed peer shows up as EOFError on receive
    and as OSError on send, never as a hang.
    """

    def __init__(self, fd: int):
        self.fd = fd
        self.poller = select.poll()
        self.poller.register(fd, select.POLLIN)

    def send_bytes(self, data) -> None:
        for part in (len(data).to_bytes(8, "big"), data):
            view = memoryview(part)
            while view:
                view = view[os.write(self.fd, view):]

    def recv_bytes(self) -> bytearray:
        return self._exactly(int.from_bytes(self._exactly(8), "big"))

    def _exactly(self, n: int) -> bytearray:
        data = bytearray(n)
        view, got = memoryview(data), 0
        while got < n:
            k = os.readv(self.fd, [view[got:]])
            if k == 0:
                raise EOFError("the other end closed the channel")
            got += k
        return data

    def send(self, obj) -> None:
        self.send_bytes(pickle.dumps(obj, 5))

    def recv(self):
        return pickle.loads(self.recv_bytes())

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a message, or the other end's close, arrives within timeout seconds."""
        return bool(self.poller.poll(timeout * 1000))

    def close(self) -> None:
        os.close(self.fd)


def two_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


def serve(conn) -> None:
    """The helper's loop: run each call received until the channel closes.

    A request is the pickle of ``(pickled function, args)``.  The reply is
    ``(True, fn(*args))`` or ``(False, exception)``, or None when the
    function or its arguments did not load or the reply would not load in
    the caller; the caller then runs the call itself.
    """
    try:
        conn.send("ready")
        while True:
            data = conn.recv_bytes()
            try:
                pickled, args = pickle.loads(data)
                fn = pickle.loads(pickled)
            except Exception:  # e.g. a function of the caller's __main__
                conn.send(None)
                continue
            try:
                reply = (True, fn(*args))
            except Exception as exc:
                reply = (False, exc)
            try:
                data = pickle.dumps(reply, 5)
                if not reply[0]:
                    pickle.loads(data)  # some exception types do not load again
            except Exception:
                data = pickle.dumps(None)
            conn.send_bytes(data)
    except (EOFError, OSError):  # the caller closed the channel or exited
        return


class PairHelper:
    """One child ``python`` that runs the second half of each job.

    It is started on the first job, never at import, and takes jobs once it
    reports that it has booted and owes no reply, so no caller waits for its
    start or for a ``prepare`` call.  The parent closes its copy of the
    child's end of the channel, so a helper that dies or fails to start
    shows up as an error on the channel, never as a hang, and it is then
    closed for good.  ``close`` runs at exit.
    """

    def __init__(self):
        self.owner = os.getpid()
        self.lock = threading.Lock()
        self.refused = None  # the last function it did not answer for, which runs here
        self.prepared = set()  # the prepare functions sent to it
        self.owed = 1  # replies it owes that no caller waits for: "ready", then prepares
        self.jobs = 0  # calls it answered, for tests
        self.gates = {}  # the pickle of each function sent to it -> its Gate
        self.alive = False
        try:
            ours, child = socket.socketpair()
        except OSError:  # e.g. out of file descriptors
            return
        self.conn = Channel(ours.detach())
        with child:  # the helper holds its own copy
            try:
                flags = subprocess._args_from_interpreter_flags()  # -W, -X: warn as here
                path = [p for p in sys.path if isinstance(p, str)]  # imports read only str
                self.process = subprocess.Popen(
                    [sys.executable, *flags, "-c", BOOT, str(child.fileno()), *path],
                    pass_fds=(child.fileno(),), start_new_session=True,
                    env={**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")})
                self.alive = True
                atexit.register(self.close)
            except OSError:  # e.g. no process left to start
                self.conn.close()

    def idle(self) -> bool:
        """True once the helper has booted and owes no reply; reads the replies that are in."""
        while self.owed and self.alive and self.conn.poll():
            try:
                self.conn.recv_bytes()
            except (EOFError, OSError):  # it died
                self.close()
                break
            self.owed -= 1
        return self.alive and not self.owed

    def send(self, request: bytes) -> bool:
        """Write one request; False, with the helper closed, when the channel is broken."""
        try:
            self.conn.send_bytes(request)
        except OSError:  # a closed or broken channel
            self.close()
            return False
        return True

    def call(self, request: bytes, local):
        """Send one request, run ``local()`` meanwhile, and return ``(local(), reply)``.

        The reply is the helper's, read even when ``local`` raises, or
        None when the helper is gone.
        """
        if not self.send(request):
            return local(), None
        try:
            out = local()
        finally:
            try:
                reply = self.conn.recv()
            except Exception:  # it died
                self.close()
                reply = None
            except BaseException:  # interrupted: out of step with the helper from here on
                self.close()
                raise
        return out, reply

    def close(self) -> None:
        if self.owner == os.getpid() and self.alive:
            self.alive = False
            self.conn.close()
            try:
                self.process.wait(1.0)  # the closed channel ends its loop
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


_helper: PairHelper | None = None


def process_helper() -> PairHelper | None:
    """This process's pair helper, started on first use; None once it is gone."""
    global _helper
    if _helper is None or _helper.owner != os.getpid():  # none yet, or inherited by fork
        _helper = PairHelper()
    return _helper if _helper.alive else None


def _take(fn):
    """``(helper, pickle of fn)`` with the helper's lock held, or None when the
    helper may not take ``fn``: off POSIX, on fewer than two CPUs, for a ``fn``
    that does not pickle or that the helper could not take, once it is gone,
    and while another thread holds it.  Starts the helper on first use."""
    if os.name != "posix" or not two_cpus():  # pass_fds is POSIX-only
        return None
    try:
        pickled = pickle.dumps(fn)
    except Exception:  # closures, lambdas, open handles
        return None
    helper = process_helper()
    if helper is None or fn is helper.refused or not helper.lock.acquire(False):
        return None
    return helper, pickled


def prepare(fn) -> None:
    """Have the helper run ``fn()`` once, with no caller waiting for it.

    Starts the helper if it may take ``fn`` (see ``_take``) and sends ``fn``
    unless it was sent before; jobs run here until its reply is in.
    ``run_rk`` sends its scipy loader, so the helper's import overlaps the
    design and is off the caller's critical path.
    """
    taken = _take(fn)
    if taken is not None:
        helper, pickled = taken
        try:
            if fn not in helper.prepared and helper.send(pickle.dumps((pickled, ()))):
                helper.prepared.add(fn)
                helper.owed += 1
        finally:
            helper.lock.release()


class Gate:
    """Whether one function's jobs go to the helper, from what they cost.

    Sending a job saves the caller the function's cost and spends its round
    trip, so once ``GATE_SAMPLES`` jobs have been measured, a job goes only
    while ``cost`` exceeds ``round_trip``.  ``cost`` is the caller's latest
    time for the function: for ``local()``, the batch's other half, when a
    job went to the helper, and for ``fn(*args)`` when it ran here.
    ``round_trip`` is the least time a job spent beyond ``local()``:
    pickling, the channel, the wait for the helper and unpickling the reply.
    The least drops the first job's import of the function in the helper.
    """

    def __init__(self):
        self.samples = 0
        self.cost = math.inf
        self.round_trip = math.inf

    def opens(self) -> bool:
        return self.samples < GATE_SAMPLES or self.cost > self.round_trip

    def measured(self, cost: float, round_trip: float) -> None:
        self.samples += 1
        self.cost = cost
        self.round_trip = min(self.round_trip, round_trip)


def _timed(fn, *args):
    """``(fn(*args), the seconds it took)``."""
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def run_call(fn, args: tuple, local):
    """Run ``fn(*args)`` in the helper while ``local()`` runs here.

    Returns ``(local(), fn(*args))``.  When the helper took the call but did
    not answer, ``fn(*args)`` runs here once ``local()`` has returned.  An
    exception ``fn`` raised in the helper is raised here once ``local()``
    has returned.  When ``fn``'s ``Gate`` finds it too cheap to gain from
    the helper, ``local()`` and then ``fn(*args)`` run here, timed.
    Returns None, without calling ``local``, when the call cannot go to the
    helper: when ``_take`` finds it may not take ``fn``, for ``args`` that
    do not pickle, and before the helper has booted or while it owes a
    reply.  The caller then does the whole job itself.
    """
    taken = _take(fn)
    if taken is None:
        return None
    helper, pickled = taken
    gate = helper.gates.setdefault(pickled, Gate())
    try:
        sent = gate.opens()
        if sent:
            if not helper.idle():
                return None
            start = time.perf_counter()
            try:
                request = pickle.dumps((pickled, args), 5)
            except Exception:  # e.g. a lambda among the arguments
                return None
            (out, local_s), reply = helper.call(request, lambda: _timed(local))
            if reply is not None:
                gate.measured(local_s, time.perf_counter() - start - local_s)
    finally:
        helper.lock.release()
    if not sent:
        out = local()
        value, gate.cost = _timed(fn, *args)
        return out, value
    if reply is None:  # it is gone, or cannot take this call or its reply
        helper.refused = fn
        return out, fn(*args)
    helper.jobs += 1
    ok, value = reply
    if not ok:
        raise value
    return out, value
