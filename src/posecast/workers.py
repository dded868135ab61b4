"""Chunks of train, predict and evaluate on the calling process and
persistent forked workers.

A call's chunk c runs on process c mod P, P the usable cores: the
calling process takes chunks 0, P, 2P, ... and P - 1 forked workers
take the rest. Processes do not share an interpreter lock, so their
chunks run side by side where two chunk threads would take turns.

``train`` opens a ``Session`` per call, and ``ForecastModel.predict``
one per call of several chunks. A ``step`` writes the parameters and
the batch into one shared region; each worker copies the parameters
into a model of its own, kept while the model's class, skeleton and
config stay the same, and writes its chunks' rows of the predictions
into the region. A training chunk also writes its gradients into one of
the worker's ``SLOTS`` gradient slots there, and the caller folds every
chunk's gradients into ``p.grad`` in chunk order, chunk 0's copied and
the rest added, so the sums and their bytes are those of the plain
loop. Only a few bytes of control cross each worker's socket; no array
is pickled.

Workers are forked at the first step with more than one chunk and kept
for the life of the process, as is the region while it is large enough:
after a fork the caller takes a copy-on-write fault on every page it
writes, so a fork per call would fault in its whole working set each
call. ``atexit`` closes the sockets and reaps the workers. A worker
ignores SIGINT and leaves when its socket reaches end of file, and any
other forked child drops the handles it inherits.
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import pickle
import signal
import socket
import threading
import traceback

import numpy as np

from . import autodiff as ad

__all__ = ["Session", "shutdown"]

SLOTS = 2           # gradient slots per worker: one being folded, one being written
_MESSAGE = 1 << 16  # largest control message, in bytes


class _Region:
    """A float64 array over a memfd that the workers map too."""

    def __init__(self, size):
        self.fd = os.memfd_create("posecast-chunks", os.MFD_CLOEXEC)
        os.ftruncate(self.fd, 8 * size)
        self.flat = np.frombuffer(mmap.mmap(self.fd, 8 * size), np.float64)

    def close(self):
        os.close(self.fd)


class _Worker:
    """The caller's end of one forked worker."""

    def __init__(self):
        """Fork the worker; in the child, serve until the socket closes."""
        mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                mine.close()
                _serve(theirs)
                code = 0
            except (EOFError, ConnectionError):
                code = 0                    # the caller has gone
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        theirs.close()
        self.sock = mine
        self.region = self.session = None   # the region and session setup it was last sent
        self.slots = None                   # the caller's views of its gradient slots
        self.owed = 0                       # messages it has still to send this step

    def send(self, message, fds=()):
        try:
            socket.send_fds(self.sock, [pickle.dumps(message)], list(fds), socket.MSG_NOSIGNAL)
        except OSError:
            raise self.died() from None

    def collect(self):
        """Wait for the worker's next chunk; return the slot its gradients
        are in (None for a chunk without), or raise the chunk's exception."""
        try:
            data = self.sock.recv(_MESSAGE)
        except OSError:
            data = b""
        if not data:
            raise self.died()
        kind, value = pickle.loads(data)
        self.owed = 0 if kind == "error" else self.owed - 1
        if kind == "error":
            raise value
        return value

    def drain(self):
        """Take what the worker has still to send this step, freeing each
        slot, so that it waits for the next step."""
        while self.owed:
            try:
                slot = self.collect()
                if slot is not None:
                    self.send(("free", slot))
            except Exception:
                pass                # an error ends its step; a death discards it

    def died(self):
        """Discard the worker; return the error that says how it ended."""
        status = self.discard()
        if os.WIFSIGNALED(status):
            sig = os.WTERMSIG(status)
            how = f"was killed by signal {sig} ({signal.Signals(sig).name})"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        return RuntimeError(f"chunk worker {self.pid} {how}")

    def discard(self):
        """Close the socket, then kill and reap the worker; returns its wait status."""
        if self in _workers:
            _workers.remove(self)
        self.sock.close()
        self.owed = 0
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return os.waitpid(self.pid, 0)[1]


_workers = []                   # live workers, in fork order
_region = None                  # the shared region, kept while large enough
_lock = threading.Lock()        # held by the step that uses the workers


def shutdown():
    """Close every worker's socket, reap the workers and drop the region.
    Runs at exit; a later step of several chunks forks workers afresh."""
    global _region
    while _workers:
        worker = _workers.pop()
        worker.sock.close()
        os.waitpid(worker.pid, 0)
    if _region is not None:
        _region.close()
        _region = None


def _forget():
    """In a forked child: close the handles inherited from the parent."""
    global _region, _lock
    for worker in _workers:
        worker.sock.close()
    _workers.clear()
    if _region is not None:
        _region.close()
        _region = None
    _lock = threading.Lock()


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _portable(exc):
    """``exc`` if it pickles within a message, else a RuntimeError naming it."""
    try:
        if len(pickle.dumps(("error", exc))) < _MESSAGE:
            return exc
    except Exception:
        pass
    return RuntimeError(f"{type(exc).__qualname__}: {str(exc)[:_MESSAGE // 8]}")


def _shapes(model, batch):
    """The region's shared arrays, in order: one per parameter, then the
    inputs, targets and predictions of a batch of up to ``batch`` windows.
    Each worker's gradient slots follow them."""
    t, k, v = model.config.input_frames, model.config.output_frames, model.joint_count
    return ([p.shape for p in model.parameters()]
            + [(batch, t, v, 3), (batch, k, v, 3), (batch, k, v, 3)])


def _carve(flat, at, shapes):
    """Consecutive views of ``flat`` from element ``at``, one per shape."""
    views = []
    for shape in shapes:
        views.append(flat[at: at + math.prod(shape)].reshape(shape))
        at += math.prod(shape)
    return views


class _Job:
    """A worker's side of one session."""

    def __init__(self, flat, model, chunk, batch, slots_at):
        self.model, self.chunk = model, chunk
        self.params = model.parameters()
        views = _carve(flat, 0, _shapes(model, batch))
        self.shared, self.arrays = views[:-3], views[-3:]
        size = sum(p.values.size for p in self.params)
        self.slots = [_carve(flat, slots_at + s * size, [p.shape for p in self.params])
                      for s in range(SLOTS)]

    def step(self, sock, free, n, first, stride, with_targets):
        """Run chunks first, first + stride, ... of an n-window batch."""
        for p, shared in zip(self.params, self.shared):
            np.copyto(p.values, shared)
        inputs, targets, preds = (a[:n] for a in self.arrays)
        targets = targets if with_targets else None
        slices = ad.chunk_slices(n, self.model.window_rows)
        for k, c in enumerate(range(first, len(slices), stride)):
            try:
                grads = self.chunk(self.model, inputs, targets, preds, slices[c])
            except Exception as exc:
                sock.send(pickle.dumps(("error", _portable(exc))))
                return
            if grads is None:
                sock.send(pickle.dumps(("done", None)))
                continue
            s = k % SLOTS
            while not free[s]:          # only frees arrive during a step
                free[_receive(sock)[0][1]] = True
            for slot, g in zip(self.slots[s], grads):
                np.copyto(slot, g)
            free[s] = False
            sock.send(pickle.dumps(("done", s)))


def _receive(sock):
    data, fds, _, _ = socket.recv_fds(sock, _MESSAGE, 1)
    if not data:
        raise EOFError
    return pickle.loads(data), fds


def _serve(sock):
    """A worker's loop: act on each message until the socket closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    flat = job = model = None
    free = [True] * SLOTS
    while True:
        message, fds = _receive(sock)
        kind = message[0]
        if kind == "region":
            flat = np.frombuffer(mmap.mmap(fds[0], message[1]), np.float64)
            os.close(fds[0])
        elif kind == "session":
            chunk, cls, skeleton, config, batch, at = message[1:]
            if model is None or (type(model), model.skeleton, model.config) != (
                    cls, skeleton, config):
                job = model = None      # free the last model first
                model = cls(skeleton, config)
            job = _Job(flat, model, chunk, batch, at)
        elif kind == "free":
            free[message[1]] = True
        else:
            job.step(sock, free, *message[1:])


def _settle(crew):
    """Bring each worker back to waiting for a step; on an interrupt while
    doing so, discard them all instead."""
    try:
        for worker in crew:
            worker.drain()
    except BaseException:
        for worker in crew:
            if worker in _workers:
                worker.discard()
        raise


class Session:
    """One ``train`` or ``predict`` call's use of the workers.

    ``step(inputs, targets)`` calls ``chunk(model, inputs, targets,
    preds, rows)`` for each ``ad.chunk_slices`` slice of the batch: a
    call writes its rows of ``preds`` and returns its gradients, one
    array per parameter, or None; ``targets`` is None for chunks that
    read none. The step folds the gradients into each parameter's
    ``grad`` in chunk order and returns ``preds``, an array of its own.
    A raising chunk's exception is raised, the lowest chunk's if several
    raise, once the workers have finished the step; a worker that dies
    raises a RuntimeError naming its pid and signal, and the next step
    forks another.

    The plain loop runs in the caller, with the same bytes, for a step of
    one chunk, with one usable core, where the import could not pin
    OpenBLAS, where ``os.fork`` or ``os.memfd_create`` is missing, while
    another thread's step holds the workers, and, until workers exist,
    while another thread is alive.
    """

    def __init__(self, model, chunk, batch):
        self.model, self.chunk = model, chunk
        self.params = model.parameters()
        self.size = sum(p.values.size for p in self.params)
        self.shapes = _shapes(model, batch)
        self.slots_at = sum(math.prod(s) for s in self.shapes)
        self.setup = (chunk, type(model), model.skeleton, model.config, batch)
        self.region = None

    def step(self, inputs, targets):
        slices = ad.chunk_slices(len(inputs), self.model.window_rows)
        lock = _lock
        if lock.acquire(blocking=False):
            try:
                crew = self._crew(len(slices))
                if crew:
                    return self._spread(crew, slices, inputs, targets)
            finally:
                lock.release()
        preds = np.empty((len(inputs), *self.shapes[-1][1:]))
        for i, rows in enumerate(slices):
            self._fold(i, self.chunk(self.model, inputs, targets, preds, rows))
        return preds

    def _spread(self, crew, slices, inputs, targets):
        """The step on the caller and ``crew``: chunk c on process c mod P."""
        n = len(inputs)
        for shared, p in zip(self.shared, self.params):
            np.copyto(shared, p.values)
        shared_in, shared_out, preds = (a[:n] for a in self.arrays)
        np.copyto(shared_in, inputs)
        if targets is not None:
            np.copyto(shared_out, targets)
        procs = len(crew) + 1
        try:
            for w, worker in enumerate(crew, 1):
                worker.owed = len(range(w, len(slices), procs))
                worker.send(("step", n, w, procs, targets is not None))
            for i, rows in enumerate(slices):
                if i % procs == 0:
                    self._fold(i, self.chunk(self.model, inputs, targets, preds, rows))
                else:
                    worker = crew[i % procs - 1]
                    slot = worker.collect()
                    if slot is not None:
                        self._fold(i, worker.slots[slot])
                        worker.send(("free", slot))
        finally:
            _settle(crew)
        return preds.copy()             # the region is the next step's

    def _crew(self, chunks):
        """The workers that take a share of a step of ``chunks`` chunks,
        forked and sent the region and this session as needed; [] for the
        plain loop."""
        cores = ad._usable_cores() if ad._set_blas_threads is not None else 1
        want = min(cores, chunks) - 1
        if want < 1 or not hasattr(os, "memfd_create"):
            return []
        try:
            while (len(_workers) < want and hasattr(os, "fork")
                   and threading.active_count() == 1):
                _workers.append(_Worker())
        except OSError:
            pass                            # no fork now: run with the workers there are
        crew = _workers[:want]
        if crew:
            self._attach(crew)
        return crew

    def _attach(self, crew):
        global _region
        need = self.slots_at + len(crew) * SLOTS * self.size
        if _region is None or _region.flat.size < need:
            if _region is not None:
                _region.close()
            _region = _Region(need)
        if self.region is not _region:
            self.region = _region
            views = _carve(_region.flat, 0, self.shapes)
            self.shared, self.arrays = views[:-3], views[-3:]
        for w, worker in enumerate(crew):
            if worker.region is not _region:
                worker.send(("region", _region.flat.nbytes), [_region.fd])
                worker.region, worker.session = _region, None
            at = self.slots_at + w * SLOTS * self.size
            if worker.session != (self.setup, at):
                worker.send(("session", *self.setup, at))
                worker.session = (self.setup, at)
                worker.slots = [_carve(_region.flat, at + s * self.size, self.shapes[:-3])
                                for s in range(SLOTS)]

    def _fold(self, i, grads):
        if grads is None:
            return
        for p, g in zip(self.params, grads):
            if i == 0:
                np.copyto(p.grad, g)
            else:
                p.grad += g
