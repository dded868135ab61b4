"""Chunks of train, predict and evaluate on the calling process and
persistent forked workers.

A call's chunk c runs on process c mod P, P the usable cores: the
calling process takes chunks 0, P, 2P, ... and P - 1 forked workers
take the rest. Processes do not share an interpreter lock, so their
chunks run side by side where two chunk threads would take turns.

``step`` writes the parameters and the batch into one shared region and
sends each worker one message with the region's fd: the chunk function,
the model's class, skeleton and config, the batch size, the worker's
first chunk and the stride. The worker maps the region for that step
only, and both sides carve it with ``_layout``. Each worker copies the
parameters into a model of its own, the one thing it keeps between
steps while the model's class, skeleton and config stay the same, and
writes its chunks' rows of the predictions into the region. A training
chunk also writes its gradients into the worker's one gradient slot
there, once the caller has freed it, and the caller folds every chunk's
gradients into ``p.grad`` in chunk order, chunk 0's copied and the rest
added, so the sums and their bytes are those of the plain loop. Only a
few bytes of control cross each worker's socket; no array is pickled.

Workers are forked at the first step with more than one chunk and kept
for the life of the process, as is the caller's mapping of the region
while it is large enough: after a fork the caller takes a copy-on-write
fault on every page it writes, so a fork per call would fault in its
whole working set each call. A step that raises kills its workers; the
next forks new ones. ``atexit`` kills and reaps the workers. A worker
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
import warnings

import numpy as np

from . import autodiff as ad

__all__ = ["step", "shutdown"]

_MESSAGE = 1 << 16  # largest control message, in bytes


class _Region:
    """A float64 array over a memfd that the workers map too."""

    def __init__(self, size):
        self.fd = os.memfd_create("posecast-chunks", os.MFD_CLOEXEC)
        os.ftruncate(self.fd, 8 * size)
        self.flat = np.frombuffer(mmap.mmap(self.fd, 8 * size), np.float64)


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
            except ConnectionError:
                code = 0                    # the caller has gone
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        theirs.close()
        self.sock = mine
        self.status = None                  # its wait status, once reaped

    def send(self, message, fds=()):
        try:
            socket.send_fds(self.sock, [pickle.dumps(message)], list(fds), socket.MSG_NOSIGNAL)
        except OSError:
            raise self.died() from None

    def collect(self):
        """Wait for the worker's next chunk; return whether its gradients
        are in the worker's slot, or raise the chunk's exception."""
        try:
            kind, value = pickle.loads(self.sock.recv(_MESSAGE))
        except (OSError, EOFError):         # EOFError: the socket is at end of file
            raise self.died() from None
        if kind != "error":
            return value
        try:
            raise value
        finally:
            del value           # a cycle of this frame and the error would keep the region mapped

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
        """Close the socket, then kill and reap the worker unless it is
        reaped already; returns its wait status."""
        if self.status is None:
            _workers.remove(self)
            self.sock.close()
            os.kill(self.pid, signal.SIGKILL)       # not reaped, so the pid is still its
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


_workers = []                   # live workers, in fork order
_region = None                  # the shared region, kept while large enough
_lock = threading.Lock()        # held by the step that uses the workers
_warned = False                 # whether a live thread has kept a step serial


def shutdown():
    """Kill and reap the workers and drop the region. Runs at exit; a
    later step of several chunks forks workers afresh."""
    while _workers:
        _workers[0].discard()
    _forget()


def _forget():
    """Close the workers' sockets and the region, and take a fresh lock;
    a forked child runs it on the handles it inherits from the parent."""
    global _region, _lock
    for worker in _workers:
        worker.sock.close()
    _workers.clear()
    if _region is not None:
        os.close(_region.fd)
        _region = None
    _lock = threading.Lock()


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _portable(exc):
    """``exc`` if it pickles within a message and loads again, else a
    RuntimeError naming it."""
    try:
        data = pickle.dumps(("error", exc))
        if len(data) < _MESSAGE and pickle.loads(data):     # loads raises if it cannot
            return exc
    except Exception:
        pass
    return RuntimeError(f"{type(exc).__qualname__}: {str(exc)[:_MESSAGE // 8]}")


def _layout(model, n, crew):
    """The shapes of the region's arrays, in order: one per parameter, then
    each of ``crew`` workers' gradient slot of the same shapes, then the
    inputs, targets and predictions of an n-window batch."""
    t, k, v = model.config.input_frames, model.config.output_frames, model.joint_count
    return ([p.shape for p in model.parameters()] * (1 + crew)
            + [(n, t, v, 3), (n, k, v, 3), (n, k, v, 3)])


def _carve(flat, shapes, count):
    """Consecutive views of ``flat``, one per shape of ``_layout``: the
    ``count`` parameters' views, a list of the crew's gradient slots in
    worker order, and the inputs, targets and predictions."""
    views, at = [], 0
    for shape in shapes:
        views.append(flat[at: at + math.prod(shape)].reshape(shape))
        at += math.prod(shape)
    sets = [views[i: i + count] for i in range(0, len(views) - 3, count)]
    return sets[0], sets[1:], views[-3:]


def _serve(sock):
    """A worker's loop, until the socket closes: run each step message,
    keeping the model between steps. A message that does not load, such
    as one naming a function defined after the fork, is that step's error."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    model = None
    while True:
        data, fds, _, _ = socket.recv_fds(sock, _MESSAGE, 1)
        if not data:
            return
        try:
            message = pickle.loads(data)
        except Exception as exc:
            os.close(fds[0])
            sock.send(pickle.dumps(("error", _portable(exc))))
        else:
            model = _run(sock, model, fds[0], *message)


def _run(sock, model, fd, chunk, cls, skeleton, config, n, first, stride, with_targets):
    """Run chunks first, first + stride, ... of an n-window batch on the
    region ``fd`` holds, mapped for this call only; returns the model."""
    flat = np.frombuffer(mmap.mmap(fd, 0), np.float64)         # the whole region
    os.close(fd)
    if model is None or (type(model), model.skeleton, model.config) != (cls, skeleton, config):
        model = None                    # free the last model first
        model = cls(skeleton, config)
    params = model.parameters()
    shared, slots, (inputs, targets, preds) = _carve(
        flat, _layout(model, n, stride - 1), len(params))
    for p, values in zip(params, shared):
        np.copyto(p.values, values)
    slices, written = ad.chunk_slices(n, model.window_rows), False
    for c in range(first, len(slices), stride):
        try:
            grads = chunk(model, inputs, targets if with_targets else None, preds, slices[c])
        except Exception as exc:
            sock.send(pickle.dumps(("error", _portable(exc))))
            break
        if grads is not None:
            if written:
                sock.recv(_MESSAGE)     # the free of the slot, sent while a later chunk is due
            for slot, g in zip(slots[first - 1], grads):
                np.copyto(slot, g)
            written = True
        sock.send(pickle.dumps(("done", grads is not None)))
    return model


def step(model, chunk, inputs, targets=None):
    """Call ``chunk(model, inputs, targets, preds, rows)`` for each
    ``ad.chunk_slices`` slice of the batch and return ``preds``, an array
    of its own.

    A call writes its rows of ``preds`` and returns its gradients, one
    array per parameter, or None, the same for every call of a step;
    ``targets`` is None for chunks that read none. The step folds the
    gradients into each parameter's ``grad`` in chunk order. A raising
    chunk's exception is raised, the lowest chunk's of those that ran; a
    worker that dies raises a RuntimeError naming its pid and signal. A
    step that raises, on an interrupt too, kills its workers without
    waiting for their other chunks, and the next step forks new ones.

    The plain loop runs in the caller, with the same bytes, for a step of
    one chunk, with one usable core, where the import could not pin
    OpenBLAS, where ``os.fork`` or ``os.memfd_create`` is missing, while
    another thread's step holds the workers, and, until workers exist,
    while another thread is alive; the first step that runs serially for
    that last reason issues a RuntimeWarning.
    """
    slices = ad.chunk_slices(len(inputs), model.window_rows)
    params = model.parameters()
    lock = _lock
    if lock.acquire(blocking=False):
        try:
            crew = _crew(len(slices))
            if crew:
                return _spread(crew, model, chunk, params, slices, inputs, targets)
        finally:
            lock.release()
    preds = np.empty((len(inputs), model.config.output_frames, model.joint_count, 3))
    for i, rows in enumerate(slices):
        _fold(params, i, chunk(model, inputs, targets, preds, rows))
    return preds


def _spread(crew, model, chunk, params, slices, inputs, targets):
    """The step on the caller and ``crew``: chunk c on process c mod P."""
    global _region
    n, procs = len(inputs), len(crew) + 1
    shapes = _layout(model, n, len(crew))
    need = sum(math.prod(shape) for shape in shapes)
    if _region is None or _region.flat.size < need:
        if _region is not None:
            os.close(_region.fd)
        _region = _Region(need)
    shared, slots, (shared_in, shared_out, preds) = _carve(_region.flat, shapes, len(params))
    for values, p in zip(shared, params):
        np.copyto(values, p.values)
    np.copyto(shared_in, inputs)
    if targets is not None:
        np.copyto(shared_out, targets)
    setup = (chunk, type(model), model.skeleton, model.config, n)
    try:
        for w, worker in enumerate(crew, 1):
            worker.send((*setup, w, procs, targets is not None), [_region.fd])
        for i, rows in enumerate(slices):
            w = i % procs
            if w == 0:
                _fold(params, i, chunk(model, inputs, targets, preds, rows))
            elif crew[w - 1].collect():
                _fold(params, i, slots[w - 1])
                if i + procs < len(slices):
                    crew[w - 1].send("free")
    except BaseException:
        for worker in crew:
            worker.discard()
        raise
    return preds.copy()                 # the region is the next step's


def _crew(chunks):
    """The workers that take a share of a step of ``chunks`` chunks, forked
    as needed; [] for the plain loop."""
    global _warned
    cores = ad._usable_cores() if ad._set_blas_threads is not None else 1
    want = min(cores, chunks) - 1
    if want < 1 or not hasattr(os, "memfd_create"):
        return []
    try:
        while len(_workers) < want and hasattr(os, "fork") and threading.active_count() == 1:
            _workers.append(_Worker())
    except OSError:
        pass                            # no fork now: run with the workers there are
    if not (_workers or _warned or threading.active_count() == 1):
        _warned = True
        warnings.warn("another thread is alive, so posecast forks no chunk worker and runs "
                      "this step's chunks serially", RuntimeWarning, stacklevel=4)
    return _workers[:want]


def _fold(params, i, grads):
    for p, g in zip(params, grads or ()):
        if i == 0:
            np.copyto(p.grad, g)
        else:
            p.grad += g
