"""Fork-join over the CPUs of the affinity mask, into one shared buffer."""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import signal

import numpy as np

_inside = False  # this process runs a range: a nested call runs serially
_PR_SET_PDEATHSIG = 1  # prctl option: the signal sent when the parent dies


def _width() -> int:
    """CPUs of the affinity mask; 1 where fork or the mask is missing."""
    ok = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if ok else 1


def fork_join(run, n: int, shape: tuple, dtype) -> np.ndarray:
    """Return ``out`` of shape (n, *shape) once ``run(lo, hi, out)`` has
    filled ``out[lo:hi]`` for each range of a contiguous split of range(n).

    Each CPU past the first forks a child onto an anonymous shared mapping;
    the child runs only ``run`` on its range and leaves through ``os._exit``,
    never returning to the caller, and dies with the parent.  The parent runs
    the first range, reaps every child and reruns the range of one that
    failed (or could not be forked), so an error raises as in the serial
    code.  If the parent's range raises, an interrupt too, it kills and reaps
    the children first.  At width 1, and inside a range, ``run(0, n, out)``
    fills a plain array.
    """
    global _inside
    width = 1 if _inside else min(_width(), n)
    if width <= 1:
        out = np.empty((n, *shape), dtype)
        run(0, n, out)
        return out
    count = n * math.prod(shape)
    out = np.frombuffer(mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1)),
                        dtype, count).reshape(n, *shape)
    cuts = [n * i // width for i in range(width + 1)]
    parent, children, failed = os.getpid(), {}, []
    try:
        for i in range(1, width):
            try:  # a fork shares the caller's built state copy-on-write
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs this range
                failed.append(i)
                continue
            if pid == 0:  # the kernel kills the child when the parent dies
                with contextlib.suppress(AttributeError, OSError):  # no prctl
                    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() != parent:  # it died before prctl took hold
                    os._exit(1)
                _inside = True
                run(cuts[i], cuts[i + 1], out)
                os._exit(0)
            children[pid] = i
        _inside = True
        run(cuts[0], cuts[1], out)
        for pid in list(children):
            if os.waitpid(pid, 0)[1]:
                failed.append(children[pid])
            del children[pid]
        for i in sorted(failed):
            run(cuts[i], cuts[i + 1], out)
    except BaseException:
        if os.getpid() != parent:  # a child whose range raised
            os._exit(1)
        for pid in children:
            with contextlib.suppress(OSError):  # reaped just before an interrupt
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        _inside = False
    return out
