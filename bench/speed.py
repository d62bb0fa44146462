"""Machine speed, sampled inline all through a run.

On the 2-core reference box the CPU runs the same instructions up to twice
as fast in one minute as in the next: a seeded ``recover_key`` doing exactly
the same work took 0.35-0.73 s within one two-minute loop, and the median of
50 decryptions moved by half its value from one process to the next.  Every
reported time is therefore scaled to a fixed machine speed: a probe of fixed
work, written here and never changed with the library, is timed every
INTERVAL seconds, and an operation that took ``wall`` seconds while the probe
took ``p`` seconds is reported as ``wall * REF_PROBE_S[kind] / p``.

A probe imitates the library's work.  The "tables" probe (numpy gathers on
small integer arrays driven from Python) is one Gaussian elimination of a
12 x 15 matrix and one lockstep elimination of a stack of 32 matrices of
18 x 15, over GF(16).  In odd characteristic the field's additions go digit
by digit, which speeds up and slows down unlike gathers, so there a "digits"
probe (digit-wise sums over stacks of the same shape) runs too.  Probes have
to run between the bytecodes of the work they scale, so they run after each
timed operation and, inside long operations, after calls into the library's
``linalg`` module.  Probes fired from a timer signal tracked the work much
worse, and so did probes run only before and after a long call.
"""

from __future__ import annotations

import bisect
import inspect
import statistics
import time

import numpy as np

import checker

INTERVAL = 0.05  # seconds between probes
# Probe kinds run for a field of odd characteristic (True) or not (False).
PROBES = {False: ("tables",), True: ("tables", "digits")}
# Each probe's time at the reference speed.  On the reference box the median
# "tables" probe of a run ranged from 2.4 ms to 7.1 ms.
REF_PROBE_S = {"tables": 3.0e-3, "digits": 1.5e-3}


class Speed:
    def __init__(self, p: int, m: int):
        rng = np.random.default_rng(0)
        self._f = checker.Field(2, 4, 19)
        self._single = rng.integers(0, 16, (12, 15))
        self._stack = rng.integers(0, 16, (32, 18, 15))
        self._p, self._m = p, m
        self._digits = rng.integers(0, p**m, (2, 32, 18, 16))
        self.times: list[float] = []  # probe start times, increasing
        self.probes: dict[str, list[float]] = {kind: [] for kind in PROBES[p != 2]}
        self.spent = 0.0  # seconds spent in probes
        self._last = -1.0

    def _probe(self) -> None:
        t0 = u = time.perf_counter()
        for kind, series in self.probes.items():
            if kind == "tables":
                self._f.rref(self._single)
                _batched_rank(self._f, self._stack)
            else:
                _digitwise_sums(*self._digits, self._p, self._m)
            v = time.perf_counter()
            series.append(v - u)
            u = v
        self.times.append(t0)
        self.spent += u - t0
        self._last = u

    def tick(self) -> None:
        """Probe when INTERVAL has passed since the last probe."""
        if time.perf_counter() - self._last >= INTERVAL:
            self._probe()

    def warm(self, count: int = 10) -> None:
        for _ in range(count):
            self._probe()

    def hook(self, module) -> None:
        """Tick after every call of a public function of ``module``."""
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                setattr(module, name, self._ticking(fn))

    def _ticking(self, fn):
        tick = self.tick

        def ticking(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        return ticking

    def timed(self, fn, *args):
        """(result or the exception raised, wall seconds net of probes,
        start, end); ``scale`` takes the last three."""
        spent, t0 = self.spent, time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # handed back: the caller knows which ones count as failed
            out = e
        t1 = time.perf_counter()
        wall = t1 - t0 - (self.spent - spent)
        self.tick()
        return out, wall, t0, t1

    def scale(self, wall: float, t0: float, t1: float, kind: str = "tables") -> float:
        """``wall`` seconds spent in [t0, t1] at the reference speed; call
        once a few probes have run after t1.

        The speed changes within a fraction of a second, so the operation is
        cut at the probes that ran inside it and each piece is scaled by the
        median of the five probes around it.
        """
        probes, ref = self.probes[kind], REF_PROBE_S[kind]
        first = bisect.bisect_left(self.times, t0)
        last = bisect.bisect_left(self.times, t1)
        total, start = 0.0, t0
        for i in range(first, last + 1):
            end = self.times[i] if i < last else t1
            local = statistics.median(probes[max(0, i - 3): i + 2])
            total += (end - start) * ref / local
            if i < last:
                start = self.times[i] + sum(p[i] for p in self.probes.values())
        return total


def _batched_rank(f: checker.Field, stack: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices, eliminated in lockstep."""
    m = stack.copy()
    nmat, nrows, ncols = m.shape
    rowptr = np.zeros(nmat, dtype=np.int64)
    rowidx = np.arange(nrows)
    for c in range(ncols):
        eligible = (rowidx[None, :] >= rowptr[:, None]) & (m[:, :, c] != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        rp = rowptr[b]
        pr = np.argmax(eligible[b], axis=1)
        swap = m[b, rp, :].copy()
        m[b, rp, :] = m[b, pr, :]
        m[b, pr, :] = swap
        piv = f.mul_t[m[b, rp, :], f.inv_t[m[b, rp, c]][:, None]]
        m[b, rp, :] = piv
        fac = np.where(rowidx[None, :] > rp[:, None], m[b, :, c], 0)
        m[b] = f.sub_t[m[b], f.mul_t[fac[:, :, None], piv[:, None, :]]]
        rowptr[b] += 1
    return rowptr


def _digitwise_sums(a: np.ndarray, b: np.ndarray, p: int, m: int, reps: int = 4) -> np.ndarray:
    """Elementwise sums in GF(p^m) digit by digit, as odd characteristic adds."""
    for _ in range(reps):
        out = np.zeros(a.shape, dtype=np.int64)
        x, y, scale = a, b, 1
        for _ in range(m):
            out += (x % p + y % p) % p * scale
            x, y, scale = x // p, y // p, scale * p
    return out
