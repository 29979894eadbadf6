"""The host's speed, sampled while the benchmark runs.

On a shared machine the same work can take 1.6 to 2 times as long for
seconds or minutes at a time, while other tenants load the physical
core. A SIGVTALRM handler times a fixed reference kernel every INTERVAL
seconds of this process's CPU time, and an operation's cost is reported
in units of that kernel's time around it ("ref"), in which most of the
host's swing cancels.

The kernel mixes the kinds of work the package does: interpreter loops,
small numpy calls and JSON. Contention slows these by different amounts;
of the kernels tried (each kind alone, small matrix products, a copy of
the see-saw's einsum step), the mix tracked the benchmark's operations
best. On a shared 2-vCPU Xeon VM it cut the spread of repeated identical
passes from 16-19% of their time to 4-7%.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.04
# samples this close (seconds) to an operation also describe its host speed
WINDOW = 0.25
SMOOTH = 5

_rng = np.random.default_rng(12345)
_A = _rng.random((16, 16))
_B = _rng.random((16, 8))
_DOC = json.dumps({"kind": "channel", "probs": _rng.random((8, 8)).tolist()})


def reference_kernel() -> float:
    """A fixed amount of interpreter, numpy and JSON work (about 1 ms)."""
    x = 0.0
    for i in range(1500):
        x += (i * 7) % 13
    for _ in range(2):
        x += len(json.dumps(json.loads(_DOC), indent=2, sort_keys=True))
    for _ in range(20):
        x += float(np.log(_A @ _B + 1.0).sum())
    return x


class HostSpeed:
    """Samples the reference kernel's time while started.

    ``stolen`` counts the seconds spent in the sampler, which the caller
    subtracts from the operations it times.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []
        self.stolen = 0.0
        self._previous = None
        self._smooth = np.zeros(0)

    def _sample(self, signum: int, frame: object) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.refs.append(t1 - t0)
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)
        # a running median over SMOOTH samples damps single slow samples
        refs = np.asarray(self.refs)
        pad = np.pad(refs, SMOOTH // 2, mode="edge")
        self._smooth = np.median(np.lib.stride_tricks.sliding_window_view(pad, SMOOTH), axis=1)

    def cost(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of work done over [start, end], in reference-kernel units.

        A long operation is cut at the samples that fall inside it, and
        each piece is divided by the kernel's time at its end, so that a
        change of host speed halfway through counts for the right share. A
        short one is divided by the median kernel time within WINDOW.
        """
        times = np.asarray(self.times)
        lo, hi = np.searchsorted(times, [start, end])
        if hi - lo < SMOOTH or hi >= times.size:
            near = (times >= start - WINDOW) & (times <= end + WINDOW)
            if near.sum() < 3:
                near = np.argsort(np.abs(times - 0.5 * (start + end)))[:SMOOTH]
            return seconds / statistics.median(self._smooth[near])
        pieces = np.diff(np.concatenate([[start], times[lo:hi], [end]]))
        per_ref = float(np.sum(pieces / self._smooth[lo:hi + 1]))
        return per_ref * seconds / (end - start)
