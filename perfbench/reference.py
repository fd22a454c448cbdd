"""The reference passes that the timed run's end-to-end times are measured in.

The benchmark runs on a few cores of a shared host. Other tenants slow
every process on it, by up to a third and for a minute or more at a
time, so two sets of runs of the same code can differ by more than any
useful bound when timed in seconds. The runner therefore times a fixed
reference pass before and after every iteration and reports the
iteration's times in units of that pass (`ref`): a slowdown of the host
stretches both alike and cancels, a slower program does not.

The passes use no multistep code, so no change to the package moves
them. They do what the package spends its time on, in plain NumPy. The
host slows code made of many small NumPy calls more than code that
streams large arrays through BLAS, so each workload's `ref` is made of
the passes that match its own mix (`Workload.reference_passes`).
"""

import time

import numpy as np

_rng = np.random.default_rng(0)

# forward, backward and update of a 2x32 tanh MLP on a batch of 64
SMALL_STEPS = 600  # about 25 ms on an idle Xeon core
_X = _rng.standard_normal((64, 8))
_Y = _rng.standard_normal((64, 1))
_SMALL = [_rng.standard_normal(shape) * 0.3 for shape in ((8, 32), (32, 32), (32, 1))]

# eval-mode forward of 3,000 rows through two tanh layers of width 150
WIDE_PASSES = 6  # about 45 ms on an idle Xeon core
_BATCH = _rng.standard_normal((3000, 150))
_WIDE = _rng.standard_normal((150, 150)) * 0.1


def small_net_s() -> float:
    """Seconds that SMALL_STEPS training steps of a small net take now."""
    a, b, c = (w.copy() for w in _SMALL)
    start = time.perf_counter()
    for _ in range(SMALL_STEPS):
        h1 = np.tanh(_X @ a)
        h2 = np.tanh(h1 @ b)
        g = (h2 @ c - _Y) / len(_X)
        gc = h2.T @ g
        g2 = (g @ c.T) * (1 - h2 * h2)
        gb = h1.T @ g2
        ga = _X.T @ ((g2 @ b.T) * (1 - h1 * h1))
        for w, grad in ((a, ga), (b, gb), (c, gc)):
            w -= 1e-3 * grad
    return time.perf_counter() - start


def wide_batch_s() -> float:
    """Seconds that WIDE_PASSES large-batch forwards of a wide net take now."""
    start = time.perf_counter()
    for _ in range(WIDE_PASSES):
        np.tanh(np.tanh(_BATCH @ _WIDE) @ _WIDE)
    return time.perf_counter() - start
