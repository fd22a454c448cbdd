"""`strategies.rollout` over fixed row blocks on a thread pool.

A wide net's rollout of two or more blocks runs each block's serial loop
on a thread pool. The block offsets do not depend on the core count, so
at one BLAS thread the blocked rollout must give the bits of the
one-block rollout; the bit checks run in a child interpreter whose BLAS
is pinned to one thread before NumPy loads. The other tests check what
the pool must not change: one eval forward per step and block, the
serial path's errors, waiting for every block, and a forked child.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from multistep import nn, strategies
from multistep.errors import NumericError

SRC = Path(__file__).resolve().parents[1] / "src"
P, N_STEPS = 8, 8

# Run in a child interpreter at one BLAS thread. For each case it compares
# the blocked rollout with the one-block rollout (the bound raised past
# every net), and two threads rolling out one net at once with the latter.
# First it checks that serial rollouts leave the pool unmade and
# concurrent.futures unimported.
ONE_THREAD_CHILD = """
import json, sys, threading
import numpy as np
from multistep import nn, strategies

P, N_STEPS = %d, %d
for width, m in ((32, 2865), (150, 511)):
    net = nn.init_net(P, 1, 0, hidden_layers=2, hidden_units=width)
    strategies.rollout(net, np.zeros((m, P)), N_STEPS)
assert strategies._pool is None and "concurrent.futures" not in sys.modules
cases, differ = 0, []
for width in (64, 150):
    for step in (None, N_STEPS):
        net = nn.init_net(P + (step is not None), 1, width, hidden_layers=2, hidden_units=width)
        assert net.params.size >= strategies.PARALLEL_MIN_PARAMS
        for m in (511, 512, 513, 767, 2001, 2865):
            h = np.random.default_rng(m).uniform(0, 1, (m, P))
            blocked = strategies.rollout(net, h, N_STEPS, step)
            bound = strategies.PARALLEL_MIN_PARAMS
            strategies.PARALLEL_MIN_PARAMS = sys.maxsize
            one_block = strategies.rollout(net, h, N_STEPS, step)
            strategies.PARALLEL_MIN_PARAMS = bound
            together = [None, None]

            def roll(i):
                together[i] = strategies.rollout(net, h, N_STEPS, step)

            threads = [threading.Thread(target=roll, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            cases += 1
            for name, got in (("blocked", blocked), ("thread 0", together[0]),
                              ("thread 1", together[1])):
                if got is None or not np.array_equal(got, one_block):
                    differ.append(f"{name}: width {width}, step {step}, m {m}")
print(json.dumps({"cases": cases, "differ": differ}))
""" % (P, N_STEPS)


def test_blocks_give_the_one_block_bits_at_one_blas_thread():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             "1"))
    proc = subprocess.run([sys.executable, "-c", ONE_THREAD_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"cases": 24, "differ": []}


def wide_net(width=150):
    return nn.init_net(P, 1, 0, hidden_layers=2, hidden_units=width)


def histories(m, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (m, P))


def count_forwards(monkeypatch, before=None):
    """Rebind `strategies.forward` to one that records each call's row
    count and thread under a lock (`before(x)` runs first); returns the
    live list of (rows, thread name)."""
    calls, lock, forward = [], threading.Lock(), strategies.forward

    def counting(net, x, *args, **kwargs):
        if before is not None:
            before(x)
        out = forward(net, x, *args, **kwargs)
        with lock:
            calls.append((len(x), threading.current_thread().name))
        return out

    monkeypatch.setattr(strategies, "forward", counting)
    return calls


@pytest.mark.parametrize("width, m, rows", [
    (150, 2001, [256] * 6 + [465]),  # the 209-row remainder joins the last block
    (150, 512, [256, 256]),
    (150, 511, [511]),  # one block: serial
    (32, 2001, [2001]),  # under the parameter bound: serial
])
def test_one_eval_forward_per_step_and_block(monkeypatch, width, m, rows):
    calls = count_forwards(monkeypatch)
    strategies.rollout(wide_net(width), histories(m), N_STEPS)
    assert sorted(r for r, _ in calls) == sorted(rows * N_STEPS)
    assert sum(r for r, _ in calls) == m * N_STEPS


def test_nan_in_the_last_block_raises_the_serial_error():
    h = histories(2001)
    h[-1, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite input"):
        strategies.rollout(wide_net(), h, N_STEPS)


def test_rollout_waits_for_every_block_before_it_raises(monkeypatch):
    """A NaN in block 0 fails at once; the other blocks are slowed, so a
    rollout that raised before they ended would leave forwards running."""
    h = histories(4 * strategies.ROLLOUT_BLOCK)
    h[0, 0] = np.nan
    calls = count_forwards(monkeypatch,
                           before=lambda x: None if np.isnan(x).any() else time.sleep(0.01))
    with pytest.raises(NumericError):
        strategies.rollout(wide_net(), h, N_STEPS)
    done = len(calls)
    time.sleep(0.1)
    assert done == len(calls) == 3 * N_STEPS


def test_blocks_are_submitted_by_the_caller_alone(monkeypatch):
    """No block submits to the pool, so no pool thread waits on the pool."""
    pool = strategies._block_pool()
    submitters = []

    class Recording:
        def submit(self, *args):
            submitters.append(threading.current_thread().name)
            return pool.submit(*args)

    monkeypatch.setattr(strategies, "_block_pool", Recording)
    calls = count_forwards(monkeypatch)
    strategies.rollout(wide_net(), histories(1024), N_STEPS)
    assert submitters == [threading.current_thread().name] * 4
    assert all(name.startswith("rollout") for _, name in calls)


def test_threads_racing_to_make_the_pool_make_one(monkeypatch):
    """More user threads than cores, switching often, all make the first
    rollout of a process: one pool is made, and all get the same bits. A
    slow pool constructor widens the window in which a second could start."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.01)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(strategies, "_pool", None)
    net, h = wide_net(), histories(1024)
    results = [None] * 8
    start = threading.Barrier(len(results), timeout=60)

    def roll(i):
        start.wait()
        results[i] = strategies.rollout(net, h, N_STEPS)

    threads = [threading.Thread(target=roll, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 1
    assert all(np.array_equal(r, results[0]) for r in results)


def roll_in_child(conn):
    conn.send(strategies.rollout(wide_net(), histories(1024), N_STEPS))
    conn.close()


def test_a_forked_child_rolls_out_on_a_pool_of_its_own():
    parent_bits = strategies.rollout(wide_net(), histories(1024), N_STEPS)
    assert strategies._pool is not None  # the child forks with live pool threads
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=roll_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(120), "the forked child's rollout did not finish"
        assert np.array_equal(receive.recv(), parent_bits)
        child.join(30)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        receive.close()
        if child.is_alive():
            child.kill()
            child.join()
