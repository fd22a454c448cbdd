"""`strategies.rollout` over fixed row blocks on a thread pool.

A wide net's rollout of two or more blocks runs each block's serial loop
on a thread pool. The block offsets do not depend on the core count, so
at one BLAS thread the blocked rollout must give the bits of the
one-block rollout; the bit checks run in a child interpreter whose BLAS
is pinned to one thread before NumPy loads. The other tests check what
the pool must not change: one eval forward per step and block, the
serial path's errors, waiting for every block, no pool thread outliving
its call, and a forked child.
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
# First it checks that serial rollouts leave concurrent.futures unimported.
ONE_THREAD_CHILD = """
import json, sys, threading
import numpy as np
from multistep import nn, strategies

P, N_STEPS = %d, %d
for width, m in ((32, 2865), (150, 511)):
    net = nn.init_net(P, 1, 0, hidden_layers=2, hidden_units=width)
    strategies.rollout(net, np.zeros((m, P)), N_STEPS)
assert "concurrent.futures" not in sys.modules
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


def test_blocks_run_on_rollout_threads_that_end_with_the_call(monkeypatch):
    """Every forward of a blocked rollout runs on a `rollout` thread, and no
    such thread outlives the call, whether it returned or raised (a NaN in
    block 0)."""
    clean, bad = histories(1024), histories(1024)
    bad[0, 0] = np.nan
    calls = count_forwards(monkeypatch)
    for h, forwards in ((clean, 4 * N_STEPS), (bad, 3 * N_STEPS)):
        calls.clear()
        try:
            strategies.rollout(wide_net(), h, N_STEPS)
        except NumericError:
            assert h is bad
        assert len(calls) == forwards
        assert all(name.startswith("rollout") for _, name in calls)
        assert not [t for t in threading.enumerate() if t.name.startswith("rollout")]


def test_racing_threads_get_the_same_bits():
    """More user threads than cores, switching often, roll out one net at
    once, each on a pool of its own call, and all get the same bits."""
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
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and np.array_equal(r, results[0]) for r in results)


def roll_in_child(conn):
    conn.send(strategies.rollout(wide_net(), histories(1024), N_STEPS))
    conn.close()


def test_a_forked_child_rolls_out_on_a_pool_of_its_own():
    parent_bits = strategies.rollout(wide_net(), histories(1024), N_STEPS)
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
