"""Jobs on several threads give what one thread gives: the oracle's chunks
and the moment checks' blocks each draw from their own stream."""
import threading

import numpy as np
import pytest

from conftest import blockwise_masses
from fvkit import death_process as dp
from fvkit import parallel
from fvkit import random_measures as rm


def _serial_map(fn, jobs):
    return list(map(fn, jobs))


def _threaded_and_serial(monkeypatch, run):
    # several threads even on a one-core machine, then a plain map
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
    threaded = run()
    monkeypatch.setattr(parallel, "map_jobs", _serial_map)
    return threaded, run()


class TestMapJobs:
    def test_results_in_job_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        assert parallel.map_jobs(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_no_jobs(self):
        assert parallel.map_jobs(pytest.fail, []) == []

    def test_one_job_runs_in_calling_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        assert parallel.map_jobs(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()]

    def test_several_jobs_leave_calling_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        idents = parallel.map_jobs(lambda _: threading.get_ident(), range(4))
        assert threading.get_ident() not in idents

    def test_one_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        assert set(parallel.map_jobs(lambda _: threading.get_ident(), range(3))) == {
            threading.get_ident()}

    def test_job_error_propagates(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        with pytest.raises(ZeroDivisionError):
            parallel.map_jobs(lambda x: 1 / x, [1, 0, 2])


def _oracle(t, theta, n0, reps):
    return dp._death_chain_counts(t, theta, n0, reps, np.random.default_rng(5))


def _whole_chunk_counts(t, theta, n0, reps, paired):
    # the oracle with one (rows, states) draw per chunk substream
    rates = dp._hold_rates(theta, n0, 2 if theta == 0 else 1)
    rates_hi = dp._hold_rates(theta, 2 * n0, n0 + 1)
    t_low = t - dp.mean_entry_time(n0, theta)
    t_hi = t - dp.mean_entry_time(2 * n0, theta)
    chunk = max(1, dp._MC_CHUNK_TARGET // (2 * n0 if paired else n0))
    nchunks = -(-reps // chunk)
    streams = np.random.default_rng(5).spawn(2 * nchunks if paired else nchunks)
    counts = np.zeros(n0 + 1, dtype=np.int64)
    counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64)
    for i in range(nchunks):
        c = min(chunk, reps - i * chunk)
        reach = np.cumsum(streams[i].standard_exponential((c, rates.size)) / rates, axis=1)
        counts += np.bincount(n0 - (reach <= t_low).sum(axis=1), minlength=n0 + 1)
        if paired:
            h_hi = streams[nchunks + i].standard_exponential((c, rates_hi.size)) / rates_hi
            reach_hi = np.cumsum(h_hi, axis=1)
            jumps = ((reach_hi <= t_hi).sum(axis=1)
                     + (reach + reach_hi[:, -1:] <= t_hi).sum(axis=1))
            counts_hi += np.bincount(2 * n0 - jumps, minlength=2 * n0 + 1)
    return (counts, counts_hi) if paired else (counts,)


def _assert_matches_serial_and_whole_chunks(monkeypatch, case):
    threaded, serial = _threaded_and_serial(monkeypatch, lambda: _oracle(*case))
    for a, b, whole in zip(threaded, serial, _whole_chunk_counts(*case, paired=True),
                           strict=True):
        assert np.array_equal(a, b) and np.array_equal(a, whole)
    return threaded


# (t, theta, n0, reps), each a paired run from n0 and 2*n0.  At n0 = 5000 a
# chunk is 500 rows, not a multiple of the 256-row block; 2500 reps fill five
# chunks and 1300 end in a part chunk.  The oracle reads most counts off a
# head row sum and a 64-column tail and recounts the rows whose head total
# exceeds t: (1, 1, 500, 20000) is the benchmark's oracle; at t = 0.02 from 500
# the state is about 100, so every row's crossing lies in the head and every
# row is recounted; at n0 = 70 the head is six columns; at n0 = 3 the tail
# is the whole row.
@pytest.mark.parametrize("case", [
    (0.8, 0.0, 300, 3000),
    (0.8, 0.0, 70, 3000),
    (1.0, 1.0, 5000, 2500),
    (1.0, 4.0, 5000, 1300),
    (0.7 + dp.mean_entry_time(3, 4.0), 4.0, 3, 1000),
    (1.0, 1.0, 500, 20_000),
    (0.02, 1.0, 500, 1000),
    (0.7 + dp.mean_entry_time(3, 1.0), 1.0, 3, 1000),
])
def test_oracle_counts_match_serial_and_whole_chunks(monkeypatch, case):
    threaded = _assert_matches_serial_and_whole_chunks(monkeypatch, case)
    if case[1] == 0:
        assert threaded[0][0] == 0 and threaded[0][1] > 0  # state 1 absorbs


@pytest.mark.parametrize("tie", ["plain", "doubled", "doubled-high"])
def test_oracle_counts_at_exact_ties(monkeypatch, tie):
    # t is one of the sums the oracle compares with t, read off row 0 of the
    # first chunk.  With no entry-time discount both starts compare with t
    # itself.
    monkeypatch.setattr(dp, "mean_entry_time", lambda n0, theta: 0.0)
    theta, n0 = 1.0, 300
    # the first chunk's substreams: the low states from the first, the
    # doubled start's high segment from the second
    streams = np.random.default_rng(5).spawn(2)
    rates = dp._hold_rates(theta, n0, 1)
    rates_hi = dp._hold_rates(theta, 2 * n0, n0 + 1)
    hold = streams[0].standard_exponential((1, rates.size)) / rates
    hold_hi = streams[1].standard_exponential((1, rates_hi.size)) / rates_hi
    if tie == "doubled-high":
        # a prefix inside the doubled start's high segment: the row's head
        # total exceeds t, so its counts come from the full running sum
        t = np.cumsum(hold_hi)[n0 // 2]
        _assert_matches_serial_and_whole_chunks(monkeypatch, (float(t), theta, n0, 600))
        return
    # a count's own sum: the head row sum plus a tail prefix, plus for the
    # doubled start the high row sum.  The last prefix whose sequential
    # running sum rounds above it is one a count from the full running sum
    # would miss; the oracle's count takes it, since it compares with <=
    head = rates.size - dp._MC_TAIL
    two_part = hold[:, :head].sum(axis=1)[:, None] + np.cumsum(hold[:, head:], axis=1)
    sequential = np.cumsum(hold, axis=1)[:, head:]
    if tie == "doubled":
        two_part += hold_hi.sum(axis=1)[:, None]
        sequential += np.cumsum(hold_hi, axis=1)[:, -1:]
    j = np.flatnonzero(two_part[0] < sequential[0])[-1]
    counts = _oracle(float(two_part[0, j]), theta, n0, 1)[tie == "doubled"]
    # either start is then in state n0 - head - j - 1
    assert counts[n0 - head - j - 1] == 1


_A = rm.Interval(0.0, 0.5)


def _masses(theta, reps, trunc=rm.DEFAULT_TRUNCATION, n_cond=0, seed=5):
    return rm._check_masses(theta, rm.UniformBase(), _A, reps, trunc,
                            np.random.default_rng(seed), n_cond)


@pytest.mark.parametrize("theta, reps, n_cond", [(4.0, 2000, 1), (0.5, 15_000, 0)])
def test_check_masses_match_serial_and_blockwise(monkeypatch, theta, reps, n_cond):
    # three blocks of the one-atom mixture at theta = 4, three of the prior
    # at theta = 0.5
    threaded, serial = _threaded_and_serial(monkeypatch, lambda: _masses(theta, reps, n_cond=n_cond))
    reference = blockwise_masses(theta, rm.UniformBase(), _A, reps, rm.DEFAULT_TRUNCATION,
                                 np.random.default_rng(5), n_cond)
    assert np.array_equal(threaded, serial) and np.array_equal(threaded, reference)


# rows per block: a row holds its one conditioning atom and at most
# 1 + 4 ln 1e8 fresh sticks on average at theta = 4, so 2**16 // 75.7 = 865;
# 2**16 // 51 = 1285 under a fixed 50-stick truncation
@pytest.mark.parametrize("trunc, block, reps", [
    (rm.DEFAULT_TRUNCATION, 865, 865),
    (rm.DEFAULT_TRUNCATION, 865, 866),
    (rm.StickTruncation.fixed(50), 1285, 3000),
])
def test_check_masses_block_edges(trunc, block, reps):
    per_row = 1 + (trunc.k or 1 + 4 * -np.log(trunc.eps))
    assert rm._MASS_BLOCK_CELLS // per_row == block
    got = _masses(4.0, reps, trunc, n_cond=1)
    assert got.shape == (reps,)
    children = np.random.default_rng(5).spawn(-(-reps // block))
    for i, child in enumerate(children):
        rows = rm._dirichlet_rows(4.0, rm.UniformBase(), min(block, reps - i * block), trunc,
                                  child, 1)
        assert np.array_equal(got[i * block:(i + 1) * block], rows.mass(_A))


def test_stick_budget_raised_in_a_worker_before_any_draw(monkeypatch):
    # at theta = 1e6 a row expects 1.8e7 sticks, so every block is one row
    # and every job stops in the stick kernel's up-front budget check
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
    sticks = rm._dp_sticks
    seen = []

    def watched(theta, share, trunc, rng):
        state = rng.bit_generator.state
        try:
            return sticks(theta, share, trunc, rng)
        finally:
            seen.append((threading.get_ident(), rng.bit_generator.state == state))

    monkeypatch.setattr(rm, "_dp_sticks", watched)
    with pytest.raises(rm.StickBudgetError, match="over the cap"):
        _masses(1e6, 50)
    assert seen and all(ident != threading.get_ident() and untouched for ident, untouched in seen)
