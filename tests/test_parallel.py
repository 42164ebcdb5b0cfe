"""Jobs on several threads give what one thread gives: the oracle's chunks
and the moment checks' blocks each draw from their own stream."""
import math
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


def _clocks(t, theta, n0):
    return t - dp.mean_entry_time(n0, theta), t - dp.mean_entry_time(2 * n0, theta)


def _whole_chunk_counts(t, theta, n0, reps):
    # the oracle with one draw per chunk substream: the chunk's Gamma lumps,
    # then its exact holding times as one (rows, states) array
    t_low, t_hi = _clocks(t, theta, n0)
    (split, shape, scale), (split_hi, shape_hi, scale_hi) = dp._oracle_lumps(
        theta, n0, t_low, t_hi)
    rates = dp._hold_rates(theta, n0, 2 if theta == 0 else 1)[split:]
    rates_hi = dp._hold_rates(theta, 2 * n0, n0 + 1)[split_hi:]
    chunk = max(1, dp._MC_CHUNK_TARGET // (2 * n0))
    nchunks = -(-reps // chunk)
    streams = np.random.default_rng(5).spawn(2 * nchunks)
    counts = np.zeros(n0 + 1, dtype=np.int64)
    counts_hi = np.zeros(2 * n0 + 1, dtype=np.int64)
    for i in range(nchunks):
        c = min(chunk, reps - i * chunk)
        low, high = streams[i], streams[nchunks + i]
        lump = low.standard_gamma(shape, c) * scale
        lump_hi = high.standard_gamma(shape_hi, c) * scale_hi
        reach = np.cumsum(low.standard_exponential((c, rates.size)) / rates, axis=1)
        reach += lump[:, None]
        counts += np.bincount(n0 - split - (reach <= t_low).sum(axis=1), minlength=n0 + 1)
        h_hi = high.standard_exponential((c, rates_hi.size)) / rates_hi
        jumps = (split_hi + split + (np.cumsum(h_hi, axis=1) <= t_hi).sum(axis=1)
                 + (reach + (lump_hi + h_hi.sum(axis=1))[:, None] <= t_hi).sum(axis=1))
        counts_hi += np.bincount(2 * n0 - jumps, minlength=2 * n0 + 1)
    return counts, counts_hi


def _assert_matches_serial_and_whole_chunks(monkeypatch, case, lumped):
    t, theta, n0, _ = case
    assert (dp._oracle_lumps(theta, n0, *_clocks(t, theta, n0))[0][0] > 0) == lumped
    threaded, serial = _threaded_and_serial(monkeypatch, lambda: _oracle(*case))
    for a, b, whole in zip(threaded, serial, _whole_chunk_counts(*case), strict=True):
        assert np.array_equal(a, b) and np.array_equal(a, whole)
    return threaded


# (t, theta, n0, reps, lumped): a paired run from n0 and 2*n0, and whether the
# Gamma lumps stand in for the states above 64.  A lumped row draws 64 or 63
# exact holding times, so a block is 1024 or 1040 rows: (1, 1, 500, 20000),
# the benchmark's oracle, fills four 5000-row chunks, each ending in a part
# block; at n0 = 5000 a chunk is 500 rows, and 2500 reps fill five chunks
# and 1300 end in a part chunk; at n0 = 70 the lump holds six states.  The
# guard sends the rest to the full draw: at t = 0.02 from 500 the lump's
# mean 0.027 lies past t, and at n0 = 3 no state lies above 64.
@pytest.mark.parametrize("case", [
    (0.8, 0.0, 300, 3000, True),
    (0.8, 0.0, 70, 3000, True),
    (1.0, 1.0, 5000, 2500, True),
    (1.0, 4.0, 5000, 1300, True),
    (0.7 + dp.mean_entry_time(3, 4.0), 4.0, 3, 1000, False),
    (1.0, 1.0, 500, 20_000, True),
    (0.02, 1.0, 500, 1000, False),
    (0.7 + dp.mean_entry_time(3, 1.0), 1.0, 3, 1000, False),
])
def test_oracle_counts_match_serial_and_whole_chunks(monkeypatch, case):
    *case, lumped = case
    threaded = _assert_matches_serial_and_whole_chunks(monkeypatch, tuple(case), lumped)
    if case[1] == 0:
        assert threaded[0][0] == 0 and threaded[0][1] > 0  # state 1 absorbs


@pytest.mark.parametrize("tie", ["plain", "doubled", "doubled-high"])
def test_oracle_counts_at_exact_ties(monkeypatch, tie):
    # t is one of the sums the oracle compares with t, read off row 0 of the
    # first chunk.  With no entry-time discount both starts compare with t
    # itself.
    monkeypatch.setattr(dp, "mean_entry_time", lambda n0, theta: 0.0)
    theta, n0 = 1.0, 300
    # the first chunk's substreams: the low lump and states from the first,
    # the doubled start's high segment from the second
    streams = np.random.default_rng(5).spawn(2)
    if tie == "doubled-high":
        # a prefix inside the doubled start's high segment, far inside the
        # lumps' mean: the guard sends the row to the full draw, and its
        # counts come from the full running sum
        rates_hi = dp._hold_rates(theta, 2 * n0, n0 + 1)
        t = float(np.cumsum(streams[1].standard_exponential(rates_hi.size) / rates_hi)[n0 // 2])
        _assert_matches_serial_and_whole_chunks(monkeypatch, (t, theta, n0, 600), lumped=False)
        return
    (split, shape, scale), (_, shape_hi, scale_hi) = dp._oracle_lumps(theta, n0, 1.0, 1.0)
    lump = streams[0].standard_gamma(shape, 1) * scale
    lump_hi = streams[1].standard_gamma(shape_hi, 1) * scale_hi
    rates = dp._hold_rates(theta, dp._MC_TAIL, 1)
    hold = streams[0].standard_exponential((1, rates.size)) / rates
    # a count's own sum: the lump plus a tail prefix, plus for the doubled
    # start the high lump.  The last prefix whose running sum from the
    # lumps rounds above it is one a count from that sum would miss; the
    # oracle's count takes it, since it compares with <=
    two_part = lump[:, None] + np.cumsum(hold, axis=1)
    sequential = np.cumsum(np.concatenate([lump[:, None], hold], axis=1), axis=1)[:, 1:]
    if tie == "doubled":
        two_part += lump_hi[:, None]
        sequential = np.cumsum(np.concatenate([lump_hi[:, None], lump[:, None], hold], axis=1),
                               axis=1)[:, 2:]
    j = np.flatnonzero(two_part[0] < sequential[0])[-1]
    t = float(two_part[0, j])
    assert dp._oracle_lumps(theta, n0, t, t)[0][0] == split  # the lumps stand in at t
    counts = _oracle(t, theta, n0, 1)[tie == "doubled"]
    # either start is then in state 64 - j - 1
    assert counts[dp._MC_TAIL - j - 1] == 1


def test_lump_reaching_t_raises(monkeypatch):
    # with the guard's constant at infinity the lumps stand in at t = 0.02
    # from 500, where the lump's mean 0.027 lies past t: the oracle raises
    # rather than count rows it cannot resolve
    monkeypatch.setattr(dp, "_MC_LUMP_TAIL", math.inf)
    with pytest.raises(RuntimeError, match="Gamma lump .* reached t"):
        _oracle(0.02, 1.0, 500, 1000)


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
