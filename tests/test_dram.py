"""Tests for the DDR4 timing model.

The per-transfer tests drive the oracle's ``DRAMReference``; the
replay tests pin the package's batched replays against it.
"""

import pytest

from oracles import DRAMReference
from repro.common.config import DRAMConfig
from repro.memory import DRAM


@pytest.fixture
def dram():
    return DRAMReference(DRAMConfig())


class TestRowBuffer:
    def test_first_access_misses_row(self, dram):
        lat = dram.access(0)
        assert lat >= dram.config.row_miss_cycles
        assert dram.stats["row_misses"] == 1

    def test_same_row_hits(self, dram):
        dram.access(0)
        lat = dram.access(64 * dram.config.channels)  # same channel, next line
        assert dram.stats["row_hits"] == 1
        assert lat < dram.config.row_miss_cycles + dram.config.burst_cycles + 1

    def test_row_conflict_misses(self, dram):
        dram.access(0)
        far = dram.config.row_bytes * dram.config.channels * dram.config.banks_per_channel * 64
        dram.access(far)
        # returning to the original row: bank may have been reopened
        assert dram.stats["row_misses"] >= 1

    def test_multi_line_block_pipelines(self, dram):
        lat1 = DRAMReference(DRAMConfig()).access(0, lines=1)
        lat8 = DRAMReference(DRAMConfig()).access(0, lines=8)
        assert lat8 > lat1
        assert lat8 < 8 * lat1  # streamed, not serialized row misses

    def test_invalid_lines(self, dram):
        with pytest.raises(ValueError):
            dram.access(0, lines=0)


class TestTrafficAccounting:
    def test_read_write_bytes(self, dram):
        dram.access(0, lines=2, write=False)
        dram.access(4096, lines=1, write=True)
        assert dram.stats["bytes_read"] == 128
        assert dram.stats["bytes_written"] == 64
        assert dram.total_bytes == 192

    def test_partial_transfer(self, dram):
        dram.transfer_partial(12, write=False)
        assert dram.stats["bytes_read"] == 12

    def test_channel_busy_accumulates(self, dram):
        for i in range(16):
            dram.access(i * 64)
        assert sum(dram.channel_busy) == 16 * dram.config.burst_cycles

    def test_bandwidth_bound(self, dram):
        assert dram.bandwidth_bound_cycles() == 0
        dram.access(0, lines=4)
        assert dram.bandwidth_bound_cycles() > 0

    def test_channel_interleave_balances(self, dram):
        for i in range(64):
            dram.access(i * 64)
        busy = dram.channel_busy
        assert max(busy) - min(busy) <= dram.config.burst_cycles


class TestReplayTransfers:
    """The deferred transfer log must replay bit-identically."""

    @staticmethod
    def _random_log(rng, n):
        """A mixed access/partial call log like the AVR scan emits."""
        addrs = (rng.integers(0, 1 << 14, n) * 64).astype(int)
        lines = rng.integers(1, 17, n).astype(int)
        writes = rng.random(n) < 0.4
        partial = rng.random(n) < 0.1
        lines[partial] = 0
        addrs[partial] = 188  # CMT miss traffic byte count
        writes[partial] = False
        return addrs, lines, writes

    def test_matches_sequential_calls(self, rng):
        import numpy as np

        addrs, lines, writes = self._random_log(rng, 800)
        seq = DRAMReference(DRAMConfig())
        seq_lat = []
        for a, nl, w in zip(addrs, lines, writes):
            if nl == 0:
                seq.transfer_partial(int(a), write=bool(w))
                seq_lat.append(0)
            else:
                seq_lat.append(seq.access(int(a), int(nl), write=bool(w)))

        bat = DRAM(DRAMConfig())
        bat_lat = bat.replay_transfers(
            np.asarray(addrs), np.asarray(lines), np.asarray(writes)
        )
        assert seq_lat == bat_lat.tolist()
        assert seq.stats.as_dict() == bat.stats.as_dict()
        assert seq.channel_busy == bat.channel_busy
        assert seq._open_rows == bat._open_rows

    def test_carries_row_state_across_batches(self, rng):
        import numpy as np

        addrs, lines, writes = self._random_log(rng, 400)
        seq = DRAMReference(DRAMConfig())
        for a, nl, w in zip(addrs, lines, writes):
            if nl == 0:
                seq.transfer_partial(int(a), write=bool(w))
            else:
                seq.access(int(a), int(nl), write=bool(w))
        bat = DRAM(DRAMConfig())
        half = 200
        for sl in (slice(0, half), slice(half, None)):
            bat.replay_transfers(
                np.asarray(addrs[sl]), np.asarray(lines[sl]),
                np.asarray(writes[sl]),
            )
        assert seq.stats.as_dict() == bat.stats.as_dict()
        assert seq._open_rows == bat._open_rows

    def test_empty_log(self):
        import numpy as np

        dram = DRAM(DRAMConfig())
        out = dram.replay_transfers(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
        )
        assert out.size == 0
        assert dram.stats.as_dict() == {}
