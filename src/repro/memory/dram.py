"""Event-level DDR4 main-memory model.

Stands in for DRAMSim2: models channel interleaving, per-bank open-row
state (row-buffer hits vs misses) and per-channel busy time, and
accounts every byte of traffic.  Queueing is abstracted into the
row-hit/miss latencies; sustained-bandwidth limits surface through the
channel busy-time counters, which the interval core model uses as the
bandwidth-bound execution time.

The LLC replays hand over their whole transfer stream at once; each
batch leaves stats, open rows and channel busy time exactly where the
same transfers made one at a time would (the test oracle's
``DRAMReference``).
"""

from __future__ import annotations

import numpy as np

from ..common.config import DRAMConfig
from ..common.stats import StatCounter


class DRAM:
    """DDR4 with open-page policy and channel-interleaved lines."""

    def __init__(self, config: DRAMConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._row_lines = max(1, config.row_bytes // line_bytes)
        # open row per (channel, bank)
        self._open_rows: dict[tuple[int, int], int] = {}
        self.stats = StatCounter()
        #: per-channel busy cycles (burst occupancy)
        self.channel_busy = [0] * config.channels

    def _row_hit_batch(self, line_addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-buffer outcome of a sequence of line transfers, in order.

        Returns ``(hit, channel)`` per line.  Bit-identical to a
        sequential walk: row-buffer state is per ``(channel, bank)``,
        and within one bank a transfer hits iff it targets the same row
        as the previous transfer to that bank — a grouped shifted
        compare, with only each bank's *first* transfer consulting (and
        each bank's *last* updating) the persistent open-row table.
        """
        m = int(line_addrs.size)
        cfg = self.config
        channel = line_addrs % cfg.channels
        row = (line_addrs // cfg.channels) // self._row_lines
        bank = row % cfg.banks_per_channel
        key = channel * cfg.banks_per_channel + bank

        order = np.argsort(key, kind="stable")
        key_s = key[order]
        row_s = row[order]
        hit_s = np.zeros(m, dtype=bool)
        hit_s[1:] = (key_s[1:] == key_s[:-1]) & (row_s[1:] == row_s[:-1])
        boundary = np.zeros(m, dtype=bool)
        boundary[0] = True
        boundary[1:] = key_s[1:] != key_s[:-1]
        for p in np.flatnonzero(boundary).tolist():
            c, b = divmod(int(key_s[p]), cfg.banks_per_channel)
            hit_s[p] = self._open_rows.get((c, b)) == int(row_s[p])
        last = np.zeros(m, dtype=bool)
        last[-1] = True
        last[:-1] = key_s[1:] != key_s[:-1]
        for p in np.flatnonzero(last).tolist():
            c, b = divmod(int(key_s[p]), cfg.banks_per_channel)
            self._open_rows[(c, b)] = int(row_s[p])

        hit = np.empty(m, dtype=bool)
        hit[order] = hit_s
        return hit, channel

    def access_batch(self, addrs: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Replay a sequence of single-line transfers, in order.

        Returns the per-transfer latencies: the row hit or miss
        latency, plus one burst for a read's critical-line transfer.
        Row-buffer outcomes come from :meth:`_row_hit_batch`; stats and
        channel busy time are bulk-accumulated.
        """
        m = int(addrs.size)
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        cfg = self.config
        hit, channel = self._row_hit_batch(addrs >> self._line_shift)
        latency = np.where(
            hit, np.int64(cfg.row_hit_cycles), np.int64(cfg.row_miss_cycles)
        ) + np.where(writes, np.int64(0), np.int64(cfg.burst_cycles))

        busy = np.bincount(channel, minlength=cfg.channels) * cfg.burst_cycles
        for c in range(cfg.channels):
            self.channel_busy[c] += int(busy[c])
        row_hits = int(hit.sum())
        if row_hits:
            self.stats.add("row_hits", row_hits)
        if m - row_hits:
            self.stats.add("row_misses", m - row_hits)
        nwrites = int(writes.sum())
        if nwrites:
            self.stats.add("bytes_written", nwrites * self.line_bytes)
        if m - nwrites:
            self.stats.add("bytes_read", (m - nwrites) * self.line_bytes)
        self.stats.add("accesses", m)
        return latency

    def replay_transfers(
        self, addrs: np.ndarray, lines: np.ndarray, writes: np.ndarray
    ) -> np.ndarray:
        """Replay a mixed log of block transfers and partial transfers.

        One element per deferred transfer, in original order:

        * ``lines[i] >= 1`` — ``lines[i]`` consecutive cachelines from
          ``addrs[i]``; the latency is the first line's, plus a burst
          for a read, plus half a burst per line streaming behind it;
        * ``lines[i] == 0`` — a sub-line transfer (CMT metadata) whose
          byte count rides in ``addrs[i]``: it occupies channel
          ``accesses % channels`` pro rata and has latency 0.

        The AVR fast-replay engine queues every DRAM transfer its event
        scan makes and settles them here in one pass: multi-line
        transfers expand to a per-line stream for
        :meth:`_row_hit_batch`, partials fold in positionally (their
        channel choice depends on the number of preceding transfers,
        which is a cumulative sum).
        """
        t = int(lines.size)
        latency = np.zeros(t, dtype=np.int64)
        if t == 0:
            return latency
        cfg = self.config
        is_access = lines >= 1
        acc_idx = np.flatnonzero(is_access)
        nl = lines[acc_idx]
        total_lines = int(nl.sum())

        if total_lines:
            # expand each access to its consecutive line addresses
            ends = np.cumsum(nl)
            offset_in = np.arange(total_lines, dtype=np.int64) - np.repeat(
                ends - nl, nl
            )
            line_addr = np.repeat(addrs[acc_idx] >> self._line_shift, nl) + offset_in
            hit, channel = self._row_hit_batch(line_addr)

            first_lat = np.where(
                hit[ends - nl],
                np.int64(cfg.row_hit_cycles),
                np.int64(cfg.row_miss_cycles),
            )
            acc_write = writes[acc_idx]
            latency[acc_idx] = (
                first_lat
                + np.where(acc_write, np.int64(0), np.int64(cfg.burst_cycles))
                + (nl - 1) * cfg.burst_cycles // 2
            )

            busy = np.bincount(channel, minlength=cfg.channels) * cfg.burst_cycles
            for c in range(cfg.channels):
                self.channel_busy[c] += int(busy[c])
            row_hits = int(hit.sum())
            if row_hits:
                self.stats.add("row_hits", row_hits)
            if total_lines - row_hits:
                self.stats.add("row_misses", total_lines - row_hits)
            wlines = int(nl[acc_write].sum())
            if wlines:
                self.stats.add("bytes_written", wlines * self.line_bytes)
            if total_lines - wlines:
                self.stats.add("bytes_read", (total_lines - wlines) * self.line_bytes)

        # partials interleave with accesses: each one's channel pick
        # depends on how many accesses preceded it
        partial_idx = np.flatnonzero(~is_access)
        if partial_idx.size:
            acc_before = np.cumsum(is_access) - is_access
            base_accesses = int(self.stats.get("accesses", 0))
            for p in partial_idx.tolist():
                nbytes = int(addrs[p])
                self.stats.add(
                    "bytes_written" if writes[p] else "bytes_read", nbytes
                )
                channel_p = (base_accesses + int(acc_before[p])) % cfg.channels
                self.channel_busy[channel_p] += max(
                    1, cfg.burst_cycles * nbytes // self.line_bytes
                )
        if acc_idx.size:
            self.stats.add("accesses", int(acc_idx.size))
        return latency

    @property
    def total_bytes(self) -> int:
        return int(self.stats["bytes_read"] + self.stats["bytes_written"])

    def bandwidth_bound_cycles(self) -> int:
        """Execution-time lower bound imposed by channel occupancy."""
        return max(self.channel_busy) if self.channel_busy else 0
