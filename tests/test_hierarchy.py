"""Regression tests for the private L1+L2 victim-cascade policy.

The seed model only installed *dirty* L1 victims into L2, so clean
victims vanished from the private stack and every re-read escalated to
the LLC.  These tests pin the corrected policy: all L1 victims land in
L2 with their dirty flag preserved.
"""

from oracles import PrivateCaches
from repro.common.config import SystemConfig

CONFIG = SystemConfig.scaled(num_cores=2)
L1_SETS = CONFIG.l1.num_sets          # 16 in the scaled config
L1_WAYS = CONFIG.l1.ways              # 4
LINE = CONFIG.l1.line_bytes           # 64


def _same_l1_set_addr(k: int, base: int = 0) -> int:
    """k-th distinct line mapping to the same L1 set as ``base``."""
    return base + k * L1_SETS * LINE


class TestCleanVictimInstall:
    def test_clean_l1_victim_lands_in_l2(self):
        priv = PrivateCaches(CONFIG)
        # Fill one L1 set with clean lines, then overflow it by one.
        for k in range(L1_WAYS + 1):
            priv.access(_same_l1_set_addr(k), write=False)
        # The evicted line (k=0, clean) must now hit in L2.
        latency, needs_llc, wbs = priv.access(_same_l1_set_addr(0), write=False)
        assert not needs_llc, "clean L1 victim was not installed in L2"
        assert latency == priv.l1.latency + priv.l2.latency
        assert wbs == []

    def test_l2_hit_counts_pinned(self):
        """Pin exact L2 hit/miss counts for a conflict-sweep pattern."""
        priv = PrivateCaches(CONFIG)
        rounds = 3
        lines = L1_WAYS + 1  # one more than L1 associativity: thrashes L1
        for _ in range(rounds):
            for k in range(lines):
                priv.access(_same_l1_set_addr(k), write=False)
        # Round 1: all 5 lines miss L1 and L2 (cold).  Every later round
        # misses L1 (5 lines > 4 ways, LRU sweep) but hits L2, where the
        # victims were installed.
        assert priv.l1.hits == 0
        assert priv.l1.misses == rounds * lines
        assert priv.l2.misses == lines
        assert priv.l2.hits == (rounds - 1) * lines

    def test_dirty_flag_preserved_through_l2(self):
        """A dirty L1 victim must surface as an LLC writeback when it
        later falls out of L2 — and a clean one must not."""
        priv = PrivateCaches(CONFIG)
        dirty_addr = _same_l1_set_addr(0)
        priv.access(dirty_addr, write=True)
        # Evict it from L1 (clean fills), pushing it into L2 dirty.
        for k in range(1, L1_WAYS + 1):
            priv.access(_same_l1_set_addr(k), write=False)
        assert priv.l2.probe(dirty_addr)
        # Now thrash the L2 set holding dirty_addr until it falls out.
        l2_sets, l2_ways = CONFIG.l2.num_sets, CONFIG.l2.ways
        collected = []
        for k in range(1, l2_ways + 1):
            conflicting = dirty_addr + k * l2_sets * LINE
            victim = priv.l2.insert(conflicting, dirty=False)
            if victim is not None:
                collected.append(victim)
        assert (dirty_addr, True) in collected

    def test_writeback_only_for_dirty_l2_victims(self):
        """Clean-victim churn through L1 and L2 must not fabricate LLC
        writeback traffic."""
        priv = PrivateCaches(CONFIG)
        total_lines = CONFIG.l2.num_lines + CONFIG.l1.num_lines + 8
        for k in range(total_lines):
            _, _, wbs = priv.access(k * LINE, write=False)
            assert wbs == [], "clean victims must never reach the LLC"


def test_access_returns_l1_latency_on_hit():
    priv = PrivateCaches(CONFIG)
    priv.access(0, write=False)
    latency, needs_llc, wbs = priv.access(0, write=False)
    assert latency == priv.l1.latency
    assert not needs_llc and wbs == []
