"""Differential tests: Doppelgänger's dedup round trip against its oracle.

:func:`repro.doppelganger.dedup_roundtrip` reduces each line by halving
its 16 columns and picks representatives with one stable sort;
:func:`oracles.dedup_roundtrip_reference` is the ``np.unique`` version it
replaced.  The output must match bit for bit (NaN payloads and signed
zeros included), in shape and dtype, and so must the
:class:`~repro.doppelganger.DedupStats`.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dedup_roundtrip_reference
from repro.approx import approximators
from repro.common.constants import VALUES_PER_CACHELINE
from repro.doppelganger import dedup_roundtrip
from repro.workloads import make_workload

#: the grid workloads whose work does not depend on the seed
GRID_WORKLOADS = ("heat", "lattice", "lbm", "orbit", "bscholes", "wrf")
SPECIALS = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 3.0e38, -3.0e38, 1e-45], dtype=np.float32
)


def assert_same_dedup(array: np.ndarray, threshold: float) -> None:
    with warnings.catch_warnings():
        # NaN and overflowing lines warn alike on both sides
        warnings.simplefilter("ignore", RuntimeWarning)
        got, got_stats = dedup_roundtrip(array, threshold)
        want, want_stats = dedup_roundtrip_reference(array, threshold)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert got_stats == want_stats


@st.composite
def arrays(draw):
    """Float32 arrays of any length, mixing magnitudes from 1e-30 to
    1e30, repeated lines, constant runs and IEEE specials."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40)) * VALUES_PER_CACHELINE + draw(st.integers(0, 15))
    kind = draw(st.sampled_from(["wide", "narrow", "constant", "lines"]))
    if kind == "wide":
        exponents = rng.integers(-30, 31, n)
        values = rng.standard_normal(n) * 10.0 ** exponents
    elif kind == "narrow":
        values = 100.0 + rng.standard_normal(n)
    elif kind == "constant":
        values = np.full(n, draw(st.sampled_from([0.0, -0.0, 5.0, 1e30])))
    else:  # a few distinct lines, repeated
        pool = rng.standard_normal((3, VALUES_PER_CACHELINE)) * 10.0
        values = pool[rng.integers(0, 3, n // VALUES_PER_CACHELINE + 1)].ravel()[:n]
    values = values.astype(np.float32)
    specials = draw(st.integers(0, 4))
    if specials and n:
        at = rng.integers(0, n, specials)
        values[at] = SPECIALS[rng.integers(0, SPECIALS.size, specials)]
    return values


@given(
    values=arrays(),
    threshold=st.sampled_from([1e-6, 0.001, 0.02, 0.5]),
    two_d=st.booleans(),
)
def test_dedup_matches_oracle(values, threshold, two_d):
    if two_d and values.size % 2 == 0:
        values = values.reshape(2, -1)
    assert_same_dedup(values, threshold)


@pytest.mark.parametrize("special", SPECIALS.tolist())
def test_special_values_in_every_line(special):
    """One special per line, and one line that is all specials."""
    rng = np.random.default_rng(1)
    values = rng.uniform(-10, 10, 8 * VALUES_PER_CACHELINE).astype(np.float32)
    values[:: VALUES_PER_CACHELINE + 1] = special
    values[-VALUES_PER_CACHELINE:] = special
    assert_same_dedup(values, 0.02)


def test_float64_input():
    values = np.linspace(-1.0, 1.0, 10 * VALUES_PER_CACHELINE + 3)
    assert_same_dedup(values, 0.02)


@pytest.mark.parametrize("name", GRID_WORKLOADS)
def test_workload_calls_match_oracle(name, monkeypatch):
    """Every dedup call of a Doppelgänger run at grid-cold's scale,
    checked as it is made."""
    calls = []

    def both(array, similarity_threshold=0.02):
        assert_same_dedup(array, similarity_threshold)
        calls.append(np.asarray(array).size)
        return dedup_roundtrip(array, similarity_threshold)

    monkeypatch.setattr(approximators, "dedup_roundtrip", both)
    make_workload(name, scale=0.15).run("dganger")
    assert calls and sum(calls) > 0
