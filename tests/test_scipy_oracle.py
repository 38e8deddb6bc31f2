"""SciPy as the oracle of the NumPy signal code, bit for bit.

The package designs and runs its Butterworth low-pass and draws the
stair ramp with NumPy alone; scipy.signal, a test dependency only, holds
every coefficient, delay state and output sample to the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from homeactivity import simulate, timeseries

ORDERS = st.integers(1, 8)
CUTOFFS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SAMPLES = st.floats(-1e200, 1e200, allow_nan=False)
SIGNALS = st.one_of(
    st.lists(SAMPLES, min_size=1, max_size=300),
    st.builds(lambda v, n: [v] * n, SAMPLES, st.integers(1, 300)),  # constant
    st.lists(SAMPLES, min_size=1, max_size=1),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=8),  # signed zeros
)


def outcome(design, order, wn):
    """(b, a, zi), or the type of the error the design raised."""
    try:
        with np.errstate(all="ignore"):
            b, a = design.butter(order, wn)
            return b, a, design.lfilter_zi(b, a)
    except np.linalg.LinAlgError as exc:  # a cutoff so low the step state is singular
        return type(exc)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@given(order=ORDERS, wn=CUTOFFS)
@settings(max_examples=300, deadline=None)
def test_design_and_step_state_match_scipy(order, wn):
    got, want = outcome(timeseries, order, wn), outcome(signal, order, wn)
    if isinstance(want, type):
        assert got is want
    else:
        assert all(same_bits(g, w) for g, w in zip(got, want))


@given(order=ORDERS, wn=st.floats(0.01, 0.99), x=SIGNALS)
@settings(max_examples=300, deadline=None)
def test_filter_loop_matches_scipy(order, wn, x):
    b, a = signal.butter(order, wn)
    x = np.array(x, dtype=np.float64)
    zi = signal.lfilter_zi(b, a) * x[0]
    with np.errstate(all="ignore"):
        want, _ = signal.lfilter(b, a, x, zi=zi)
    assert same_bits(timeseries.lfilter(b, a, x, zi), want)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
@settings(max_examples=300, deadline=None)
def test_sawtooth_matches_scipy(phases):
    phase = np.array(phases)
    with np.errstate(invalid="ignore"):
        want = signal.sawtooth(phase)
    got = simulate.sawtooth(phase)
    # A tiny negative phase can round up to exactly 2*pi modulo 2*pi;
    # scipy.signal.sawtooth then computes 0/0. The simulator's phases
    # are never negative.
    wrapped = np.mod(phase, 2 * np.pi) == 2 * np.pi
    assert np.isnan(want[wrapped]).all()
    assert same_bits(got[~wrapped], want[~wrapped])


@given(order=ORDERS, frac=st.floats(0.01, 0.99),
       x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
@settings(max_examples=300, deadline=None)
def test_lowpass_is_designed_for_the_series_rate(order, frac, x):
    """butterworth_lowpass designs its filter for the one sample rate, a
    sample every 50 ms: any cutoff below its 10 Hz Nyquist gives SciPy's
    bits, and one at or above it is refused."""
    nyquist = 10.0
    x = np.array(x)
    series = timeseries.SampleSeries("s", 50 * np.arange(x.size),
                                     np.column_stack([x, -x, 2 * x]))
    cutoff = frac * nyquist
    b, a = signal.butter(order, cutoff / nyquist)
    with np.errstate(all="ignore"):
        want = [signal.lfilter(b, a, v, zi=signal.lfilter_zi(b, a) * v[0])[0]
                for v in series.values.T]
    got = timeseries.butterworth_lowpass(series, timeseries.FilterSpec(order, cutoff))
    assert same_bits(got.values, np.column_stack(want))
    for refused in (nyquist, nyquist * (1 + frac)):
        with pytest.raises(ValueError, match="invalid cutoff"):
            timeseries.butterworth_lowpass(series, timeseries.FilterSpec(order, refused))
