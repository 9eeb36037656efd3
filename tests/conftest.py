from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from arrayloc.ranging import build_qls_lut, synth_two_tone

# Reference operating point used throughout: 40 MHz tone separation,
# 10 us pulse, 200 MSa/s, 50 ns ramps, 34 dB harmonic-mean SNR.
REF_BANDWIDTH_HZ = 40e6
REF_PULSE_S = 10e-6
REF_SAMPLE_RATE_HZ = 200e6
REF_RISE_FALL_S = 50e-9
REF_SNR_DB = 34.0

# crlb_sigma_d at the reference point, evaluated by hand:
# c0 / sqrt(2 * (pi * 40e6)^2 * 10e-6 * 10^3.4 * 200e6)
REF_CRLB_SIGMA_M = 7.526288178176415e-4


@pytest.fixture(scope="session", autouse=True)
def _src_on_subprocess_path():
    # pyproject.toml's pytest `pythonpath` puts src/ on this process's import
    # path only; CLI subprocesses that tests start find it via PYTHONPATH.
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def wave40():
    return synth_two_tone(
        REF_BANDWIDTH_HZ, REF_PULSE_S, REF_SAMPLE_RATE_HZ, REF_RISE_FALL_S
    )


@pytest.fixture(scope="session")
def lut40(wave40):
    # Built once per session; the module-level cache makes later scenario
    # construction with the same waveform parameters free.
    return build_qls_lut(wave40)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
