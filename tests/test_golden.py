"""Pinned sweep artifacts.

``golden/sweeps.json`` holds, for each sweep in ``SWEEPS``, the sha256 of its
four artifacts and the text of its summary.csv, together with the platform
the pins were made on. The bytes depend on OpenBLAS's kernel and on NumPy's
SIMD dispatch. So where the platform matches the pinned one, every artifact
must keep its bytes; on any other platform each summary.csv value must agree
within ``TOLERANCE``.

A change that moves these bytes on purpose replaces the pinned file with the
one the failure message prints, and says why.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from arrayloc.constants import SPEED_OF_LIGHT
from arrayloc.harness import ExperimentConfig, run_experiment, write_outputs

PINNED = Path(__file__).resolve().parent / "golden" / "sweeps.json"
ARTIFACTS = ("records.csv", "convergence.csv", "summary.csv", "summary.json")

# Each sweep covers a path of the trial: criterion 10's config; the certified
# planar eigenpairs (10 nodes) and the eigh fallback (15 nodes); the noiseless
# branch; the complete-mask branch; the signal chain's matched filter and
# peak-interpolation table at two tone separations; and the signal chain
# beyond 8 nodes.
SWEEPS = {
    "criterion10": {"array_sizes": [6], "connectivities": [0.8],
                    "bandwidths_hz": [4e7], "trials": 8, "seed": 99,
                    "layout": {"kind": "circle"}},
    "box10": {"array_sizes": [10], "connectivities": [0.9], "trials": 4, "seed": 7},
    "box15": {"array_sizes": [15], "connectivities": [0.9], "trials": 4, "seed": 7},
    "noiseless_circle": {"array_sizes": [6], "connectivities": [0.8], "trials": 4,
                         "noiseless": True, "seed": 7,
                         "layout": {"kind": "circle"}},
    "complete": {"array_sizes": [6], "connectivities": [1.0], "trials": 4, "seed": 7},
    "signal6": {"array_sizes": [6], "connectivities": [0.8],
                "bandwidths_hz": [20e6, 40e6], "trials": 4, "seed": 7,
                "ranging_mode": "signal_level"},
    "signal10": {"array_sizes": [10], "connectivities": [0.9], "trials": 4,
                 "seed": 7, "ranging_mode": "signal_level"},
}

# summary.csv columns that must match exactly on any platform.  Every other
# column must satisfy |a - b| <= rel * max(|a|, |b|) + abs, the beamforming
# frequency compared as the mean EVM it implies, c / (15 f).
#
# The bounds are twice the largest change that OPENBLAS_CORETYPE=Haswell made
# against pins taken on SkylakeX (NumPy 2.4.6, OpenBLAS 0.3.31):
# - EVM columns: 2.3e-4 relative (signal6 at 40 MHz, where one trial's
#   generation count moved); noiseless EVMs, which are rounding only, moved by
#   1.7e-16 m, so 1e-12 m absolute covers them;
# - generation columns: 2 generations (a median over four trials);
# - convergence rate: one noiseless trial of four flipped; 0.25 is kept,
#   since twice that would pass half a point.
# SandyBridge, Nehalem and Prescott kernels stayed inside these bounds too.
EXACT = ("n_nodes", "connectivity", "bandwidth_hz", "trials")
EVM_TOLERANCE = (5e-4, 1e-12)
TOLERANCE = {
    "mean_final_evm_m": EVM_TOLERANCE,
    "median_final_evm_m": EVM_TOLERANCE,
    "std_final_evm_m": EVM_TOLERANCE,
    "max_beamform_freq_hz": EVM_TOLERANCE,
    "mean_generations": (0.0, 4.0),
    "median_generations": (0.0, 4.0),
    "convergence_rate": (0.0, 0.25),
}


def _openblas() -> dict:
    """OpenBLAS's version and the kernel it picked, when it can be asked."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "core": None}
    here = Path(np.__file__).resolve().parent
    candidates = [*glob.glob(str(here.parent / "numpy.libs" / "*openblas*")),
                  *glob.glob(str(here / ".dylibs" / "*openblas*"))]
    for path in candidates:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64"):
                getter = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_char_p
                    info["core"] = getter().decode()
                    return info
    return info


def _platform() -> dict:
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
    )

    return {
        "numpy": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
        "openblas": _openblas(),
    }


def _run_sweeps(root: Path) -> dict:
    sweeps = {}
    for name, raw in SWEEPS.items():
        cfg = ExperimentConfig.from_dict(raw)
        out = root / name
        write_outputs(cfg, run_experiment(cfg), out)
        sweeps[name] = {
            "sha256": {
                a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                for a in ARTIFACTS
            },
            "summary_csv": (out / "summary.csv").read_text().splitlines(),
        }
    return {"platform": _platform(), "sweeps": sweeps}


def _out_of_tolerance(name: str, pinned: list[str], now: list[str]) -> list[str]:
    old, new = list(csv.DictReader(pinned)), list(csv.DictReader(now))
    if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
        return [f"{name}: summary.csv shape changed"]
    bad = []
    for k, (a, b) in enumerate(zip(old, new)):
        for col, want in a.items():
            got = b[col]
            if col in EXACT:
                ok = got == want
            else:
                x, y = float(want), float(got)
                if col == "max_beamform_freq_hz":
                    x, y = (SPEED_OF_LIGHT / (15.0 * f) for f in (x, y))
                rel, tol = TOLERANCE[col]
                ok = x == y or abs(x - y) <= rel * max(abs(x), abs(y)) + tol
            if not ok:
                bad.append(f"{name} point {k} {col}: pinned {want}, now {got}")
    return bad


def test_pinned_sweep_artifacts(tmp_path):
    now = _run_sweeps(tmp_path)
    replacement = json.dumps(now, indent=2) + "\n"
    if not PINNED.exists():
        pytest.fail(f"{PINNED} is missing; to pin these artifacts, write:\n{replacement}")
    pinned = json.loads(PINNED.read_text())
    assert pinned["sweeps"].keys() == now["sweeps"].keys(), (
        f"the sweep set changed; replace {PINNED} with:\n{replacement}"
    )
    if pinned["platform"] == now["platform"]:
        problems = [
            f"{name} {artifact}"
            for name, sweep in pinned["sweeps"].items()
            for artifact, digest in sweep["sha256"].items()
            if now["sweeps"][name]["sha256"][artifact] != digest
        ]
        what = "artifacts changed bytes on the pinned platform"
    else:
        problems = [
            line
            for name, sweep in pinned["sweeps"].items()
            for line in _out_of_tolerance(
                name, sweep["summary_csv"], now["sweeps"][name]["summary_csv"]
            )
        ]
        what = "summary values moved beyond tolerance on another platform"
    assert not problems, (
        f"{what}: {problems}\nIf the change is deliberate, replace {PINNED} "
        f"with:\n{replacement}"
    )
