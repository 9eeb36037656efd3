"""Command-line front end.

Subcommands cover single-scenario simulation, config-driven sweeps, the
range-error bound, MDS embedding and full localization of CSV matrices,
blind SNR estimation from sample dumps, and mask completability checks.

Exit codes: 0 success, 2 configuration error, 3 structural error
(observation mask cannot resolve the array).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .evaluation import max_beamform_freq
from .geometry import (
    CompletabilityError,
    is_completable,
    read_edm_csv,
    read_mask_csv,
    write_layout_csv,
)
from .harness import (
    RANGING_MODES, ExperimentConfig, LayoutSpec, load_config, run_experiment,
    write_outputs,
)
from .mds import classical_mds
from .ranging import crlb_sigma_d
from .snr import blind_snr_estimate, db_to_linear, linear_to_db, read_sample_matrix_csv
from .solver import complete_and_localize


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        array_sizes=[args.nodes],
        connectivities=[args.connectivity],
        bandwidths_hz=[args.bandwidth],
        trials=1,
        snr_h_db=args.snr_db,
        pulse_s=args.pulse,
        sample_rate_hz=args.fs,
        ranging_mode=args.mode,
        noiseless=args.noiseless,
        layout=LayoutSpec(extent_m=args.extent),
        seed=args.seed,
    )
    record = run_experiment(cfg)[0]
    print(f"final_evm_m={record.final_evm_m!r}")
    print(f"final_evm_rms_m={record.final_evm_rms_m!r}")
    print(f"final_cost={record.final_cost!r}")
    print(f"generations_used={record.generations_used}")
    print(f"converged={'true' if record.converged else 'false'}")
    print(f"stop_reason={record.stop_reason}")
    print(f"evaluations={record.evaluations}")
    print(f"ruled_out={record.ruled_out}")
    if record.final_evm_m > 0:
        print(f"max_beamform_freq_hz={max_beamform_freq(record.final_evm_m)!r}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    started = time.perf_counter()
    records = run_experiment(cfg)
    elapsed = time.perf_counter() - started
    out_dir = args.out or "results"
    paths = write_outputs(cfg, records, out_dir)
    print(f"trials={len(records)} elapsed_s={elapsed:.1f}")
    for name, path in paths.items():
        print(f"{name}={path}")
    return 0


def _cmd_crlb(args: argparse.Namespace) -> int:
    if not np.isfinite(args.snr_db):
        raise ValueError("--snr-db must be finite")
    sigma = crlb_sigma_d(
        args.bandwidth, args.pulse, db_to_linear(args.snr_db), args.fs
    )
    print(f"sigma_d_m={sigma!r}")
    print(f"max_beamform_freq_hz={max_beamform_freq(sigma)!r}")
    return 0


def _cmd_mds(args: argparse.Namespace) -> int:
    edm = read_edm_csv(args.edm)
    layout = classical_mds(edm, args.dim)
    write_layout_csv(args.out or sys.stdout, layout)
    return 0


def _cmd_localize(args: argparse.Namespace) -> int:
    mask = read_mask_csv(args.mask)
    edm = read_edm_csv(args.edm, mask=mask)
    run = complete_and_localize(edm, mask, 2, rng=np.random.default_rng(args.seed))
    write_layout_csv(args.out or sys.stdout, run.recovered_layout)
    print(
        f"cost={float(run.best_cost_history[-1])!r} "
        f"generations={run.generations_used} "
        f"converged={'true' if run.converged else 'false'} "
        f"stop={run.stop_reason} "
        f"evaluations={run.evaluations}",
        file=sys.stderr,
    )
    return 0


def _cmd_snr_estimate(args: argparse.Namespace) -> int:
    estimate = blind_snr_estimate(read_sample_matrix_csv(args.samples))
    print(f"signal_power={estimate.signal_power!r}")
    print(f"noise_power={estimate.noise_power!r}")
    print(f"snr_linear={estimate.snr!r}")
    if np.isfinite(estimate.snr) and estimate.snr > 0:
        print(f"snr_db={linear_to_db(estimate.snr)!r}")
    return 0


def _cmd_completable(args: argparse.Namespace) -> int:
    mask = read_mask_csv(args.mask)
    ok = is_completable(mask)
    print(f"completable={'true' if ok else 'false'}")
    if not ok:
        raise CompletabilityError("mask cannot resolve the array")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayloc",
        description="Internode ranging simulation and array-geometry recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one localization trial")
    p.add_argument("--nodes", "-n", type=int, default=6)
    p.add_argument("--connectivity", "-c", type=float, default=0.8)
    p.add_argument("--bandwidth", type=float, default=40e6, help="tone separation, Hz")
    p.add_argument("--snr-db", type=float, default=34.0)
    p.add_argument("--pulse", type=float, default=10e-6, help="pulse duration, s")
    p.add_argument("--fs", type=float, default=200e6, help="sample rate, Sa/s")
    p.add_argument("--mode", choices=RANGING_MODES, default="statistical")
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--extent", type=float, default=5.0, help="layout box side, m")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a config-driven Monte Carlo sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", help="output directory (default: results)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crlb", help="range-error bound for a waveform/SNR point")
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--pulse", type=float, default=10e-6)
    p.add_argument("--fs", type=float, default=200e6)
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser("mds", help="embed a complete distance matrix")
    p.add_argument("--edm", required=True, help="squared-distance CSV")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out", help="write coordinates here instead of stdout")
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("localize", help="complete a partial matrix and embed it")
    p.add_argument("--edm", required=True, help="squared-distance CSV")
    p.add_argument("--mask", required=True, help="observation mask CSV (0/1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write coordinates here instead of stdout")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("snr-estimate", help="blind SNR from capture windows")
    p.add_argument("--samples", required=True, help="interleaved I/Q sample CSV")
    p.set_defaults(func=_cmd_snr_estimate)

    p = sub.add_parser("completable", help="check an observation mask")
    p.add_argument("--mask", required=True, help="observation mask CSV (0/1)")
    p.set_defaults(func=_cmd_completable)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompletabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
