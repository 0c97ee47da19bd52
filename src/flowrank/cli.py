"""Command-line front end.

One binary, four subcommands: `detect` runs a pipeline over a flow (or
dense) CSV, `simulate` writes a synthetic dataset, `roc` runs the Monte
Carlo ROC protocol, `fisher` runs the information study. Every command
writes machine-readable CSV plus a JSON manifest capturing the full
parameter set, so re-running a manifest reproduces the output byte for
byte. Exit codes: 0 success, 1 usage error, 2 data error. Only `detect`
reads an input file, so a value that `simulate`, `roc` or `fisher`
rejects is always a bad option value (exit 1); an output that cannot be
written is a data error (exit 2) under every command.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from . import __version__
from .evaluate import DEFAULT_THRESHOLDS, roc, scorer
from .fisher import BUILTIN_DENSITIES, MIN_GRID, ResolutionError, _check_theta
from .fisher import estimate_info_max, estimate_info_sum
from .hashrank import sample_coefficients
from .ingest import read_flow_csv, split_windows
from .model import DetectionMethod, MetricKind, WindowConfig
from .ranktest import alarm_order
from .synth import SynthConfig, generate, read_dense_csv, write_dense_csv

_METRICS = {m.value: m for m in MetricKind}
_METHODS = {m.value: m for m in DetectionMethod}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, reserved for data errors)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _write_manifest(output: str, command: str, parameters: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "output": output,
    }
    with open(output + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(args: argparse.Namespace, header: str, lines: list, what: str, params: dict) -> int:
    """Write the CSV `header` and `lines` to `--output` plus its manifest; report the count."""
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    _write_manifest(args.output, args.command, params)
    print(f"wrote {len(lines)} {what} to {args.output}")
    return 0


def _require_at_least(args: argparse.Namespace, **minimum: int) -> None:
    """A count option below its minimum is a usage error, found before any input is read."""
    for name, least in minimum.items():
        value = getattr(args, name)
        if value is not None and value < least:
            raise UsageError(f"--{name} must be at least {least}")


def _synth_config(args: argparse.Namespace) -> SynthConfig:
    return SynthConfig(
        dim=args.dim,
        bins=args.bins,
        pareto_shape=args.pareto_shape,
        pareto_scale=args.pareto_scale,
        change_rank=args.target_rank,
        change_bin=args.change_at,
        factor=args.factor,
        seed=args.seed,
    )


def _report_skipped(skipped: Counter) -> None:
    # stderr only: the CSV and the manifest stay byte-identical across reruns
    by_reason = ", ".join(f"{reason} {n}" for reason, n in sorted(skipped.items()))
    print(
        f"flowrank: skipped {sum(skipped.values())} bad lines"
        + (f" ({by_reason})" if by_reason else ""),
        file=sys.stderr,
    )


def cmd_detect(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    if args.format == "dense" and args.metric != "syn":
        raise UsageError("dense input is already binned; --metric must stay at its default")
    if args.format == "dense" and args.errors != "abort":
        raise UsageError("dense input has no skip policy; --errors must stay at its default")
    _require_at_least(args, budget=1, rows=1, buckets=2, seed=0)
    try:
        cfg = WindowConfig(
            delta=args.delta,
            bins_per_window=args.window,
            top_m=args.top,
            keep_mprime=args.keep,
            level_alpha=args.alpha,
            metric=_METRICS[args.metric],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "dense":
        batch, _truth = read_dense_csv(args.input, args.window)
        batches = [batch]
    else:
        if args.errors == "abort":
            columns = read_flow_csv(args.input, errors="raise")
        else:
            skipped: Counter = Counter()
            columns = read_flow_csv(args.input, errors="skip", skipped=skipped)
            _report_skipped(skipped)
        batches = split_windows(columns, cfg)
    # the per-key scorer `roc` sweeps; `alarm_order` thresholds it
    coeffs = sample_coefficients(args.seed, args.rows, args.buckets)
    score = scorer(method, cfg, args.budget, coeffs)
    rows = []
    for batch in batches:
        scores = score(batch)
        at = alarm_order(scores, cfg.level_alpha)
        columns = (scores.keys, scores.p_report, scores.stat, scores.change_bin)
        for key, p_value, stat, change_bin in zip(*(c[at].tolist() for c in columns)):
            rows.append(
                f"{batch.window_index},{key},{method.value},"
                f"{p_value:.6g},{stat:.6g},{change_bin}"
            )
    header = "window,key,method,p_value,statistic,change_bin"
    return _write_table(args, header, rows, "alarms", _namespace_params(args))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _synth_config(args)
    batch = generate(cfg)
    write_dense_csv(batch, cfg, args.output)
    _write_manifest(args.output, "simulate", _namespace_params(args))
    print(f"wrote {int((batch.counts > 0).sum())} nonzero cells to {args.output}")
    return 0


def _parse_list(text: str, convert, name: str) -> list:
    """A comma-separated option; an empty list or a value `convert` rejects is a usage error."""
    try:
        values = [convert(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--{name} must be a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"--{name} must list at least one value")
    return values


def cmd_roc(args: argparse.Namespace) -> int:
    methods = (
        [DetectionMethod.TOPRANK, DetectionMethod.HASHRANK, DetectionMethod.COMPREHENSIVE]
        if args.method == "all"
        else [_METHODS[args.method]]
    )
    thresholds = (
        _parse_list(args.thresholds, float, "thresholds")
        if args.thresholds
        else DEFAULT_THRESHOLDS
    )
    cfg = _synth_config(args)
    lines = []
    for method in methods:
        points = roc(
            cfg,
            method,
            args.runs,
            thresholds,
            budget=args.budget,
            top_m=args.top,
            l_rows=args.rows,
            k_buckets=args.buckets,
            threads=args.threads,
        )
        for p in points:
            lines.append(
                f"{method.value},{p.threshold:.6g},{p.fa_rate:.6g},{p.det_rate:.6g}"
            )
    # random-classifier reference line (detects like it false-alarms)
    for t in thresholds:
        lines.append(f"random,{t:.6g},{t:.6g},{t:.6g}")
    params = _namespace_params(args)
    params["thresholds_used"] = thresholds
    return _write_table(args, "method,threshold,fa_rate,det_rate", lines, "roc points", params)


def cmd_fisher(args: argparse.Namespace) -> int:
    if args.density not in BUILTIN_DENSITIES:
        raise UsageError(
            f"unknown density {args.density!r}; built-ins: {sorted(BUILTIN_DENSITIES)}"
        )
    _require_at_least(args, mc=2, seed=0)
    _check_theta(args.theta)
    if args.grid < MIN_GRID or args.grid & (args.grid - 1):
        raise UsageError(f"--grid must be a power of two of at least {MIN_GRID}")
    dtheta = args.dtheta_frac * args.theta
    if not 0.0 < dtheta < args.theta:
        raise UsageError("--dtheta-frac must lie in (0, 1)")
    density = BUILTIN_DENSITIES[args.density]
    dims = _parse_list(args.dims, int, "dims")
    if min(dims) < 2:
        raise UsageError("--dims must be at least 2")
    lines = []
    for i, dim in enumerate(dims):
        est_max = estimate_info_max(density, args.theta, dim, n_mc=args.mc, seed=args.seed + i)
        est_sum = estimate_info_sum(density, args.theta, dim, grid_n=args.grid, dtheta=dtheta)
        for est in (est_max, est_sum):
            lines.append(
                f"{est.method.value},{est.dim},{est.theta:.6g},"
                f"{est.value:.8g},{est.target:.8g}"
            )
    header = "method,D,theta,estimate,target"
    return _write_table(args, header, lines, "estimates", _namespace_params(args))


def _namespace_params(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_synth_options(parser: argparse.ArgumentParser) -> None:
    """The `SynthConfig` options that `simulate` and `roc` share."""
    parser.add_argument("--dim", type=int, default=1000)
    parser.add_argument("--bins", type=int, default=60)
    parser.add_argument("--change-at", type=int, default=35, dest="change_at")
    parser.add_argument("--factor", type=float, default=7.0)
    parser.add_argument("--target-rank", type=int, default=500, dest="target_rank")
    parser.add_argument("--pareto-shape", type=float, default=2.5, dest="pareto_shape")
    parser.add_argument("--pareto-scale", type=float, default=0.72, dest="pareto_scale")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowrank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flowrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run a detection pipeline over a CSV")
    d.add_argument("--input", required=True, help="flow CSV (or dense CSV with --format dense)")
    d.add_argument("--output", default="alarms.csv")
    d.add_argument("--format", choices=("flow", "dense"), default="flow")
    d.add_argument("--metric", choices=sorted(_METRICS), default="syn")
    d.add_argument("--method", choices=sorted(_METHODS), default="toprank")
    d.add_argument("--delta", type=float, default=1.0, help="bin length in seconds")
    d.add_argument("--window", type=int, default=60, help="bins per observation window")
    d.add_argument("--top", type=int, default=10, help="per-bin filtering depth M")
    d.add_argument("--keep", type=int, default=1, help="candidate rank depth M'")
    d.add_argument("--alpha", type=float, default=1e-3, help="p-value alarm threshold")
    d.add_argument("--budget", type=int, default=None, help="fixed candidate budget (overrides --keep)")
    d.add_argument("--rows", type=int, default=8, help="sketch rows L")
    d.add_argument("--buckets", type=int, default=17, help="sketch buckets K")
    d.add_argument("--seed", type=int, default=0, help="hash coefficient seed")
    d.add_argument("--errors", choices=("abort", "skip"), default="abort")
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("simulate", help="write a synthetic dataset as dense CSV")
    s.add_argument("--output", default="dataset.csv")
    _add_synth_options(s)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("roc", help="Monte Carlo ROC evaluation on synthetic data")
    r.add_argument("--output", default="roc.csv")
    r.add_argument("--method", choices=sorted(_METHODS) + ["all"], default="all")
    r.add_argument("--runs", type=int, default=100)
    _add_synth_options(r)
    r.add_argument("--budget", type=int, default=136, help="series budget for record filtering")
    r.add_argument("--top", type=int, default=50, help="filtering depth M in budget mode")
    r.add_argument("--rows", type=int, default=8)
    r.add_argument("--buckets", type=int, default=17)
    r.add_argument("--thresholds", default=None, help="comma-separated p-value grid")
    r.add_argument("--threads", type=int, default=1)
    r.set_defaults(func=cmd_roc)

    f = sub.add_parser("fisher", help="information study of max vs sum reduction")
    f.add_argument("--output", default="fisher.csv")
    f.add_argument("--theta", type=float, default=0.5)
    f.add_argument("--dims", default="50,200,800", help="comma-separated dimensions")
    f.add_argument("--density", default="beta33")
    f.add_argument("--mc", type=int, default=200_000, help="Monte Carlo draws for the max")
    f.add_argument("--grid", type=int, default=1 << 17, help="FFT grid size for the sum")
    f.add_argument("--dtheta-frac", type=float, default=1e-4, dest="dtheta_frac")
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=cmd_fisher)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # `detect` alone reads input; any other value error is a bad option value
    usage = (UsageError,) if args.command == "detect" else (UsageError, ValueError, ResolutionError)
    try:
        return args.func(args)
    except usage as exc:
        print(f"flowrank: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"flowrank: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
