"""Command-line front door: estimation, testing, simulation and VAR workflows.

Exit codes: 0 success, 2 input/usage problems (argument parsing, CSV or
config parsing, and every InvalidInputError the library raises on an
argument), 3 numerical failures (singularities, weak instruments), 4
labeling ambiguity.  Each command parses its inputs, runs the library to
completion, and only then creates `--out` and writes, so a failed command
writes nothing.  Seeds are mandatory wherever randomness enters (the probe
draw, the simulations); given the same inputs and seed, all numeric outputs
are byte-identical.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CumidentError, InvalidInputError, LabelingAmbiguityError
from .identify import (
    ProbeVectors,
    estimate_demixing,
    label_by_signs,
    label_by_triangular,
)
from .inference import (
    delta_variance,
    delta_variance_labeled,
    demixing_jackknife,
    jackknife_confidence_interval,
)
from .overid import wald_test
from .simulate import (
    CompositeDgpConfig,
    gen_composite,
    parse_experiment_config,
    run_coverage_experiment,
    run_mse_experiment,
    run_overid_power_experiment,
    write_mc_csv,
)
from .varpipe import fit_var, load_series_csv, pairwise_overid, partial_out

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_LABELING = 4


@dataclass
class RunManifest:
    """Provenance attached to every output of a CLI run."""

    command: str
    seed: int
    version: str
    created_utc: str
    inputs: dict[str, str]
    argv: list[str]

    @classmethod
    def build(cls, command: str, seed: int, inputs: dict[str, str],
              argv) -> "RunManifest":
        """`inputs` maps each input path to the SHA-256 hex digest of the
        bytes that were read from it."""
        return cls(
            command=command,
            seed=seed,
            version=__version__,
            created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            inputs=dict(inputs),
            argv=list(argv),
        )

    def header_lines(self) -> list[str]:
        """Deterministic manifest subset embedded in every numeric output."""
        lines = [
            f"cumident {self.version}",
            f"command: {self.command}",
            f"seed: {self.seed}",
            "manifest: run_manifest.json",
        ]
        lines += [f"input {p} sha256:{h}" for p, h in sorted(self.inputs.items())]
        return lines

    def write(self, out_dir: Path) -> None:
        (out_dir / "run_manifest.json").write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        )


def _write_csv(path: Path, manifest: RunManifest, header: list[str],
               rows: list[list]) -> None:
    lines = [f"# {line}" for line in manifest.header_lines()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _load_csv(path):
    try:
        return load_series_csv(path)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(str(exc)) from exc


def _load_numbers(path, ndmin: int) -> np.ndarray:
    """The comma-separated numbers in the file at `path`, one row a line, in
    `ndmin` dimensions or more; the library checks their shape and values."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=ndmin, comments="#")
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- estimate

def _cmd_estimate(args, argv) -> int:
    if not args.label.startswith("signs:") and args.label not in ("triangular", "none"):
        raise InvalidInputError(
            f"--label must be signs:<file>, triangular or none, got {args.label!r}"
        )
    if args.se != "none" and (args.order != 3 or args.label == "triangular"):
        raise InvalidInputError("standard errors need --order 3 and --label "
                                "signs:<file> or none; use --se none")
    series = _load_csv(args.csv)
    d = series.data.shape[1]
    w2 = None if args.w2 == "ones" else _load_numbers(args.w2, 1).ravel()
    pattern = None
    if args.label.startswith("signs:"):
        pattern = _load_numbers(args.label.split(":", 1)[1], 2)
    probes = ProbeVectors.draw(d, args.seed, w2=w2)

    est = estimate_demixing(series.data, probes, order=args.order)

    labeling = None
    if pattern is not None:
        labeling = label_by_signs(est, pattern)
    elif args.label == "triangular":
        labeling = label_by_triangular(est)

    reported = labeling.lambda_final if labeling is not None else est.lambda_tilde
    se_rows = _estimate_se_rows(series.data, probes, pattern, args.se,
                                args.level, reported)

    manifest = RunManifest.build("estimate", args.seed,
                                {str(args.csv): series.sha256}, argv)
    out = _out_dir(args)
    rows = [
        [i] + [float(v) for v in reported[i]] for i in range(d)
    ]
    _write_csv(
        out / "estimate_matrix.csv", manifest,
        ["row", *series.names], rows,
    )

    diag_rows = [
        ["eigenvalue_" + str(i), float(est.eigenvalues[i])] for i in range(d)
    ]
    diag_rows += [
        ["cond_G2", est.cond_G2],
        ["max_imag", est.max_imag],
        ["eigen_gap_flag", int(est.gap_flag)],
        ["orientation_fallback_rows", ";".join(map(str, est.fallback_rows)) or "-"],
        ["order", args.order],
    ]
    if labeling is not None:
        diag_rows += [
            ["labeling", args.label],
            ["permutation", ";".join(map(str, labeling.permutation))],
            ["residual_mismatch", labeling.residual_mismatch],
        ]
    _write_csv(out / "estimate_diagnostics.csv", manifest, ["key", "value"], diag_rows)

    if se_rows:
        _write_csv(
            out / "estimate_se.csv", manifest,
            ["method", "row", "col", "estimate", "se", "ci_lo", "ci_hi"],
            se_rows,
        )

    _write_summary(out / "estimate_summary.txt", manifest, series, est, labeling, reported, se_rows, args)
    manifest.write(out)
    return EXIT_OK


def _estimate_se_rows(data, probes, pattern, se, level, reported):
    """Per-entry standard errors and CIs for the reported matrix; none for
    `se` "none"."""
    n, d = data.shape
    # Variances of the estimate itself: the delta method's sqrt(n)-scale
    # covariance divided by n, the jackknife's as it is.
    variances = {}
    if se in ("delta", "both"):
        if pattern is None:
            res = delta_variance(data, probes)
        else:
            res = delta_variance_labeled(data, probes, pattern, entry=None)
        variances["delta"] = np.diag(res.sigma_u).reshape(d, d) / n
    if se in ("jackknife", "both"):
        jk = demixing_jackknife(data, probes, pattern=pattern, entry=None)
        variances["jackknife"] = np.diag(jk.variance).reshape(d, d)
    out = []
    for method, var in variances.items():
        for i in range(d):
            for j in range(d):
                lo, hi = jackknife_confidence_interval(
                    reported[i, j], var[i, j], level
                )
                out.append([
                    method, i, j, float(reported[i, j]),
                    float(np.sqrt(var[i, j])), lo, hi,
                ])
    return out


def _write_summary(path, manifest, series, est, labeling, reported, se_rows, args):
    d = reported.shape[0]
    lines = [f"cumident {__version__} estimate", ""]
    lines.append(f"series: {', '.join(series.names)} (n = {series.data.shape[0]})")
    lines.append(f"cumulant order: {args.order}; seed: {args.seed}")
    lines.append(f"cond(G(w2)) = {est.cond_G2:.4g}; max imaginary part = {est.max_imag:.3g}")
    if est.gap_flag:
        lines.append("WARNING: near-repeated eigenvalues; rows may be unstable")
    lines.append("")
    title = "structural matrix estimate"
    if labeling is not None:
        title += f" (labeled: {args.label}, permutation {labeling.permutation})"
    else:
        title += " (unlabeled oriented unit rows)"
    lines.append(title)
    for i in range(d):
        lines.append("  " + "  ".join(f"{v: .6f}" for v in reported[i]))
    if se_rows:
        lines.append("")
        lines.append(f"standard errors ({args.se}, level {args.level:g})")
        for row in se_rows:
            lines.append(
                f"  {row[0]:>9} [{row[1]},{row[2]}] = {row[3]: .6f}"
                f"  se {row[4]:.6f}  CI [{row[5]: .6f}, {row[6]: .6f}]"
            )
    path.write_text("\n".join(lines) + "\n")


# -------------------------------------------------------------------- test

def _cmd_test(args, argv) -> int:
    series = _load_csv(args.csv)
    probes = ProbeVectors.draw(series.data.shape[1], args.seed)
    result = wald_test(series.data, probes, method=args.omega)
    manifest = RunManifest.build("test", args.seed,
                                {str(args.csv): series.sha256}, argv)
    out = _out_dir(args)
    _write_csv(
        out / "test_result.csv", manifest,
        ["statistic", "dof", "p_value", "method"],
        [[result.statistic, result.dof, result.p_value, result.method]],
    )
    _write_csv(
        out / "test_restrictions.csv", manifest,
        ["index", "r_hat"],
        [[i, float(v)] for i, v in enumerate(result.r_hat)],
    )
    summary = [
        f"cumident {__version__} joint-diagonality test",
        "",
        f"series: {', '.join(series.names)} (n = {series.data.shape[0]})",
        f"omega: {result.method}; seed: {args.seed}",
        f"T = {result.statistic:.6g} on {result.dof} degree(s) of freedom",
        f"p-value = {result.p_value:.6g}",
    ]
    (out / "test_summary.txt").write_text("\n".join(summary) + "\n")
    manifest.write(out)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

_TABLE_DEFAULTS = {
    1: {"ns": (500, 3000, 5000), "ks": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)},
    2: {"ns": (500, 3000, 5000), "k": 0.5, "level": 0.95},
    3: {"ns": (500, 750, 1000, 5000), "ks": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        "alpha": 0.05},
}


def _setting(config, key, cast, default, single=False):
    """Config `key` as a tuple of `cast` values, or `default`; the library
    checks their ranges.  A `single` key refuses a list."""
    if key not in config:
        return default
    raw = config[key]
    if single and isinstance(raw, list):
        raise InvalidInputError(f"config key {key!r} takes one value, got a list")
    try:
        return tuple(map(cast, raw if isinstance(raw, list) else [raw]))
    except ValueError as exc:
        raise InvalidInputError(f"config key {key!r}: {exc}") from exc


def _cmd_simulate(args, argv) -> int:
    config = {}
    inputs = {}
    if args.config is not None:
        try:
            data = Path(args.config).read_bytes()
            config = parse_experiment_config(data, args.config)
        except (OSError, ValueError) as exc:
            raise InvalidInputError(str(exc)) from exc
        inputs[str(args.config)] = hashlib.sha256(data).hexdigest()
    table = args.table if args.table is not None else _setting(
        config, "table", int, (0,), single=True)[0]
    if table not in (1, 2, 3):
        raise InvalidInputError("select a table via --table {1,2,3} or the config file")
    seed = args.seed if args.seed is not None else _setting(
        config, "seed", int, (None,), single=True)[0]
    if seed is None:
        raise InvalidInputError("a seed is required (--seed or config key 'seed')")
    reps = args.reps if args.reps is not None else _setting(
        config, "reps", int, (1000,), single=True)[0]
    defaults = _TABLE_DEFAULTS[table]
    ns = _setting(config, "ns", int, defaults["ns"])
    kurtoses = _setting(config, "kurtoses", float, (3.0, 4.0, 5.0))
    ks = _setting(config, "ks", float, defaults.get("ks"))
    k = _setting(config, "k", float, (defaults.get("k"),), single=True)[0]
    level = _setting(config, "level", float, (defaults.get("level"),), single=True)[0]
    alpha = _setting(config, "alpha", float, (defaults.get("alpha"),), single=True)[0]
    estimators = _setting(config, "estimators", str, ("eigen", "iv1", "iv2"))
    methods = _setting(config, "methods", str, ("jackknife", "delta"))

    if table == 1:
        result = run_mse_experiment(ns, ks, reps, seed, estimators, kurtoses)
    elif table == 2:
        result = run_coverage_experiment(ns, k, reps, seed, level, methods, kurtoses)
    else:
        result = run_overid_power_experiment(ns, ks, reps, seed, alpha,
                                             kurtoses=kurtoses)

    sample = None
    if args.emit_sample:
        cfg = CompositeDgpConfig(n=max(ns), k=result.ks[0], kurtoses=kurtoses,
                                 seed=seed)
        sample = gen_composite(cfg, 0).x

    manifest = RunManifest.build("simulate", seed, inputs, argv)
    out = _out_dir(args)
    write_mc_csv(result, out / f"table{table}.csv",
                 extra_header=manifest.header_lines())
    if sample is not None:
        _write_csv(
            out / "sample.csv", manifest, ["x1", "x2"],
            [[float(a), float(b)] for a, b in sample],
        )
    manifest.write(out)
    return EXIT_OK


# --------------------------------------------------------------------- var

def _parse_pairs(text: str):
    if text == "all":
        return "all"
    pairs = []
    try:
        for chunk in text.split(";"):
            i, j = chunk.split(",")
            pairs.append((int(i) - 1, int(j) - 1))
    except ValueError as exc:
        raise InvalidInputError(
            f"--pairs must be 'all' or 'i,j;k,l' with 1-based indices, got {text!r}"
        ) from exc
    return pairs


def _cmd_var(args, argv) -> int:
    pairs = _parse_pairs(args.pairs)
    series = _load_csv(args.csv)
    names = list(series.names)
    data = series.data
    controls = []
    if args.controls:
        controls = [c.strip() for c in args.controls.split(",")]
        missing = [c for c in controls if c not in names]
        if missing:
            raise InvalidInputError(f"control column(s) not found: {missing}")
        ctl_idx = [names.index(c) for c in controls]
        tgt_idx = [i for i in range(len(names)) if i not in ctl_idx]
        data = partial_out(data[:, tgt_idx], data[:, ctl_idx])
        names = [names[i] for i in tgt_idx]
    fit = fit_var(data, p=args.lags)
    probes = ProbeVectors.draw(2, args.seed)
    try:
        report = pairwise_overid(fit, probes, pairs=pairs, alpha=args.alpha)
    except InvalidInputError as exc:
        if not hasattr(exc, "pair"):
            raise
        i, j = exc.pair  # 0-based; the user typed them 1-based
        raise InvalidInputError(f"invalid pair {i + 1},{j + 1} in --pairs: indices are "
                                f"1-based, distinct and at most {len(names)}") from exc

    manifest = RunManifest.build("var", args.seed,
                                {str(args.csv): series.sha256}, argv)
    out = _out_dir(args)

    rows = [
        [i + 1, j + 1, names[i], names[j], res.statistic, res.dof,
         res.p_value, int(res.p_value < args.alpha)]
        for i, j, res in report.pairs
    ]
    _write_csv(
        out / "var_pairwise.csv", manifest,
        ["i", "j", "series_i", "series_j", "statistic", "dof", "p_value",
         f"reject_at_{args.alpha:g}"],
        rows,
    )
    summary = [
        f"cumident {__version__} pairwise joint-diagonality tests",
        "",
        f"series: {', '.join(names)} (T = {series.data.shape[0]}, lags = {args.lags})",
        f"effective sample: {report.n_effective}; seed: {args.seed}",
    ]
    if controls:
        summary.append(f"partialled-out controls: {', '.join(controls)}")
    for i, j, res in report.pairs:
        flag = "REJECT" if res.p_value < args.alpha else "keep  "
        summary.append(
            f"  ({names[i]}, {names[j]}): T = {res.statistic:8.4f}, "
            f"p = {res.p_value:.4f}  {flag}"
        )
    for i, j, msg in report.failures:
        summary.append(f"  ({names[i]}, {names[j]}): FAILED ({msg})")
    (out / "var_summary.txt").write_text("\n".join(summary) + "\n")
    manifest.write(out)
    return EXIT_OK


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumident",
        description="Simultaneous-equation identification from a single "
                    "higher-order cumulant",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the structural matrix from a CSV")
    p_est.add_argument("csv")
    p_est.add_argument("--seed", type=int, required=True)
    p_est.add_argument("--order", type=int, choices=(3, 4), default=3)
    p_est.add_argument("--w2", default="ones",
                       help="'ones' or a file with d comma-separated entries")
    p_est.add_argument("--label", default="none",
                       help="signs:<pattern-file>, triangular, or none")
    p_est.add_argument("--se", choices=("delta", "jackknife", "both", "none"),
                       default="delta")
    p_est.add_argument("--level", type=_unit_interval, default=0.95)
    p_est.add_argument("--out", default=".")
    p_est.set_defaults(func=_cmd_estimate)

    p_test = sub.add_parser("test", help="joint-diagonality (uncorrelatedness) test")
    p_test.add_argument("csv")
    p_test.add_argument("--seed", type=int, required=True)
    p_test.add_argument("--omega", choices=("delta", "jackknife"), default="delta")
    p_test.add_argument("--out", default=".")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo table experiment")
    p_sim.add_argument("config", nargs="?", default=None,
                       help="key = value experiment config file")
    p_sim.add_argument("--table", type=int, choices=(1, 2, 3))
    p_sim.add_argument("--reps", type=_positive_int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--emit-sample", action="store_true")
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(func=_cmd_simulate)

    p_var = sub.add_parser("var", help="VAR residual pairwise tests on a CSV")
    p_var.add_argument("csv")
    p_var.add_argument("--lags", type=_positive_int, required=True)
    p_var.add_argument("--seed", type=int, required=True)
    p_var.add_argument("--pairs", default="all")
    p_var.add_argument("--controls", default="")
    p_var.add_argument("--alpha", type=_unit_interval, default=0.05)
    p_var.add_argument("--out", default=".")
    p_var.set_defaults(func=_cmd_var)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except InvalidInputError as exc:
        print(f"cumident {args.command}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LabelingAmbiguityError as exc:
        print(f"cumident {args.command}: labeling ambiguity: {exc}", file=sys.stderr)
        return EXIT_LABELING
    except (CumidentError, np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        print(f"cumident {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
