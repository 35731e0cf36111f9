"""Command-line interface: ingest, fit, simulate, evaluate, predict.

All sequence input at this boundary is chronological (oldest first); the
reversal into the internal most-recent-first order happens in exactly one
place, ``chronological_to_context``.

Exit codes: 0 success, 2 usage, 3 bad data or model files, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithm import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_S_GRID,
    FitConfig,
    FitReport,
    fit,
    select_tuning,
)
from .core import Context, ContextTree, Dataset, context_label
from .errors import (
    DataError,
    EmptyAfterTransform,
    LagMismatch,
    MissingColumn,
    NonNumericCell,
    NumericalError,
)
from .glm import transition_distribution
from .simulate import BUILTIN_MODELS, ModelSpec, TuningGrid, builtin_model, generate, monte_carlo

TRANSFORMS = ("none", "log_return", "binarize_sign")


@dataclass(frozen=True)
class ColumnSpec:
    column: str
    transform: str = "none"

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise DataError(
                f"unknown transform {self.transform!r} for column {self.column!r}; "
                f"choose from {', '.join(TRANSFORMS)}"
            )


@dataclass(frozen=True)
class IngestSpec:
    """Which CSV columns become the state sequence and the covariates.

    JSON layout::

        {"target": {"column": "hsi", "transform": "binarize_sign"},
         "covariates": [{"column": "sp500", "transform": "log_return"}, ...]}
    """

    target: ColumnSpec
    covariates: tuple[ColumnSpec, ...]

    @classmethod
    def from_dict(cls, payload: dict) -> "IngestSpec":
        try:
            target = ColumnSpec(**payload["target"])
            covs = tuple(ColumnSpec(**c) for c in payload.get("covariates", []))
        except (KeyError, TypeError) as exc:
            raise DataError(f"invalid ingest spec: {exc}") from exc
        return cls(target=target, covariates=covs)

    @classmethod
    def from_file(cls, path: str) -> "IngestSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read ingest spec {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"ingest spec {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _transform(values: np.ndarray, how: str, column: str) -> tuple[np.ndarray, int]:
    """Apply one column transform; returns (values, rows consumed at the start)."""
    if how == "none":
        return values, 0
    if how == "binarize_sign":
        return (values > 0).astype(float), 0
    bad = np.nonzero(values <= 0)[0]
    if bad.size:
        raise DataError(
            f"log_return needs positive values; column {column!r} has "
            f"{values[bad[0]]!r} at data row {int(bad[0]) + 1}"
        )
    return np.log(values[1:] / values[:-1]), 1


def ingest(csv_path: str, spec: IngestSpec) -> Dataset:
    """Read a CSV (comma separated, headers, ``.`` decimals) into a Dataset.

    Transformed columns stay aligned on their source rows; differencing
    transforms shorten the front, and every column is cut to the common
    range.  The target column must come out as non-negative integers.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {csv_path!r}: {exc}") from exc
    if not rows:
        raise DataError(f"{csv_path!r} is empty")
    header, data_rows = rows[0], rows[1:]
    index = {name: i for i, name in enumerate(header)}
    needed = [spec.target] + list(spec.covariates)
    for col in needed:
        if col.column not in index:
            raise MissingColumn(f"column {col.column!r} not in {csv_path!r}")
    raw: dict[str, np.ndarray] = {}
    for col in needed:
        pos = index[col.column]
        values = np.empty(len(data_rows))
        for r, row in enumerate(data_rows):
            cell = row[pos].strip() if pos < len(row) else ""
            try:
                values[r] = float(cell)
            except ValueError:
                raise NonNumericCell(r + 2, col.column) from None
        raw[col.column] = values
    transformed: dict[str, tuple[np.ndarray, int]] = {}
    for col in needed:
        transformed[col.column] = _transform(raw[col.column], col.transform, col.column)
    start = max(offset for _, offset in transformed.values())
    length = len(data_rows) - start
    if length <= 0:
        raise EmptyAfterTransform(
            f"{len(data_rows)} data rows leave nothing after transforms"
        )

    def aligned(column: str) -> np.ndarray:
        values, offset = transformed[column]
        return values[start - offset :]

    target = aligned(spec.target.column)
    if np.any(target < 0) or np.any(target != np.round(target)):
        raise DataError(
            f"target column {spec.target.column!r} must yield non-negative "
            f"integer states after its transform"
        )
    if spec.covariates:
        covariates = np.column_stack([aligned(c.column) for c in spec.covariates])
    else:
        covariates = np.zeros((length, 0))
    return Dataset(states=target.astype(np.int64), covariates=covariates)


# -- shared helpers -----------------------------------------------------------


def chronological_to_context(states: Sequence[int]) -> Context:
    """Oldest-first input becomes the internal most-recent-first context."""
    return tuple(int(s) for s in reversed(list(states)))


def _parse_history(text: str) -> Context:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DataError(f"history must be comma-separated integers: {exc}") from exc
    if not values:
        raise DataError("history is empty")
    return chronological_to_context(values)


def _parse_covariate_rows(text: str, d: int) -> np.ndarray:
    """Inline covariate rows: ';' between time points (oldest first), ','
    between values."""
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            rows.append([float(tok) for tok in part.split(",")])
        except ValueError as exc:
            raise DataError(f"bad covariate row {part!r}: {exc}") from exc
    if any(len(r) != d for r in rows):
        raise LagMismatch(f"each covariate row needs {d} values")
    arr = np.asarray(rows, dtype=float).reshape(-1, d)
    return arr[::-1]


def _load_tree(source: str) -> ContextTree:
    if source.strip().lower() in BUILTIN_MODELS:
        return builtin_model(source).tree
    try:
        with open(source, encoding="utf-8") as fh:
            return ContextTree.parse(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read model {source!r}: {exc}") from exc


def render_tree(tree: ContextTree) -> str:
    """Plain-text tree, one node per line, leaves annotated with alpha and
    the number of active lags."""

    def annot(u: Context) -> str:
        block = tree.nodes.get(u)
        if block is None:
            return ""
        alphas = ",".join(f"{a:.4g}" for a in block.alpha)
        return f" (alpha={alphas}, h={block.h})"

    lines = ["root" + annot(())]

    def walk(u: Context, prefix: str) -> None:
        kids = tree.children(u)
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            lines.append(prefix + ("`-- " if last else "|-- ") + str(child[-1]) + annot(child))
            walk(child, prefix + ("    " if last else "|   "))

    walk((), "")
    return "\n".join(lines)


def _print_report(report: FitReport) -> None:
    print(render_tree(report.tree))
    print(
        f"logLik {report.loglik:.4f}  AIC {report.aic:.4f}  BIC {report.bic:.4f}  "
        f"leaves {report.n_alpha}  lag_coeffs {report.n_beta}  "
        f"n_eff {report.n_eff}  horizon {report.horizon}"
    )
    print(f"config: s={report.config.s} gamma={report.config.gamma:g}"
          + (" bonferroni" if report.config.bonferroni else ""))
    for note in report.notes:
        print(f"note: {note}")


def _make_setting(args: argparse.Namespace) -> FitConfig | TuningGrid:
    """The fixed config, or with ``--tune`` the validated tuning grid."""
    base = FitConfig(max_order_cap=args.max_order, bonferroni=args.bonferroni)
    if args.tune:
        return TuningGrid(s_grid=tuple(args.s_grid), gamma_grid=tuple(args.gamma_grid), base=base)
    return base.replace(s=args.s, gamma=args.gamma)


# -- commands -----------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    setting = _make_setting(args)
    spec = IngestSpec.from_file(args.ingest)
    data = ingest(args.data, spec)
    if isinstance(setting, TuningGrid):
        result = select_tuning(data, setting.s_grid, setting.gamma_grid, config=setting.base)
        report = result.report
        print(f"selected s={result.config.s} gamma={result.config.gamma:g}")
    else:
        report = fit(data, setting)
    _print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.tree.serialize())
            fh.write("\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    tree = _load_tree(args.model)
    spec = ModelSpec(tree=tree)
    data = generate(spec, args.n, args.seed, burn_in=args.burn_in)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{i + 1}" for i in range(data.d)])
        for i in range(data.n):
            writer.writerow([int(data.states[i])] + [repr(float(v)) for v in data.covariates[i]])
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tree = _load_tree(args.model)
    spec = ModelSpec(tree=tree)
    summary = monte_carlo(
        spec, args.n, args.runs, _make_setting(args), base_seed=args.seed, burn_in=args.burn_in
    )
    print(summary.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(summary.to_json())
            fh.write("\n")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    tree = _load_tree(args.model)
    history = _parse_history(args.history)
    leaf = tree.lookup(history)
    block = tree.block(leaf)
    if block.h == 0:
        window = None
    elif args.covariates:
        window = _parse_covariate_rows(args.covariates, tree.d)
    else:
        window = np.zeros((block.h, tree.d))
    probs = transition_distribution(block, window)
    print(f"context {context_label(leaf)} (h={block.h})")
    for j, prob in enumerate(probs):
        print(f"P(next={j}) = {prob:.6f}")
    return 0


# -- parser -------------------------------------------------------------------


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tune", action="store_true",
                     help="search the (s, gamma) grid by information criterion")
    sub.add_argument("--s", type=int, default=FitConfig.s,
                     help="observations required per parameter (default %(default)s)")
    sub.add_argument("--gamma", type=float, default=FitConfig.gamma,
                     help="pruning test level (default %(default)s)")
    sub.add_argument("--s-grid", type=int, nargs="+", default=DEFAULT_S_GRID,
                     help="s values for --tune (default %(default)s)")
    sub.add_argument("--gamma-grid", type=float, nargs="+", default=DEFAULT_GAMMA_GRID,
                     help="gamma values for --tune (default %(default)s)")
    sub.add_argument("--max-order", type=int, default=FitConfig.max_order_cap,
                     help="hard cap on tree depth (default %(default)s)")
    sub.add_argument("--bonferroni", action="store_true",
                     help="divide gamma by the number of tests in each pass")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlmcx",
        description="Variable-length Markov chains with exogenous covariates",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="estimate a context tree from CSV data")
    p_fit.add_argument("--data", required=True, help="input CSV file")
    p_fit.add_argument("--ingest", required=True, help="ingest spec JSON")
    p_fit.add_argument("--out", help="write the fitted model JSON here")
    p_fit.add_argument("--report", help="write the full fit report JSON here")
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = subs.add_parser("simulate", help="simulate a model to CSV")
    p_sim.add_argument("--model", required=True,
                       help=f"model JSON path or one of {', '.join(BUILTIN_MODELS)}")
    p_sim.add_argument("--n", type=int, required=True, help="observations to keep")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=int, default=1000)
    p_sim.add_argument("--out", required=True, help="output CSV file")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = subs.add_parser("evaluate", help="Monte-Carlo recovery study")
    p_eval.add_argument("--model", required=True,
                        help=f"model JSON path or one of {', '.join(BUILTIN_MODELS)}")
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--runs", type=int, required=True)
    p_eval.add_argument("--seed", type=int, default=0, help="base seed; run i adds i")
    p_eval.add_argument("--burn-in", type=int, default=1000)
    p_eval.add_argument("--out", help="write the summary JSON here")
    _add_fit_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = subs.add_parser("predict", help="next-state distribution for a history")
    p_pred.add_argument("--model", required=True,
                        help=f"model JSON path or one of {', '.join(BUILTIN_MODELS)}")
    p_pred.add_argument("--history", required=True,
                        help="comma-separated states, oldest first")
    p_pred.add_argument("--covariates", default=None,
                        help="rows oldest first, ';' between rows, ',' within; "
                             "defaults to zeros")
    p_pred.set_defaults(func=cmd_predict)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
