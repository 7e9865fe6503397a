"""Command-line front end: run, validate, sweep, report.

A scenario argument is either a path to a YAML file or the name of a shipped
scenario (``merge``, ``partition``).  Runs print one summary line per seed;
with ``--out`` they also write one ndjson log per run plus a ``results.csv``
holding the summary rows, which ``report`` aggregates.
"""
from __future__ import annotations

import argparse
import copy
import csv
import itertools
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Any

from .metrics import SUMMARY_COLUMNS, SummaryRow
from .scenario import ScenarioError, apply_overrides, parse_yaml, read_text, scenario_from_mapping
from .simulation import RunResult, run_scenario


def _builtin_names() -> list[str]:
    base = resources.files("meshsdn").joinpath("scenarios")
    return sorted(p.name[: -len(".yaml")] for p in base.iterdir() if p.name.endswith(".yaml"))


def _load_doc(ref: str) -> tuple[Any, str]:
    path = Path(ref)
    if path.is_file():
        source = str(path)
    else:
        path = resources.files("meshsdn").joinpath("scenarios", f"{ref}.yaml")
        if not path.is_file():
            raise ScenarioError(
                f"{ref}: no such file or built-in scenario"
                f" (built-ins: {', '.join(_builtin_names())})"
            )
        source = f"builtin:{ref}"
    return parse_yaml(read_text(path, source), source), source


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--param {pair!r}: expected KEY=VALUE")
        out[key] = parse_yaml(raw, f"--param {key}")
    return out


def _parse_seeds(args: argparse.Namespace) -> list[int]:
    if args.seed is not None and args.seeds is not None:
        raise ScenarioError("--seed and --seeds are mutually exclusive")
    if args.seed is not None:
        return [args.seed]
    if args.seeds is None:
        return [0]
    lo, sep, hi = args.seeds.partition(":")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ScenarioError(f"--seeds {args.seeds!r}: expected A:B") from None
    if not sep or stop <= start:
        raise ScenarioError(f"--seeds {args.seeds!r}: need A < B")
    return list(range(start, stop))


def _describe(summary: SummaryRow) -> str:
    cells = summary.as_csv_values()
    parts = [f"{col}={cell or '-'}" for col, cell in zip(SUMMARY_COLUMNS[2:], cells[2:])]
    return f"{summary.scenario} seed={summary.seed}: " + " ".join(parts)


# Escapes that keep a scenario name to one path component in a log's file
# name; escaping "%" as well keeps distinct names apart.
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\\": "%5C", "\0": "%00"})


def _log_name(summary: SummaryRow) -> str:
    """``<scenario>-seed<seed>.ndjson``, with any path separator in the name
    (a swept prefix such as ``10.0.255.0/24``, say) escaped."""
    return f"{summary.scenario.translate(_FILE_NAME_ESCAPES)}-seed{summary.seed}.ndjson"


def _out_dir(out: str | None) -> Path | None:
    """The ``--out`` directory, created before any seed runs."""
    if out is None:
        return None
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {out}: {exc.strerror or exc}") from None
    return path


def _write_outputs(out_dir: Path | None, results: list[RunResult]) -> None:
    if out_dir is None:
        return
    rows = [",".join(SUMMARY_COLUMNS), *(result.summary.as_csv_line() for result in results)]
    try:
        for result in results:
            (out_dir / _log_name(result.summary)).write_text(result.log.to_ndjson())
        (out_dir / "results.csv").write_text("\n".join(rows) + "\n")
    except OSError as exc:
        raise ScenarioError(f"{exc.filename or out_dir}: {exc.strerror or exc}") from None


def _run_series(doc: Any, source: str, overrides: dict[str, Any], seeds: list[int]) -> list[RunResult]:
    scenario = scenario_from_mapping(apply_overrides(doc, overrides), source=source)
    results = []
    for seed in seeds:
        result = run_scenario(scenario, seed)
        print(_describe(result.summary))
        results.append(result)
    return results


def cmd_run(args: argparse.Namespace) -> int:
    doc, source = _load_doc(args.scenario)
    overrides, seeds = _parse_params(args.param), _parse_seeds(args)
    out_dir = _out_dir(args.out)
    _write_outputs(out_dir, _run_series(doc, source, overrides, seeds))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    doc, source = _load_doc(args.scenario)
    s = scenario_from_mapping(doc, source=source)
    print(
        f"ok: {s.name} ({len(s.wmrs)} wmrs, {len(s.controllers)} controllers,"
        f" {len(s.hosts)} hosts, {len(s.links)} mesh links, {s.duration_s}s)"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    doc, source = _load_doc(args.scenario)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: expected a mapping")
    seeds = _parse_seeds(args)
    axes: list[tuple[str, list[Any]]] = []
    for pair in args.param:
        key, sep, raw = pair.partition("=")
        # The values are one YAML flow sequence, so a value may be a list.
        values = parse_yaml(f"[{raw}]", f"--param {key}") if sep and key else None
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"--param {pair!r}: expected KEY=V1,V2,...")
        axes.append((key, values))
    out_dir = _out_dir(args.out)
    base_name = str(doc.get("name", "scenario"))
    results: list[RunResult] = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides: dict[str, Any] = dict(zip((k for k, _ in axes), combo))
        label = ",".join(f"{k}={v}" for k, v in overrides.items())
        overrides["name"] = f"{base_name}[{label}]"
        # Each combination gets a pristine copy of the document.
        fresh = copy.deepcopy(doc)
        results.extend(_run_series(fresh, source, overrides, seeds))
    _write_outputs(out_dir, results)
    return 0


def _read_results(csv_path: Path) -> dict[str, dict[str, list[float]]]:
    """The metric values of a results.csv, by scenario and then by column.

    A file that is not such a table raises :class:`ScenarioError` naming it.
    """
    metrics = SUMMARY_COLUMNS[2:]
    by_scenario: dict[str, dict[str, list[float]]] = {}
    try:
        with csv_path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ScenarioError(f"{csv_path}: empty")
            for column in ("scenario", *metrics):
                if column not in reader.fieldnames:
                    raise ScenarioError(f"{csv_path}: no {column!r} column")
            for row in reader:
                name = row["scenario"]
                if name is None:
                    raise ScenarioError(f"{csv_path}: line {reader.line_num}: too few cells")
                group = by_scenario.setdefault(name, {column: [] for column in metrics})
                for column in metrics:
                    cell = row[column]
                    if not cell:
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise ScenarioError(
                            f"{csv_path}: line {reader.line_num}: {column}:"
                            f" expected a number, got {cell!r}"
                        )
                    group[column].append(value)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{csv_path}: not a CSV file: {exc}") from None
    if not by_scenario:
        raise ScenarioError(f"{csv_path}: empty")
    return by_scenario


def cmd_report(args: argparse.Namespace) -> int:
    csv_path = Path(args.out_dir) / "results.csv"
    if not csv_path.is_file():
        raise ScenarioError(f"{csv_path}: no results.csv here (run with --out first)")
    by_scenario = _read_results(csv_path)
    print(f"{'scenario':<30} {'metric':<22} {'runs':>4} {'mean':>10} {'min':>10} {'max':>10}")
    for name in sorted(by_scenario):
        for column, values in by_scenario[name].items():
            if not values:
                continue
            mean = sum(values) / len(values)
            print(
                f"{name:<30} {column:<22} {len(values):>4}"
                f" {mean:>10.3f} {min(values):>10.3f} {max(values):>10.3f}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meshsdn",
        description="Deterministic simulator for hybrid SDN over wireless mesh networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario for one or more seeds")
    run_p.add_argument("scenario", help="YAML path or built-in scenario name")
    run_p.add_argument("--seed", type=int, default=None, help="single seed (default 0)")
    run_p.add_argument("--seeds", default=None, metavar="A:B", help="seed range, half-open")
    run_p.add_argument("--out", default=None, help="write ndjson logs and results.csv here")
    run_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario value with a dotted key, e.g. eftm.poll_period_s=2",
    )

    val_p = sub.add_parser("validate", help="load and validate a scenario, run nothing")
    val_p.add_argument("scenario")

    sweep_p = sub.add_parser("sweep", help="run the cartesian product of --param value lists")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument(
        "--param", action="append", required=True, metavar="KEY=V1,V2,..."
    )
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--seeds", default=None, metavar="A:B")
    sweep_p.add_argument("--out", default=None)

    rep_p = sub.add_parser("report", help="aggregate a results.csv written by run --out")
    rep_p.add_argument("out_dir")

    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "validate": cmd_validate,
        "sweep": cmd_sweep,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
