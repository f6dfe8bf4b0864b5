"""Command-line interface.

Four subcommands: ``price`` one configuration, ``sweep`` it over monitoring
frequencies, ``table`` to reproduce a published reference table with golden
checks, and ``fit`` to estimate a convergence rate from a sweep CSV.
Outputs are UTF-8 CSV with a header and LF line ends (JSON with
``--format json``); the ``table`` subcommand prints its comparison report
as text by default.  Every output ends with a line end, and ``--output``
writes to its file the same bytes that stdout would get.

Exit codes: 0 success, 1 validation or usage error, 2 golden-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator, TextIO

from .estimators import _usable_cpus
from .estimators import price as price_option
from .harness import (
    SweepSpec,
    _config_label,
    csv_writer,
    fit_from_csv,
    report_rows,
    reproduce_table,
    run_sweep,
)
from .model import load_config

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for golden failures only.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ModelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgebound",
        description="Monte Carlo pricing of continuously monitored barrier options",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cpus = _usable_cpus()

    p = sub.add_parser("price", help="price one configuration")
    p.add_argument("config", help="shipped config name or JSON path")
    p.add_argument("--paths", type=int, default=100_000, help="number of Monte Carlo paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05, help="confidence interval level")
    _workers_arg(p, cpus)
    _output_args(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("sweep", help="price over a list of monitoring frequencies")
    p.add_argument("config")
    p.add_argument("--m", required=True, help="comma-separated step counts, e.g. 1,2,4,16")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _workers_arg(p, cpus)
    _output_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="reproduce a published table and check it")
    p.add_argument("table_id", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--paths", type=int, default=None, help="override published path counts")
    p.add_argument("--seed", type=int, default=0)
    _workers_arg(p, cpus)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fit", help="fit a convergence rate from a sweep CSV")
    p.add_argument("csv_path")
    p.add_argument("--kind", required=True, choices=("exp", "power"))
    _output_args(p)
    p.set_defaults(func=_cmd_fit)

    return parser


def _workers_arg(p: argparse.ArgumentParser, cpus: int) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=cpus,
        help="threads that price the chunks (default: %(default)s, the CPUs this process "
        "may use); the results are the same at any count",
    )


def _output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")


@contextmanager
def _sink(output: str | None) -> Iterator[TextIO]:
    """stdout, or the file ``output`` opened as UTF-8 with LF line ends."""
    if output is None:
        yield sys.stdout
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(text: str, output: str | None) -> None:
    with _sink(output) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def _cmd_price(args: argparse.Namespace) -> int:
    model, option = load_config(args.config)
    report = price_option(
        model,
        option,
        args.paths,
        seed=args.seed,
        alpha=args.alpha,
        workers=args.workers,
    )
    label = _config_label(args.config)
    m = model.grid.n_steps
    if args.format == "json":
        payload = {"config": label, "m": m}
        payload.update(report.to_dict())
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        with _sink(args.output) as out:
            csv_writer(out).writerows(report_rows(label, m, report))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        m_values = tuple(int(part) for part in args.m.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--m must be comma-separated integers, got {args.m!r}")
    spec = SweepSpec(config=args.config, m_values=m_values, n_paths=args.paths, seed=args.seed)
    if args.format == "csv":
        # Rows stream out as each M finishes.
        with _sink(args.output) as out:
            run_sweep(spec, workers=args.workers, out=out)
        return 0
    reports = run_sweep(spec, workers=args.workers)
    payload = {
        "config": _config_label(args.config),
        "n_paths": args.paths,
        "seed": args.seed,
        "results": [{"m": m, **reports[m].to_dict()} for m in sorted(reports)],
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    report = reproduce_table(
        args.table_id, n_paths=args.paths, seed=args.seed, workers=args.workers
    )
    if args.format == "json":
        payload = {
            "table": report.table_id,
            "ok": report.ok,
            "checks": [asdict(c) for c in report.checks],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(report.format(), args.output)
    return 0 if report.ok else 2


def _cmd_fit(args: argparse.Namespace) -> int:
    kind = "exponential" if args.kind == "exp" else "power"
    fit = fit_from_csv(args.csv_path, kind)
    if args.format == "json":
        _emit(json.dumps(asdict(fit), indent=2), args.output)
    else:
        with _sink(args.output) as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(("model_kind", "slope", "intercept", "r_squared", "m_used"))
            writer.writerow(
                (
                    fit.model_kind,
                    repr(fit.slope),
                    repr(fit.intercept),
                    repr(fit.r_squared),
                    ";".join(str(m) for m in fit.m_used),
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
