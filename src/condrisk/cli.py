"""Command-line front-end.

Subcommands: analyze (dataset report), coverage (exact coverage grid),
compare (population ratio sweep), oracle (Monte-Carlo check).  Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical-domain
error.  Every run is deterministic given its flags, so rerunning a
command overwrites byte-identical outputs.
"""

import argparse
import os
import sys

# condrisk makes no BLAS call, so NumPy need not start an OpenBLAS thread
# pool; set before the first submodule imports NumPy.  A value the user
# set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._version import __version__
from ._run import MARGIN_MODELS
from .errors import DegenerateTableError, DomainError, ParseError

# Each command imports its own modules in its handler, so a process loads
# only what it runs: `--version` and `compare` load no NumPy, and no
# command loads another's modules.  MARGIN_MODELS comes from _run, which
# imports nothing heavy; compare's default axes stay in
# compare.compare_grid, which gets only the axes given.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _pairs_spec(text: str):
    """Parse a visit-pair list like '2:1,3:2,4:3'."""
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        j_text, sep, k_text = token.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"pair {token!r} must look like j:k (e.g. 2:1)"
            )
        try:
            pairs.append((int(j_text), int(k_text)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"pair {token!r} must contain integers"
            ) from None
    if not pairs:
        raise argparse.ArgumentTypeError("empty pair list")
    return tuple(pairs)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condrisk", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"condrisk {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="analyze a longitudinal dataset")
    p.add_argument("--input", required=True, help="dataset CSV path")
    p.add_argument("--exposed-value", required=True,
                   help="exposure-column value coded as exposed")
    p.add_argument("--long", action="store_true",
                   help="input is long format (id,exposure,visit,y)")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.add_argument("--pairs", type=_pairs_spec, default=None,
                   help="visit pairs as j:k list, e.g. 2:1,3:2 (default: consecutive)")
    p.add_argument("--paper-literal-rho", action="store_true",
                   help="use the published (uncorrected) non-exposed correlation denominator")
    p.add_argument("--out", required=True, help="output directory for report files")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("coverage", help="exact CI coverage over a scenario grid")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid", help="grid description file")
    src.add_argument("--paper-grid", action="store_true",
                     help="use the default 2025-scenario study grid")
    p.add_argument("--stratum", type=int, choices=(0, 1), default=None,
                   help="conditioning stratum (overrides grid file; default 1)")
    p.add_argument("--level", type=float, default=None,
                   help="confidence level (overrides grid file; default 0.95)")
    p.add_argument("--prune", type=float, default=None,
                   help="tail-pruning epsilon (overrides grid file; default 1e-12)")
    p.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                   help="worker processes: at most N, 1 + (kernel rows and columns)/1.6e6, "
                        "the CPUs and the batches of points (output independent of this)")
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("compare", help="population crude-vs-conditional ratio sweep")
    p.add_argument("--pi-e", type=float, nargs="+",
                   help="exposed marginal probabilities")
    p.add_argument("--pi-ne", type=float, nargs="+",
                   help="non-exposed marginal probabilities")
    p.add_argument("--rho-e", type=float, nargs="+",
                   help="exposed within-subject correlations")
    p.add_argument("--rho-ne", type=float, nargs="+",
                   help="non-exposed within-subject correlations")
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", help="Monte-Carlo coverage estimate for one scenario")
    p.add_argument("--n-e", type=_positive_int, required=True, help="exposed margin")
    p.add_argument("--n-ne", type=_positive_int, required=True, help="non-exposed margin")
    p.add_argument("--pi-e", type=float, required=True, help="exposed marginal probability")
    p.add_argument("--pi-ne", type=float, required=True, help="non-exposed marginal probability")
    p.add_argument("--rho-e", type=float, required=True, help="exposed correlation")
    p.add_argument("--rho-ne", type=float, required=True, help="non-exposed correlation")
    p.add_argument("--stratum", type=int, choices=(0, 1), default=1)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--reps", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin-model", choices=MARGIN_MODELS, default="fixed_margin")
    p.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                   help="worker processes: at most N, 1 + (binomial draws)/2^21, the CPUs "
                        "and the blocks of 2^14 replications (output independent of this)")
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_oracle)

    return parser


def _write_rows(writer, records, out: str, suffix: str = "") -> None:
    """Write grid records to out ('-': stdout); name the file and the flagged rows."""
    writer(records, sys.stdout if out == "-" else out)
    if out != "-":
        flagged = sum(1 for r in records if r.error is not None)
        note = f" ({flagged} flagged inadmissible)" if flagged else ""
        sys.stdout.write(f"wrote {len(records)} rows to {out}{note}{suffix}\n")


def _cmd_analyze(args) -> int:
    from . import ingest

    parse = ingest.parse_long_dataset if args.long else ingest.parse_dataset
    dataset = parse(args.input, args.exposed_value)
    report = ingest.analyze(
        dataset, pairs=args.pairs, level=args.level,
        paper_literal_rho=args.paper_literal_rho,
    )
    paths = ingest.write_report_files(report, args.out)
    sys.stdout.write(ingest.format_report(report))
    sys.stdout.write(
        f"\nwrote {paths['report']}, {paths['risks']}, {paths['measures']}\n"
    )
    return EXIT_OK


def _cmd_coverage(args) -> int:
    from dataclasses import replace

    from . import coverage as coverage_mod

    if args.paper_grid:
        grid = coverage_mod.paper_grid()
    else:
        grid = coverage_mod.parse_grid_file(args.grid)
    given = {"stratum": args.stratum, "level": args.level, "prune_epsilon": args.prune}
    grid = replace(grid, **{name: value for name, value in given.items() if value is not None})
    records = coverage_mod.run_grid(grid, threads=args.threads, log=sys.stderr)
    _write_rows(coverage_mod.write_coverage_csv, records, args.out, " [numpy kernel]")
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import compare as compare_mod

    given = {"pi_e_axis": args.pi_e, "pi_ne_axis": args.pi_ne,
             "rho_e_axis": args.rho_e, "rho_ne_axis": args.rho_ne}
    records = compare_mod.compare_grid(
        **{name: tuple(axis) for name, axis in given.items() if axis is not None}
    )
    _write_rows(compare_mod.write_compare_csv, records, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from . import mc

    record = mc.oracle_record(
        n_e=args.n_e, n_ne=args.n_ne,
        pi_e=args.pi_e, pi_ne=args.pi_ne,
        rho_e=args.rho_e, rho_ne=args.rho_ne,
        stratum=args.stratum, level=args.level,
        margin_model=args.margin_model,
        reps=args.reps, seed=args.seed, threads=args.threads, log=sys.stderr,
    )
    mc.write_oracle_csv([record], sys.stdout if args.out == "-" else args.out)
    if args.out != "-":
        sys.stdout.write(
            f"estimate {record.estimate:.6f} +- {record.std_error:.6f} "
            f"-> {args.out}\n"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DegenerateTableError) as exc:
        sys.stderr.write(f"condrisk: data error: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"condrisk: data error: {exc}\n")
        return EXIT_DATA
    except DomainError as exc:
        sys.stderr.write(f"condrisk: domain error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
