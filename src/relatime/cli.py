"""Command-line front end: validate scenarios, run sweeps, emit CSV.

Subcommands mirror the runners in ``scenario``: ``validate``, ``sweep``,
``clock-recovery``, ``pearle-compare`` and ``report``. Every subcommand
takes ``--seed``; ``pearle-compare`` also takes ``--nodes`` and ``report``
``--threshold``. Output goes to stdout unless ``--out`` names a file.
Failures print a machine-parsable prefix (E_PARSE / E_VALIDATION /
E_NUMERIC) on stderr and exit 2 for parse or validation problems, 3 for
numerical ones, running out of memory included (``E_NUMERIC: out of memory``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConsistencyError,
    EigensolverError,
    QuadratureDriftError,
    RelatimeError,
    ScenarioParseError,
    ZeroProbabilityError,
)
from .evolution import DECOHERENCE_THRESHOLD
from .scenario import (
    PEARLE_NODES,
    parse_scenario,
    run_clock_recovery,
    run_decoherence_sweep,
    run_pearle_compare,
    run_report,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    QuadratureDriftError,
    EigensolverError,
    ZeroProbabilityError,
    ConsistencyError,
)

_RUNNERS = {
    "sweep": run_decoherence_sweep,
    "clock-recovery": run_clock_recovery,
    "pearle-compare": run_pearle_compare,
    "report": run_report,
}


def _subcommand(sub, name: str, help_text: str, with_out: bool = True):
    """A subparser with the file argument, ``--seed`` and (unless told
    otherwise) ``--out``; a subcommand's other options are the keyword
    parameters of its runner."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("file", help="scenario file to read")
    if with_out:
        parser.add_argument("--out", help="write CSV here instead of stdout")
    parser.add_argument(
        "--seed", type=int, default=0, help="64-bit seed for randomized presets"
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relatime",
        description="relational-time evolution sweeps over scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "validate", "parse and validate only", with_out=False)
    _subcommand(sub, "sweep", "decoherence sweep over t_B or lambda")
    _subcommand(sub, "clock-recovery", "conditional readout over the pointer grid")
    _subcommand(
        sub, "pearle-compare", "collapse dynamics vs Gaussian relational state"
    ).add_argument(
        "--nodes",
        type=int,
        default=PEARLE_NODES,
        help="Gauss-Hermite node count of the collapse engine (default %(default)s)",
    )
    _subcommand(sub, "report", "per-pair coherence report").add_argument(
        "--threshold",
        type=float,
        default=DECOHERENCE_THRESHOLD,
        help="complete-decoherence cutoff on off-diagonal magnitude "
        "(default %(default)s)",
    )
    return parser


def _fail(prefix: str, exc: Exception, code: int) -> int:
    print(f"{prefix}: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("E_VALIDATION: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return EXIT_INVALID
    if not 0 <= getattr(args, "threshold", 0.0) < float("inf"):  # NaN fails too
        print("E_VALIDATION: --threshold must be finite and >= 0", file=sys.stderr)
        return EXIT_INVALID

    options = {k: v for k, v in vars(args).items() if k in ("nodes", "threshold")}
    try:  # the file's text lives only while it is parsed
        scenario = parse_scenario(Path(args.file).read_text(encoding="utf-8"),
                                  seed=args.seed)
        if args.command != "validate":
            table = _RUNNERS[args.command](scenario, **options)
            table.check()  # before --out is opened: a failing table leaves no file
    except ScenarioParseError as exc:
        return _fail("E_PARSE", exc, EXIT_INVALID)
    except _NUMERIC_ERRORS as exc:  # the parse reports its own as validation issues
        return _fail("E_NUMERIC", exc, EXIT_NUMERIC)
    except (RelatimeError, ValueError, OSError) as exc:  # a bad file too
        return _fail("E_VALIDATION", exc, EXIT_INVALID)
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        return _fail("E_NUMERIC: out of memory", exc, EXIT_NUMERIC)

    if args.command == "validate":
        clock = "none"
        if scenario.clock is not None:
            clock = f"{scenario.clock.dim} x {scenario.clock.tick}"
        print(
            f"OK: dimension {scenario.dimension}, kernel "
            f"{scenario.kernel_spec.kind}, clock {clock}, "
            f"sha256 {scenario.digest()}"
        )
        return EXIT_OK

    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            table.write_csv(out)
    else:
        table.write_csv(sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
