"""Command-line front end.

Subcommands: expand, verify, search, validate, bmv-check.  Exit codes:
0 success, 1 a verification or trial failed, the eigensolver did not
converge or a numeric result was not finite, 2 usage or malformed
input, 3 exact infeasibility proven, 4 search exhausted without an
answer.  Every run is deterministic given its flags: the seed comes
from ``--seed`` alone, defaults to 0 and must lie in [0, 2**64).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional, Sequence

from .certificate import (
    load_ansatz,
    load_certificate,
    save_certificate,
    verify_certificate,
    verify_report_to_json,
)
from .numeric import ConvergenceError, _check_seed
from .search import (
    SearchOptions,
    SearchOutcome,
    SearchStatus,
    UnreachableTargetError,
    feasibility_search,
    outcome_to_json,
)
from .validation import (
    CoefficientRow,
    TrialConfig,
    bmv_check_trials,
    trial_pair,
    validate_certificate_trials,
)
from .words import check_positive_int, hurwitz_expand

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNKNOWN = 4


class _UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"--dims must be comma-separated integers, got {text!r}")
    if not dims:
        raise _UsageError(f"--dims must name at least one dimension, got {text!r}")
    for dim in dims:
        check_positive_int(dim, "--dims entry")
    return dims


def _emit(doc: dict, lines: List[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_expand(args: argparse.Namespace) -> int:
    poly = hurwitz_expand(args.p, args.r)
    doc = {str(cls): int(value.re) for cls, value in poly.items()}
    lines = [f"{cls} {value}" for cls, value in poly.items()]
    _emit(doc, lines, args.format)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cert = load_certificate(args.cert)
    report = verify_certificate(cert)
    doc = {"path": args.cert, "p": cert.p, "r": cert.r}
    doc.update(verify_report_to_json(report))
    lines = [
        f"certificate {args.cert} (p={cert.p}, r={cert.r})",
        f"matched: {str(report.matched).lower()}",
        f"psd: {str(report.psd).lower()}",
    ]
    if not report.matched:
        lines.append("residual (expansion minus target):")
        for cls, value in report.residual.items():
            lines.append(f"  {cls} {value}")
    if not report.psd:
        vec = ", ".join(str(x) for x in report.witness)
        lines.append(f"negative witness in block {report.witness_block}: ({vec})")
    lines.append("ok" if report.ok else "FAILED")
    _emit(doc, lines, args.format)
    return EXIT_OK if report.ok else EXIT_FAIL


def _check_cert_path(path: str) -> None:
    """Reject a --cert path that cannot be written, before any search runs."""
    if not path:
        raise _UsageError("--cert must be a nonempty path")
    if os.path.isdir(path):
        raise _UsageError(f"--cert {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(f"--cert {path}: directory {parent} does not exist")


_SEARCH_EXIT = {
    SearchStatus.CERTIFICATE: EXIT_OK,
    SearchStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SearchStatus.UNKNOWN: EXIT_UNKNOWN,
}


def cmd_search(args: argparse.Namespace) -> int:
    hint_p, hint_r, blocks = load_ansatz(args.ansatz)
    p = args.p if args.p is not None else hint_p
    r = args.r if args.r is not None else hint_r
    if p is None or r is None:
        raise _UsageError("search needs -p and -r (flags or ansatz file keys)")
    if (hint_p is not None and hint_p != p) or (hint_r is not None and hint_r != r):
        raise _UsageError(
            f"ansatz file says (p={hint_p}, r={hint_r}), flags say (p={p}, r={r})"
        )
    _check_seed(args.seed, "--seed")
    check_positive_int(args.max_iter, "--max-iter")
    options = SearchOptions(seed=args.seed, max_iters=args.max_iter)
    if args.cert is not None:
        _check_cert_path(args.cert)
    try:
        outcome = feasibility_search(p, r, blocks, options)
    except UnreachableTargetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        outcome = SearchOutcome(SearchStatus.INFEASIBLE, 0)
        doc = {**outcome_to_json(outcome), "missing": [str(c) for c in exc.missing]}
        lines: List[str] = []
    else:
        doc = outcome_to_json(outcome)
        lines = [
            f"status: {outcome.status.value}",
            f"iterations: {outcome.iterations}",
            f"rounding: {outcome.rungs_skipped} rungs skipped by the margin, "
            f"{outcome.rungs_float_rejected} rejected by the float twin, "
            f"{outcome.rungs_exact} checked exactly",
        ]
    if outcome.certificate is not None:
        for idx, (block, gram) in enumerate(outcome.certificate.blocks):
            shape = f"{block.prefix or ''}|{','.join(block.basis)}|{block.suffix or ''}"
            lines.append(f"block {idx} [{shape}]:")
            for j in range(gram.dimension):
                row = "  ".join(str(gram.at(j, k)) for k in range(gram.dimension))
                lines.append(f"  {row}")
        if args.cert is not None:
            save_certificate(outcome.certificate, args.cert)
            lines.append(f"certificate written to {args.cert}")
    if outcome.witness is not None:
        vec = ", ".join(str(x) for x in outcome.witness)
        lines.append(
            f"witness (block {outcome.witness_block}): ({vec}) "
            f"with form value {outcome.witness_form}"
        )
    _emit(doc, lines, args.format)
    return _SEARCH_EXIT[outcome.status]


def _run_trials(
    args: argparse.Namespace, head: dict, tail: str, run: Callable, explain: Callable
) -> int:
    """Print the report of ``run(config)``; ``tail`` ends its summary line."""
    _check_seed(args.seed, "--seed")
    check_positive_int(args.trials, "--trials")
    config = TrialConfig(
        seed=args.seed,
        dims=_parse_dims(args.dims),
        trials=args.trials,
    )
    report = run(config)
    summary = report.summary()
    doc = {**head, "summary": summary, "rows": [row.to_json() for row in report.rows]}
    lines = [row.format_line() for row in report.rows]
    lines.append(("{passed}/{trials} trials passed, " + tail).format(**summary))
    _emit(doc, lines, args.format)
    for row in report.failures:
        print(explain(row), file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_validate(args: argparse.Namespace) -> int:
    cert = load_certificate(args.cert)
    if not verify_certificate(cert).ok:
        print(
            f"certificate {args.cert} failed exact verification; not running trials",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return _run_trials(
        args,
        head={"path": args.cert},
        tail="max diff {max_abs_diff:.3e}",
        run=lambda config: validate_certificate_trials(cert, config),
        explain=lambda row: f"FAILED trial: n={row.n} trial={row.label} "
        "(rerun with --seed as recorded)",
    )


def _candidate_line(row: CoefficientRow) -> str:
    (A,), (B,) = trial_pair(row.n, [row.trial_seed])
    candidate = {
        "p": row.p,
        "n": row.n,
        "seed": row.trial_seed,
        "coefficients": list(row.coefficients),
        "A": [[[z.real, z.imag] for z in rowv] for rowv in A],
        "B": [[[z.real, z.imag] for z in rowv] for rowv in B],
    }
    return "counterexample candidate: " + json.dumps(candidate)


def cmd_bmv_check(args: argparse.Namespace) -> int:
    return _run_trials(
        args,
        head={"p": args.p},
        tail="min coefficient {min_coefficient:.6e}",
        run=lambda config: bmv_check_trials(args.p, config),
        explain=_candidate_line,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


_SEED_HELP = "seed in [0, 2**64) (default: 0)"


def _add_trial_flags(
    parser: argparse.ArgumentParser, trials: int, trials_help: str, dims: str
) -> None:
    parser.add_argument(
        "--trials", type=int, default=trials, help=f"{trials_help} (default: {trials})"
    )
    parser.add_argument(
        "--dims", default=dims, help=f"comma-separated matrix sizes (default: {dims})"
    )
    parser.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz-sos",
        description=(
            "Expand two-letter word sums into cyclic classes, verify exact "
            "sum-of-squares certificates for them, search for new ones, and "
            "cross-check certificates numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser(
        "expand", help="expand the (p, r) word sum into cyclic classes"
    )
    p_expand.add_argument(
        "-p", "--p", dest="p", type=int, required=True, help="word length p >= 1"
    )
    p_expand.add_argument(
        "-r", "--r", dest="r", type=int, required=True, help="B count r, 0 <= r <= p"
    )
    _add_common(p_expand)
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser(
        "verify", help="verify a certificate file exactly"
    )
    p_verify.add_argument("--cert", required=True, help="certificate JSON path")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser(
        "search", help="search for a Gram certificate over an ansatz"
    )
    p_search.add_argument(
        "-p", "--p", dest="p", type=int, help="word length (default: the ansatz's p)"
    )
    p_search.add_argument(
        "-r", "--r", dest="r", type=int, help="number of B's (default: the ansatz's r)"
    )
    p_search.add_argument("--ansatz", required=True, help="ansatz JSON path")
    p_search.add_argument(
        "--cert", default=None, help="write any found certificate here"
    )
    p_search.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p_search.add_argument(
        "--max-iter",
        type=int,
        default=5000,
        help="Douglas-Rachford steps (default: 5000)",
    )
    _add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_validate = sub.add_parser(
        "validate", help="cross-check a certificate numerically"
    )
    p_validate.add_argument("--cert", required=True, help="certificate JSON path")
    _add_trial_flags(p_validate, 100, "random trials per dimension", "1,2,3,4,5,6")
    p_validate.set_defaults(func=cmd_validate)

    p_bmv = sub.add_parser(
        "bmv-check", help="sample PSD pairs and test coefficient nonnegativity"
    )
    p_bmv.add_argument(
        "-p",
        "--p",
        dest="p",
        type=int,
        required=True,
        help="word length p: test the p + 1 coefficients of Tr (A + tB)^p",
    )
    _add_trial_flags(p_bmv, 500, "random trials in total, cycled over --dims", "2,3,4")
    p_bmv.set_defaults(func=cmd_bmv_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    # the certificate and ansatz errors are ValueErrors
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
