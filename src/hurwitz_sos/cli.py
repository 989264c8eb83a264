"""Command-line front end.

Subcommands: expand, verify, search, validate, bmv-check.  Exit codes:
0 success, 1 a verification or trial failed, the eigensolver did not
converge, a numeric result was not finite, the run ran out of memory or
stdout was closed (with nothing on stderr), 2 usage or malformed input,
3 exact infeasibility proven, 4 search exhausted without an answer.
Every run is deterministic given its flags: the seed comes from
``--seed`` alone, defaults to 0 and must lie in [0, 2**64).

Each handler builds the JSON document it prints beside its text lines,
from the same result; the library writes no command's output, and
the exact layer's only JSON is the certificate file format.

The module imports only the exact layer and ``options``, none of which
imports numpy, so expand and verify never load it.  The handlers of
search, validate and bmv-check import ``search`` or ``validation``, and
with it numpy, when they run.  A ``ConvergenceError`` is an
``ArithmeticError``, so one clause maps every numeric failure to exit
code 1 without naming the numeric module.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .certificate import (
    Certificate,
    VerifyReport,
    certificate_to_json,
    load_ansatz,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .options import SearchOptions, TrialConfig, _check_dimension, _check_seed
from .rational import rational_quad
from .words import check_positive_int, hurwitz_expand

if TYPE_CHECKING:
    from .validation import CoefficientRow, TrialReport

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNKNOWN = 4


class _UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple:
    """The --dims entries: each, with its spaces stripped, an optional minus
    sign and ASCII digits, then a positive int whose matrix numpy can index."""
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise _UsageError(f"--dims must name at least one dimension, got {text!r}")
    malformed = f"--dims must be comma-separated integers, got {text!r}"
    if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
        raise _UsageError(malformed)
    try:
        dims = tuple(map(int, parts))
    except ValueError:  # an entry past int()'s digit limit
        raise _UsageError(malformed) from None
    for dim in dims:
        _check_dimension(dim, "--dims entry")
    return dims


def _emit(doc: dict, lines: Iterable[str], fmt: str) -> None:
    """Print ``doc`` as JSON, or ``lines`` (which may be lazy) as text.

    Both hold the command's own exact results, not parsed input, so
    Python's digit limit for int -> str (3.10.7 on) is lifted while they
    are written: an exact pivot or residual can pass it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def cmd_expand(args: argparse.Namespace) -> int:
    poly = hurwitz_expand(args.p, args.r)
    doc = {str(cls): int(value.re) for cls, value in poly.items()}
    lines = [f"{cls} {value}" for cls, value in poly.items()]
    _emit(doc, lines, args.format)
    return EXIT_OK


def _verify_lines(path: str, cert: Certificate, report: VerifyReport) -> Iterator[str]:
    """The text report, spelled as ``_emit`` writes it."""
    yield f"certificate {path} (p={cert.p}, r={cert.r})"
    yield f"matched: {str(report.matched).lower()}"
    yield f"psd: {str(report.psd).lower()}"
    if not report.matched:
        yield "residual (expansion minus target):"
        for cls, value in report.residual.items():
            yield f"  {cls} {value}"
    if not report.psd:
        vec = ", ".join(str(x) for x in report.witness)
        yield f"negative witness in block {report.witness_block}: ({vec})"
    yield "ok" if report.ok else "FAILED"


def cmd_verify(args: argparse.Namespace) -> int:
    cert = load_certificate(args.cert)
    report = verify_certificate(cert)
    doc = {
        "path": args.cert,
        "p": cert.p,
        "r": cert.r,
        "matched": report.matched,
        "psd": report.psd,
        "ok": report.ok,
        "residual": {str(cls): rational_quad(v) for cls, v in report.residual.items()},
        "witness_block": report.witness_block,
        "witness": None if report.witness is None
        else [rational_quad(x) for x in report.witness],
        "min_pivots": [None if x is None else [x.numerator, x.denominator]
                       for x in report.min_pivots],
    }
    _emit(doc, _verify_lines(args.cert, cert, report), args.format)
    return EXIT_OK if report.ok else EXIT_FAIL


def _check_cert_path(path: str) -> None:
    """Reject a --cert path that cannot be written, before any search runs."""
    if not path:
        raise _UsageError("--cert must be a nonempty path")
    if os.path.exists(path) and not os.path.isfile(path):
        raise _UsageError(f"--cert {path} is not a regular file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(f"--cert {path}: directory {parent} does not exist")


def cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchStatus, feasibility_search

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
    outcome = feasibility_search(p, r, blocks, options)
    doc = {
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "certificate": None,
        "witness": None,
        "rounding": {
            "skipped": outcome.rungs_skipped,
            "float_rejected": outcome.rungs_float_rejected,
            "exact": outcome.rungs_exact,
        },
    }
    lines = [
        f"status: {outcome.status.value}",
        f"iterations: {outcome.iterations}",
        f"rounding: {outcome.rungs_skipped} rungs skipped by the margin, "
        f"{outcome.rungs_float_rejected} rejected by the float twin, "
        f"{outcome.rungs_exact} checked exactly",
    ]
    if outcome.missing:
        doc["missing"] = [str(cls) for cls in outcome.missing]
        lines.append("missing: " + ", ".join(outcome.missing))
    if outcome.certificate is not None:
        doc["certificate"] = certificate_to_json(outcome.certificate)
        for idx, (block, gram) in enumerate(outcome.certificate.blocks):
            shape = f"{block.prefix or ''}|{','.join(block.basis)}|{block.suffix or ''}"
            lines.append(f"block {idx} [{shape}]:")
            for j in range(gram.dimension):
                row = "  ".join(str(gram.at(j, k)) for k in range(gram.dimension))
                lines.append(f"  {row}")
    if outcome.witness is not None:
        doc["witness"] = {
            "block": outcome.witness_block,
            "vector": [rational_quad(x) for x in outcome.witness],
            "form": rational_quad(outcome.witness_form),
        }
        vec = ", ".join(str(x) for x in outcome.witness)
        lines.append(
            f"witness (block {outcome.witness_block}): ({vec}) "
            f"with form value {outcome.witness_form}"
        )
    # print before writing, so a failed write does not lose the certificate
    _emit(doc, lines, args.format)
    if outcome.certificate is not None and args.cert is not None:
        try:
            save_certificate(outcome.certificate, args.cert)
        except OSError as exc:
            raise _UsageError(f"--cert {args.cert}: {exc}") from exc
        if args.format == "text":
            print(f"certificate written to {args.cert}")
    return {
        SearchStatus.CERTIFICATE: EXIT_OK,
        SearchStatus.INFEASIBLE: EXIT_INFEASIBLE,
        SearchStatus.UNKNOWN: EXIT_UNKNOWN,
    }[outcome.status]


def _trial_config(args: argparse.Namespace, per_dimension: bool) -> TrialConfig:
    """The --seed, --trials and --dims of a trial command, each checked by
    name, and the seed and each --dims entry checked against the trials its
    runner draws."""
    _check_seed(args.seed, "--seed")
    check_positive_int(args.trials, "--trials")
    config = TrialConfig(seed=args.seed, dims=_parse_dims(args.dims), trials=args.trials)
    config.check_trial_seeds(per_dimension, "--dims entry")
    return config


def _run_trials(
    args: argparse.Namespace, head: dict, tail: str, report: TrialReport, explain: Callable
) -> int:
    """Print ``report``; ``tail`` ends its summary line."""
    summary = report.summary
    doc = {**head, "summary": summary, "rows": [row.to_json() for row in report.rows]}
    lines = [row.format_line() for row in report.rows]
    lines.append(("{passed}/{trials} trials passed, " + tail).format(**summary))
    _emit(doc, lines, args.format)
    for row in report.failures:
        print(explain(row), file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate_certificate_trials

    # a bad flag, or a seed too close to 2**64, exits 2 before the exact check
    config = _trial_config(args, per_dimension=True)
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
        report=validate_certificate_trials(cert, config),
        explain=lambda row: f"FAILED trial: n={row.n} trial={row.label} "
        "(rerun with --seed as recorded)",
    )


def _candidate_line(row: CoefficientRow) -> str:
    from .validation import trial_pair

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
    from .validation import bmv_check_trials

    config = _trial_config(args, per_dimension=False)
    return _run_trials(
        args,
        head={"p": args.p},
        tail="min coefficient {min_coefficient:.6e}",
        report=bmv_check_trials(args.p, config),
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
        default=SearchOptions.max_iters,
        help=f"Douglas-Rachford steps (default: {SearchOptions.max_iters})",
    )
    _add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_validate = sub.add_parser(
        "validate", help="cross-check a certificate numerically"
    )
    p_validate.add_argument("--cert", required=True, help="certificate JSON path")
    dims = ",".join(map(str, TrialConfig.dims))
    _add_trial_flags(p_validate, TrialConfig.trials, "random trials per dimension", dims)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader is gone: drop the rest of stdout quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ArithmeticError as exc:  # ConvergenceError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: the run ran out of memory{detail}", file=sys.stderr)
        return EXIT_FAIL
    # the certificate and ansatz errors are ValueErrors
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
