"""The four benchmark workloads: seeded inputs, one public call per unit, oracles.

Each workload is a closed loop with one caller.  ``load`` reads what a
CLI user would load before the first call (bundled certificates and
ansatzes) and ``cycle`` yields one fixed-size round of calls whose
inputs come from the benchmark's own ``random.Random``; the program only
ever sees the generated inputs.  Calls look up the public function on
the ``hurwitz_sos`` package at call time, so the tracer's wrappers are
seen.  Every call has an oracle that runs outside the timed region and
raises ``OracleFailure`` when the result is wrong.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

import hurwitz_sos as hs


class OracleFailure(Exception):
    """A call returned a result its oracle rejects."""


@dataclass(frozen=True)
class Call:
    """One public call and the oracle for its result.

    ``check`` returns ``(units, flag)``: the workload units the call
    completed and an optional note for a result that passes but is not
    the expected one.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[int, Optional[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    load: Callable[[], object]
    cycle: Callable[[object, random.Random], Iterator[Call]]
    # Nearest-rank percentile used for call_tail_ms: the highest one with at
    # least ten calls beyond it at the call count a 20 s run reaches on the
    # 2-CPU reference machine, placed inside one call type's latency band.
    tail_pct: float
    # Cycles in one pass of a traced run; fixed so that counts repeat exactly.
    trace_cycles: int
    expected_spans: Tuple[str, ...]
    absent_prefixes: Tuple[str, ...] = ()


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * (1.0 + abs(expected))


def words_with(length: int, b_count: int) -> Tuple[str, ...]:
    """All words of ``length`` letters with ``b_count`` B's, in placement order."""
    return tuple(
        "".join("B" if i in pos else "A" for i in range(length))
        for pos in itertools.combinations(range(length), b_count)
    )


# ------------------------------------------------------------------
# crossval-p7: certificate cross-validation, what `validate` runs
# ------------------------------------------------------------------

CROSSVAL_TRIALS = 18  # random trials per call; with scalar + identity, 20 rows
CROSSVAL_TOL = 1e-8


def load_crossval():
    certs = [hs.load_certificate(hs.bundled_path(f"p7r{r}.json")) for r in range(4)]
    return certs + [hs.swap_certificate(c) for c in certs]


def check_crossval(cert, n: int, report) -> Tuple[int, Optional[str]]:
    rows = report.rows
    if len(rows) != CROSSVAL_TRIALS + 2:
        raise OracleFailure(f"expected {CROSSVAL_TRIALS + 2} rows, got {len(rows)}")
    p, r = cert.p, cert.r
    pinned = {
        "scalar(2,3)": comb(p, r) * 2 ** (p - r) * 3**r,
        "identity": comb(p, r) * n,
    }
    for row in rows:
        if not row.passed:
            raise OracleFailure(f"row {row.label} n={row.n} failed: diff {row.abs_diff:.3e}")
        expected = pinned.get(row.label)
        if expected is not None and not (
            _close(row.oracle, expected, CROSSVAL_TOL)
            and _close(row.value, expected, CROSSVAL_TOL)
        ):
            raise OracleFailure(
                f"row {row.label}: oracle {row.oracle} sos {row.value}, expected {expected}"
            )
    return len(rows), None


def crossval_cycle(certs, rng: random.Random) -> Iterator[Call]:
    pairs = [(cert, n) for cert in certs for n in range(1, 7)]
    rng.shuffle(pairs)
    for cert, n in pairs:
        config = hs.TrialConfig(
            seed=rng.getrandbits(32), dims=(n,), trials=CROSSVAL_TRIALS, tol_rel=CROSSVAL_TOL
        )
        yield Call(
            f"validate p7r{cert.r} n={n}",
            lambda cert=cert, config=config: hs.validate_certificate_trials(cert, config),
            lambda report, cert=cert, n=n: check_crossval(cert, n, report),
        )


# ------------------------------------------------------------------
# bmv-scan: coefficient nonnegativity sampling, what `bmv-check` runs
# ------------------------------------------------------------------

# (p, trials) per call.  The p = 7 calls carry ten trials per dimension so
# batching by dimension can show; two of them per p = 10 call keep the
# median inside one latency band.
BMV_CALLS = ((7, 30), (7, 30), (10, 3))
BMV_DIMS = (2, 3, 4)


def check_bmv(p: int, trials: int, report) -> Tuple[int, Optional[str]]:
    rows = report.rows
    if len(rows) != trials:
        raise OracleFailure(f"expected {trials} rows, got {len(rows)}")
    for row in rows:
        if len(row.coefficients) != p + 1 or not row.passed:
            raise OracleFailure(f"p={p} seed={row.trial_seed}: bad coefficient row")
        A = hs.random_psd(row.n, hs.derive_seed(row.trial_seed, 0))
        B = hs.random_psd(row.n, hs.derive_seed(row.trial_seed, 1))
        expected = float(np.trace(np.linalg.matrix_power(A + B, p)).real)
        total = float(sum(row.coefficients))
        scale = float(sum(abs(c) for c in row.coefficients))
        if abs(total - expected) > 1e-9 * (1.0 + scale):
            raise OracleFailure(
                f"p={p} seed={row.trial_seed}: coefficients sum to {total}, "
                f"Tr((A+B)^p) = {expected}"
            )
    return len(rows), None


def bmv_cycle(_inputs, rng: random.Random) -> Iterator[Call]:
    for p, trials in BMV_CALLS:
        config = hs.TrialConfig(seed=rng.getrandbits(32), dims=BMV_DIMS, trials=trials)
        yield Call(
            f"bmv p={p} trials={trials}",
            lambda p=p, config=config: hs.bmv_check_trials(p, config),
            lambda report, p=p, trials=trials: check_bmv(p, trials, report),
        )


# ------------------------------------------------------------------
# search-mix: feasibility searches, many small exact verifications
# ------------------------------------------------------------------

UNKNOWN_MAX_ITERS = 100
SEARCH_SEEDS_PER_CERT_JOB = 3


def load_search():
    _p, _r, p6_blocks = hs.load_ansatz(hs.bundled_path("p6r3_restricted_ansatz.json"))
    core4 = words_with(4, 1)
    return (
        # (label, p, r, blocks, expected status, runs per cycle)
        ("p6r3 a|AB,BA|b", 6, 3, p6_blocks, "infeasible", 1),
        ("p7r3 b|AAB,ABA,BAA", 7, 3,
         (hs.SandwichBlock("b", None, ("AAB", "ABA", "BAA")),),
         "certificate", SEARCH_SEEDS_PER_CERT_JOB),
        ("p10r2 |5 words, one B|", 10, 2,
         (hs.SandwichBlock(None, None, words_with(5, 1)),),
         "certificate", SEARCH_SEEDS_PER_CERT_JOB),
        ("p8r4 |6 words, two B|", 8, 4,
         (hs.SandwichBlock(None, None, words_with(4, 2)),),
         "unknown", 1),
        ("p9r3 b|4 words| + |4 words|b", 9, 3,
         (hs.SandwichBlock("b", None, core4), hs.SandwichBlock(None, "b", core4)),
         "unknown", 1),
    )


def check_search(p: int, r: int, expect: str, outcome) -> Tuple[int, Optional[str]]:
    status = outcome.status.value
    if status == "certificate":
        cert = outcome.certificate
        if (cert.p, cert.r) != (p, r) or not hs.verify_certificate(cert).ok:
            raise OracleFailure(f"({p},{r}): returned certificate does not re-verify")
        if expect == "unknown":
            return 1, f"({p},{r}) expected unknown, found a verified certificate"
        if expect == "certificate":
            return 1, None
    elif status == expect == "infeasible":
        if (
            tuple(outcome.witness) == (hs.grat(1), hs.grat(-1))
            and outcome.witness_form == hs.grat(-4)
        ):
            return 1, None
        raise OracleFailure(
            f"({p},{r}): witness {[str(x) for x in outcome.witness]} "
            f"form {outcome.witness_form}, expected (1, -1) and -4"
        )
    elif status == expect == "unknown":
        return 1, None
    raise OracleFailure(f"({p},{r}): status {status}, expected {expect}")


def search_cycle(jobs, rng: random.Random) -> Iterator[Call]:
    runs = [job for job in jobs for _ in range(job[5])]
    rng.shuffle(runs)
    for label, p, r, blocks, expect, _count in runs:
        seed = rng.getrandbits(32)
        if expect == "unknown":
            options = hs.SearchOptions(seed=seed, max_iters=UNKNOWN_MAX_ITERS)
        else:
            options = hs.SearchOptions(seed=seed)
        yield Call(
            f"search {label}",
            lambda p=p, r=r, blocks=blocks, options=options: hs.feasibility_search(
                p, r, blocks, options
            ),
            lambda outcome, p=p, r=r, expect=expect: check_search(p, r, expect, outcome),
        )


# ------------------------------------------------------------------
# exact-scale: large expansions and large exact PSD checks
# ------------------------------------------------------------------

EXPAND_PS = (16, 17, 18, 19, 20)
# (label, core word length, B's per word, planted negative direction);
# the bases have C(6,3) = 20 and C(7,3) = 35 words.
SYNTHETICS = (
    ("psd20", 6, 3, False),
    ("neg20", 6, 3, True),
    ("psd35", 7, 3, False),
    ("neg35", 7, 3, True),
)
SYNTH_ENTRY = 2  # vector entries have real and imaginary parts in [-2, 2]


def synthetic_certificate(length: int, b_count: int, planted: bool, rng: random.Random):
    """Single-block certificate whose Gram is V V* from small-integer vectors.

    With ``planted`` a rank-one -m w w^T term is subtracted, m chosen so
    that w* G w < 0.  Returns the certificate and its own expansion, the
    target it matches exactly.
    """
    basis = words_with(length, b_count)
    d = len(basis)
    vecs = [
        [(rng.randint(-SYNTH_ENTRY, SYNTH_ENTRY), rng.randint(-SYNTH_ENTRY, SYNTH_ENTRY))
         for _ in range(d)]
        for _ in range(d)
    ]
    re = [[sum(v[j][0] * v[k][0] + v[j][1] * v[k][1] for v in vecs) for k in range(d)]
          for j in range(d)]
    im = [[sum(v[j][1] * v[k][0] - v[j][0] * v[k][1] for v in vecs) for k in range(d)]
          for j in range(d)]
    if planted:
        w = [rng.randint(-SYNTH_ENTRY, SYNTH_ENTRY) for _ in range(d)]
        w[rng.randrange(d)] = SYNTH_ENTRY  # nonzero
        form = sum(w[j] * re[j][k] * w[k] for j in range(d) for k in range(d))
        norm2 = sum(x * x for x in w)
        m = form // (norm2 * norm2) + 1
        re = [[re[j][k] - m * w[j] * w[k] for k in range(d)] for j in range(d)]
    gram = hs.GramMatrix.from_rows(
        [[hs.grat(re[j][k], im[j][k]) for k in range(d)] for j in range(d)]
    )
    block = hs.SandwichBlock(None, None, basis)
    cert = hs.Certificate(2 * length, 2 * b_count, ((block, gram),))
    return cert, hs.expand_gram(block, gram)


def check_expand(p: int, poly) -> Tuple[int, Optional[str]]:
    total = poly.total()
    if poly.degree != p or total != hs.grat(comb(p, p // 2)):
        raise OracleFailure(f"({p},{p // 2}): multiplicities sum to {total}")
    return 1, None


def check_synthetic(gram, planted: bool, report) -> Tuple[int, Optional[str]]:
    if not report.matched:
        raise OracleFailure("synthetic certificate does not match its own expansion")
    if not planted:
        if not report.ok:
            raise OracleFailure("PSD synthetic rejected")
        return 1, None
    if report.psd or report.witness is None:
        raise OracleFailure("planted negative direction not detected")
    form = hs.quadratic_form(gram, report.witness)
    if not (form.is_real and form.re < 0):
        raise OracleFailure(f"witness form {form} is not negative")
    return 1, None


def exact_cycle(_inputs, rng: random.Random) -> Iterator[Call]:
    jobs = [("expand", p) for p in EXPAND_PS] + [("synthetic", s) for s in SYNTHETICS]
    rng.shuffle(jobs)
    for kind, spec in jobs:
        if kind == "expand":
            p = spec
            yield Call(
                f"expand ({p},{p // 2})",
                lambda p=p: hs.hurwitz_expand(p, p // 2),
                lambda poly, p=p: check_expand(p, poly),
            )
            continue
        label, length, b_count, planted = spec
        cert, target = synthetic_certificate(length, b_count, planted, rng)
        gram = cert.blocks[0][1]
        yield Call(
            f"verify_against {label}",
            lambda cert=cert, target=target: hs.verify_against(cert, target),
            lambda report, gram=gram, planted=planted: check_synthetic(gram, planted, report),
        )


# ------------------------------------------------------------------

EIGEN_SPANS = ("kernels.jacobi_eigh", "numeric.hermitian_eig", "numeric.psd_sqrt")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crossval-p7",
            load=load_crossval,
            cycle=crossval_cycle,
            tail_pct=95.0,
            trace_cycles=2,
            expected_spans=(
                "certificate.load_certificate",
                "validation.validate_certificate_trials",
                "numeric.eval_certificate_numeric",
                "numeric.trace_hurwitz_numeric",
                "numeric.psd_sqrt",
                "numeric.hermitian_eig",
                "numeric.random_psd",
                "kernels.jacobi_eigh",
                "kernels.hurwitz_trace",
            ),
        ),
        Workload(
            name="bmv-scan",
            load=lambda: None,
            cycle=bmv_cycle,
            tail_pct=90.0,
            trace_cycles=12,
            expected_spans=(
                "validation.bmv_check_trials",
                "numeric.bmv_coefficients",
                "numeric.trace_hurwitz_numeric",
                "numeric.random_psd",
                "kernels.hurwitz_trace",
            ),
            absent_prefixes=EIGEN_SPANS,
        ),
        Workload(
            name="search-mix",
            load=load_search,
            cycle=search_cycle,
            tail_pct=90.0,
            trace_cycles=3,
            expected_spans=(
                "search.feasibility_search",
                "words.hurwitz_expand",
                "certificate.verify_against",
                "certificate.certificate_expansion",
                "certificate.psd_check_exact",
                "numeric.hermitian_eig",
                "kernels.jacobi_eigh",
            ),
        ),
        Workload(
            name="exact-scale",
            load=lambda: None,
            cycle=exact_cycle,
            tail_pct=60.0,
            trace_cycles=1,
            expected_spans=(
                "words.hurwitz_expand",
                "certificate.verify_against",
                "certificate.certificate_expansion",
                "certificate.psd_check_exact",
            ),
            absent_prefixes=("numeric.", "kernels."),
        ),
    )
}
