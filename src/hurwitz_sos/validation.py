"""Seeded cross-validation of exact certificates against word-sum traces.

Two runners.  The certificate runner draws random PSD pairs, evaluates a
verified certificate as an explicit sum of squares, and compares against
the word-sum trace ``numeric.trace_hurwitz_numeric``.  The coefficient
runner samples PSD pairs and checks that every word-sum trace for
r = 0..p is nonnegative up to roundoff.  Both emit one record per trial so failures are
reproducible from the recorded seed alone.

Each runner draws all random pairs of one dimension in one pass, then
evaluates all trials of that dimension as one stack of shape (m, n, n):
one call of the sampler, of the trace and of the certificate evaluator
per dimension, not per trial.  Every pair is still a function of its
own trial seed alone, and a slice's value does not depend on the rest
of its stack, so a row equals, bit for bit, the row of the same seed
run alone.  The bookkeeping of a dimension group is whole-group work
too: its trial seeds are checked once and both substream seeds derived
in one uint64 pass, its degrees are checked in one pass over the
group's traces, and its rows are built from one ``tolist()`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .certificate import Certificate
from .words import check_degrees, check_positive_int
from .numeric import (
    SEED_LIMIT,
    _check_dimension,
    _check_seed,
    _derive_seeds,
    _seed_vector,
    bmv_coefficients,
    eval_certificate_numeric,
    random_psd,
    trace_hurwitz_numeric,
)

__all__ = [
    "TrialConfig",
    "TrialReport",
    "bmv_check_trials",
    "validate_certificate_trials",
]

# the coefficient runner's relative roundoff allowance, reported as ``tol``
_COEFFICIENT_TOL = 1e-9


def _check_tolerance(name: str, tol: object) -> None:
    """Accept an int or float whose float value is finite and positive."""
    ok = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    try:
        ok = ok and 0 < float(tol) < inf
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


def _indices_by_dimension(dims: List[int]) -> Dict[int, List[int]]:
    """Row indices grouped by their matrix dimension, in order of first use."""
    groups: Dict[int, List[int]] = {}
    for index, n in enumerate(dims):
        groups.setdefault(n, []).append(index)
    return groups


@dataclass(frozen=True)
class TrialConfig:
    """Seed, dimensions, trial count and tolerance of a trial run.

    Both runners read ``seed``, ``dims`` and ``trials``.  ``trials``
    counts random trials per dimension for the certificate runner and
    total trials (cycled over the dimensions) for the coefficient
    runner.  Only the certificate runner reads ``tol_rel``;
    ``bmv_check_trials`` uses a fixed 1e-9.  ``trials`` and each of the
    nonempty ``dims`` must be positive ints, each dimension small enough for
    numpy to index its complex matrix, and ``seed`` must lie in [0, 2**64);
    a bad value raises ``ValueError`` naming it.  Each runner
    also rejects, by :meth:`check_trial_seeds`, a seed whose trial seeds,
    seed, seed + 1, ..., one per random trial it runs, would reach 2**64,
    and a dimension too large for the stack of pairs it draws there.
    """

    seed: int = 0
    dims: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    trials: int = 100
    tol_rel: float = 1e-8

    def __post_init__(self) -> None:
        # a tuple: a list is unhashable, and the checks would use up a generator
        try:
            object.__setattr__(self, "dims", tuple(self.dims))
        except TypeError:
            raise ValueError(
                f"dims must be a sequence of positive ints, got {self.dims!r}"
            ) from None
        _check_seed(self.seed)
        check_positive_int(self.trials, "trials")
        _check_tolerance("tol_rel", self.tol_rel)
        if not self.dims:
            raise ValueError("dims must be nonempty")
        for k, n in enumerate(self.dims):
            _check_dimension(n, f"dims[{k}]")

    def check_trial_seeds(self, per_dimension: bool, name: Optional[str] = None) -> None:
        """Reject a seed or a dimension that the runner's random trials cannot use.

        A runner draws one seed per random trial: ``trials`` per dimension
        when ``per_dimension`` (the certificate runner), ``trials`` in all,
        cycled over ``dims``, otherwise (the coefficient runner).  Those
        seeds must all be distinct 64-bit seeds, and numpy must be able to
        index the stack of two matrices a trial that each dimension draws
        in one ``random_psd`` call.  A bad dimension is called ``name``, by
        default ``dims[k]``.  Nothing is allocated.
        """
        count = self.trials * (len(self.dims) if per_dimension else 1)
        if self.seed > SEED_LIMIT - count:
            raise ValueError(
                f"seed must lie in [0, 2**64 - {count}] so that its {count} "
                f"trial seeds stay below 2**64, got {self.seed}"
            )
        # trials per dimension, keyed in order of first use
        drawn: Dict[int, int] = {}
        for k, n in enumerate(self.dims):
            share = self.trials if per_dimension else len(range(k, self.trials, len(self.dims)))
            drawn[n] = drawn.get(n, 0) + share
        for n, trials in drawn.items():
            if trials:  # a dimension no trial reaches draws nothing
                _check_dimension(n, name or f"dims[{self.dims.index(n)}]", 2 * trials)


@dataclass(frozen=True)
class TrialRow:
    """One certificate cross-check: oracle vs sum-of-squares value."""

    p: int
    r: int
    n: int
    label: str
    oracle: float
    value: float
    abs_diff: float
    passed: bool

    def format_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"p={self.p} r={self.r} n={self.n} trial={self.label} "
            f"oracle={self.oracle:.12e} sos={self.value:.12e} "
            f"diff={self.abs_diff:.3e} {flag}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "p": self.p,
            "r": self.r,
            "n": self.n,
            "trial": self.label,
            "oracle": self.oracle,
            "sos": self.value,
            "abs_diff": self.abs_diff,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class TrialReport:
    """The rows of one trial run, each carrying a ``passed`` flag, and their summary.

    ``summary`` is the dict the command line prints.  Both runners give it
    ``trials``, ``passed`` and ``failed``, the counts of the rows;
    ``validate_certificate_trials`` adds ``max_abs_diff``, the largest
    row ``abs_diff``, and ``tol_rel``, the config's; ``bmv_check_trials``
    adds ``min_coefficient``, the smallest row ``min_coefficient``, and
    ``tol``, its fixed 1e-9.
    """

    rows: Tuple[Union[TrialRow, CoefficientRow], ...]
    summary: Dict[str, object]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> Tuple[Union[TrialRow, CoefficientRow], ...]:
        return tuple(row for row in self.rows if not row.passed)


def _report(rows: Sequence, **extra: object) -> TrialReport:
    """The report of ``rows``: their counts, then the runner's ``extra`` summary keys."""
    passed = sum(row.passed for row in rows)
    counts = {"trials": len(rows), "passed": passed, "failed": len(rows) - passed}
    return TrialReport(tuple(rows), {**counts, **extra})


def trial_pair(n: int, trial_seeds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The stacks (A, B) of random PSD pairs of dimension n, one per trial seed.

    Slice k of A is drawn from ``derive_seed(trial_seeds[k], 0)`` and of B
    from ``derive_seed(trial_seeds[k], 1)``, all in one ``random_psd`` call,
    so a slice is what its trial seed draws alone.  The trial seeds are
    checked once, as a seed sequence, and both substreams are derived
    for the whole vector at once.
    """
    seeds, _ = _seed_vector(list(trial_seeds))
    drawn = random_psd(n, _derive_seeds(seeds, (0, 1)).ravel().tolist())
    return drawn[: len(seeds)], drawn[len(seeds):]


def validate_certificate_trials(
    cert: Certificate, config: Optional[TrialConfig] = None
) -> TrialReport:
    """Cross-check a certificate numerically on deterministic seeded trials.

    Runs, per dimension in ``config.dims``: one identity trial (A=B=I),
    and ``config.trials`` random PSD trials.  A scalar integer trial
    A=[[2]], B=[[3]] is prepended once.  The caller is expected to have
    verified the certificate exactly; this function only measures the
    float discrepancy between the two evaluation routes.
    """
    config = config or TrialConfig()
    config.check_trial_seeds(per_dimension=True)
    # (n, label, A, B) of the fixed pairs, which come first in row order;
    # the random trials follow, config.trials per dimension, seeded
    # config.seed, config.seed + 1, ... in row order
    fixed = [(1, "scalar(2,3)", np.array([[2.0]]), np.array([[3.0]]))]
    fixed += [(n, "identity", np.eye(n), np.eye(n)) for n in config.dims]
    dims = [f[0] for f in fixed] + [n for n in config.dims for _ in range(config.trials)]

    rows: List[Optional[TrialRow]] = [None] * len(dims)
    for n, indices in _indices_by_dimension(dims).items():
        head = [i for i in indices if i < len(fixed)]
        seeds = [config.seed + i - len(fixed) for i in indices[len(head):]]
        labels = [fixed[i][1] for i in head] + [str(s) for s in seeds]
        A = np.stack([fixed[i][2] for i in head])
        B = np.stack([fixed[i][3] for i in head])
        if seeds:
            A_random, B_random = trial_pair(n, seeds)
            A, B = np.concatenate([A, A_random]), np.concatenate([B, B_random])
        oracles = trace_hurwitz_numeric(A, B, cert.p, cert.r).tolist()
        values = eval_certificate_numeric(cert, A, B).tolist()
        for i, label, oracle, value in zip(indices, labels, oracles, values):
            diff = abs(value - oracle)
            passed = diff <= config.tol_rel * (1.0 + abs(oracle))
            rows[i] = TrialRow(cert.p, cert.r, n, label, oracle, value, diff, passed)
    max_abs_diff = max(row.abs_diff for row in rows)
    return _report(rows, max_abs_diff=max_abs_diff, tol_rel=config.tol_rel)


@dataclass(frozen=True)
class CoefficientRow:
    """One nonnegativity check of the full coefficient vector for degree p."""

    p: int
    n: int
    trial_seed: int
    coefficients: Tuple[float, ...]
    min_coefficient: float
    threshold: float
    passed: bool

    def format_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"p={self.p} n={self.n} seed={self.trial_seed} "
            f"min={self.min_coefficient:.6e} threshold={-self.threshold:.3e} {flag}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "p": self.p,
            "n": self.n,
            "seed": self.trial_seed,
            "coefficients": list(self.coefficients),
            "min": self.min_coefficient,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def bmv_check_trials(p: int, config: TrialConfig) -> TrialReport:
    """Run ``config.trials`` coefficient nonnegativity trials for degree p.

    Dimensions cycle through ``config.dims`` so the trial count is the
    total, not per dimension.  Each row records the seed that generated
    its PSD pair, so any failure can be replayed exactly.  A row passes
    when its smallest coefficient is at least -``_COEFFICIENT_TOL`` times
    (1 + its largest magnitude).
    """
    check_degrees(p, 0)
    config.check_trial_seeds(per_dimension=False)
    dims = [config.dims[t % len(config.dims)] for t in range(config.trials)]
    rows: List[Optional[CoefficientRow]] = [None] * config.trials
    for n, indices in _indices_by_dimension(dims).items():
        seeds = [config.seed + t for t in indices]
        A, B = trial_pair(n, seeds)
        for t, seed, coeffs in zip(indices, seeds, bmv_coefficients(A, B, p).tolist()):
            threshold = _COEFFICIENT_TOL * (1.0 + max(map(abs, coeffs)))
            smallest = min(coeffs)
            passed = smallest >= -threshold
            rows[t] = CoefficientRow(p, n, seed, tuple(coeffs), smallest, threshold, passed)
    min_coefficient = min(row.min_coefficient for row in rows)
    return _report(rows, min_coefficient=min_coefficient, tol=_COEFFICIENT_TOL)
