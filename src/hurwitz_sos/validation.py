"""Seeded cross-validation of exact certificates against word-sum traces.

Two runners.  The certificate runner draws random PSD pairs, evaluates a
verified certificate as an explicit sum of squares, and compares against
the word-sum trace ``numeric.trace_hurwitz_numeric``.  The coefficient
runner samples PSD pairs and checks that every word-sum trace for
r = 0..p is nonnegative up to roundoff.  Both return a ``TrialReport`` of
one row per trial, so a failure is reproducible from its recorded seed
alone; the command line builds what it prints from those rows.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .certificate import Certificate
from .words import check_degrees
from .numeric import (
    _derive_seeds,
    _seed_vector,
    bmv_coefficients,
    eval_certificate_numeric,
    random_psd,
    trace_hurwitz_numeric,
)
from .options import TrialConfig

__all__ = [
    "TrialReport",
    "bmv_check_trials",
    "validate_certificate_trials",
]

# the coefficient runner's relative roundoff allowance; bmv-check prints it as ``tol``
_COEFFICIENT_TOL = 1e-9


def _indices_by_dimension(dims: List[int]) -> Dict[int, List[int]]:
    """Row indices grouped by their matrix dimension, in order of first use."""
    groups: Dict[int, List[int]] = {}
    for index, n in enumerate(dims):
        groups.setdefault(n, []).append(index)
    return groups


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


@dataclass(frozen=True)
class TrialReport:
    """The rows of one trial run, in trial order, each carrying a ``passed`` flag."""

    rows: Tuple[Union[TrialRow, CoefficientRow], ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> Tuple[Union[TrialRow, CoefficientRow], ...]:
        return tuple(row for row in self.rows if not row.passed)


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
    return TrialReport(tuple(rows))


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
    return TrialReport(tuple(rows))
