"""The options of a search and of a trial run, and the checks they run.

``SearchOptions`` (read by ``search.feasibility_search``) and
``TrialConfig`` (read by the two runners in ``validation``) are plain
frozen dataclasses that check their fields when built.  They live apart
from the numeric code, and import no numpy, so the command line can
build its parser from their defaults and reject a bad flag before it
loads numpy.  A dimension bound is the one place numpy's size limit
enters: numpy indexes an array with an intp, which is a C ``ssize_t``,
so the largest index is ``sys.maxsize``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .rational import is_int
from .words import check_positive_int

__all__ = [
    "SearchOptions",
    "TrialConfig",
]

# SplitMix64 works modulo 2^64, so seeds that differ by a multiple of it
# would alias; every seed the package accepts lies in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 64


def _check_seed(value, name: str = "seed") -> None:
    if not is_int(value) or not 0 <= value < SEED_LIMIT:
        raise ValueError(f"{name} must be an int in [0, 2**64), got {value!r}")


def _check_dimension(n, name: str, count: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``n`` is a positive int and
    numpy can index ``count`` complex (n, n) matrices in one array (16 n^2
    ``count`` bytes fit in an intp), the largest that ``count`` draws make."""
    check_positive_int(n, name)
    limit = math.isqrt(sys.maxsize // (16 * count))
    if n > limit:
        what = "a complex matrix" if count == 1 else f"a stack of {count} complex matrices"
        raise ValueError(
            f"{name} must be at most {limit}, so that numpy can index {what} "
            f"of that size, got {n!r}"
        )


def _check_tolerance(name: str, tol: object) -> None:
    """Accept an int or float whose float value is finite and positive."""
    ok = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    try:
        ok = ok and 0 < float(tol) < math.inf
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of ``feasibility_search``.

    ``seed`` picks the random start and ``max_iters`` is the number of
    Douglas–Rachford steps.  Each must be an int, ``seed`` in [0, 2**64)
    and ``max_iters`` >= 1.  The rounding denominators are ``LADDER``.
    """

    seed: int = 0
    max_iters: int = 5000

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        check_positive_int(self.max_iters, "max_iters")


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
