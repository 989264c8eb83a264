"""Gram-matrix feasibility search over a fixed sandwich ansatz.

The linear side is exact and simple: every ordered basis pair of every
block contributes to exactly one cyclic class, and one table of class
ids (``ConstraintMap``) records which.  Matching a target polynomial
prescribes the sum of the Gram entries of each class.  When every class
has a single member the whole Gram matrix is forced and both
feasibility and infeasibility are decided exactly.  Otherwise the
search runs Douglas–Rachford splitting between the affine slice A
(class-sum constraints) and the PSD cone K in real floating point: it
keeps a point z, and each step takes the shadow x = P_K(z) and moves z
to z + P_A(2x − z) − x.  The loop has no tuning constants; the target's
coefficients are integers, so real iterates lose nothing.  Every
``ROUND_EVERY`` steps and after the last one, it rounds the shadow to
the grid 1/q at each rung q of the denominator ladder ``LADDER``,
restores the class sums exactly, and keeps a candidate only if
``verify_against`` accepts the assembled certificate: the search's one
exact verdict, here and on the determined path.  Infeasible
underdetermined systems therefore come back as unknown.

Every point of the search is one flat vector v in the map's (block, j,
k) order, the order of ``ConstraintMap.ids``.  With A the class
incidence matrix, ``np.bincount(ids, v)`` is A·v, ``(gap / counts)[ids]``
is Aᵀ(AAᵀ)⁻¹·gap, and ``(v + v[mirror]) / 2`` symmetrizes every block at
once.  Only the eigensolves and the exact Gram matrices read blocks:
the map's ``runs`` cut v into runs of consecutive equal-size blocks, one
``(count, d, d)`` view each, for one batched eigensolve per run, and
only the exact Gram matrices cut a run into its ``(d, d)`` blocks.

One float test, λ_min ≥ −slack on every block of a point T whose class
sums ``_project_affine`` has restored in float, drops rungs whose exact
candidate G_q provably fails the exact PSD check, so it never changes
which rung is accepted.  The slack is ``FILTER_SLACK·(1 + Σ|T|)``, with
Σ|T| the sum of the moduli of every entry of T.  T is one of two points:

* **The restored shadow, once per rounding round (Weyl margin).**  At
  denominator q every entry moves by at most 1/(2q) in rounding to the
  grid 1/q and by at most as much again in the exact restoration (a
  class's share is the mean of its rounding errors); Hermitizing
  averages entries, so keeps that.  With λ_b the smallest eigenvalue of
  block b of T and d_b its dimension, Weyl's inequality then gives
  λ_min(G_q) ≤ λ_b + ‖G_q − T_b‖_F ≤ λ_b + d_b/q ≤ λ_b + d_b·√2/q, up to
  float error in T that the slack absorbs.  When λ_b < −slack, every
  rung q > d_b·√2/(−λ_b − slack) fails: a suffix of the ladder, since a
  larger q moves the point less.
* **The restored rounded shadow, once per remaining rung (float twin).**
  The twin is ``_project_affine(rint(q·v), q·goal) / q``: the map that
  builds G_q, carried out in float.  ``rint(q·v)`` holds integers
  exactly, so each twin entry is within a few roundings of G_q's, and
  LAPACK's backward error is O(d·eps·Σ|T|); both are far below the
  slack, so a twin eigenvalue below −slack means G_q fails too.

Only a rung whose twin has no eigenvalue below −slack builds Python ints
and Fractions, for ``verify_against``.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .certificate import (
    AnsatzMismatchError,
    Certificate,
    GramMatrix,
    SandwichBlock,
    certificate_to_json,
    pair_classes,
    quadratic_form,
    rational_quad,
    verify_against,
)
from .numeric import _check_seed, _eigh, derive_seed, gaussian_stream, hermitian_eig
from .rational import GaussianRational
from .words import CyclicClass, TracePolynomial, check_positive_int, hurwitz_expand

# Iterations between rounding rounds.
ROUND_EVERY = 50
# Relative slack of the float rounding test (see the module docstring).
FILTER_SLACK = 1e-9
# Rounding denominators, smallest first: rung q rounds every Gram entry
# to a multiple of 1/q.
LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256, 1024, 4096, 10_000)


class UnreachableTargetError(ValueError):
    """The ansatz cannot produce some class of the target, or the forced
    Gram entries are inconsistent, so no Gram matrix over it matches."""

    def __init__(self, message: str, missing: Sequence[CyclicClass] = ()) -> None:
        super().__init__(message)
        self.missing = tuple(missing)


class UnderdeterminedAnsatzError(ValueError):
    """An operation requiring a fully determined constraint system was
    applied to an underdetermined one."""


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """The cyclic class of every ordered basis pair, as ids into one table.

    ``classes`` holds the classes the ansatz reaches, sorted.  ``ids`` is
    every pair's class id, blocks concatenated in (block, j, k) order:
    the order of the search's flat point.  ``runs`` cuts the blocks
    into maximal runs of consecutive blocks of one dimension, each
    (offset, count, d) in ``ids`` as plain ints, so a run is one
    (count, d, d) view of a flat point and pair (j, k) of the run's
    block i feeds ``classes[ids[offset + (i·d + j)·d + k]]``.  ``counts[c]``
    is the number of pairs that feed class c, so ``counts == np.bincount(ids)``,
    and ``mirror[i]`` is the flat position of the transposed entry of
    position i, (b, k, j) for (b, j, k).  All these arrays are read-only.
    Maps compare and hash by identity, since an array has no single
    truth value to compare field by field.
    """

    p: int
    r: int
    blocks: Tuple[SandwichBlock, ...]
    classes: Tuple[CyclicClass, ...]
    runs: Tuple[Tuple[int, int, int], ...]
    ids: np.ndarray
    counts: np.ndarray
    mirror: np.ndarray

    @property
    def determined(self) -> bool:
        """Whether every class is fed by exactly one pair."""
        return len(self.classes) == self.ids.size


def _blocks(v: np.ndarray, runs: Sequence[Tuple[int, int, int]]) -> List[np.ndarray]:
    """Each block of the flat array ``v`` as a ``(d, d)`` view, in block order."""
    return [M for start, count, d in runs
            for M in v[start:start + count * d * d].reshape(count, d, d)]


def build_constraint_map(
    p: int, r: int, blocks: Sequence[SandwichBlock]
) -> ConstraintMap:
    blocks = tuple(blocks)
    if not blocks:
        raise AnsatzMismatchError("ansatz must contain at least one block")
    for idx, block in enumerate(blocks):
        block.check_shape(p, r, name=f"block {idx}")
    tables = [pair_classes(block) for block in blocks]
    classes = tuple(sorted({cls for table in tables for row in table for cls in row}))
    position = {cls: i for i, cls in enumerate(classes)}
    ids = np.array(
        [position[cls] for table in tables for row in table for cls in row],
        dtype=np.intp,
    )
    counts = np.bincount(ids)
    runs, start = [], 0
    for d, run in itertools.groupby(block.dimension for block in blocks):
        count = len(list(run))
        runs.append((start, count, d))
        start += count * d * d
    mirror = np.concatenate(
        [M.T.ravel() for M in _blocks(np.arange(ids.size, dtype=np.intp), runs)]
    )
    for table in (ids, counts, mirror):
        table.setflags(write=False)
    return ConstraintMap(
        p=p, r=r, blocks=blocks, classes=classes,
        runs=tuple(runs), ids=ids, counts=counts, mirror=mirror,
    )


def _check_reachable(cmap: ConstraintMap, target: TracePolynomial) -> None:
    reachable = set(cmap.classes)
    missing = sorted(cls for cls, _ in target.items() if cls not in reachable)
    if missing:
        names = ", ".join(str(c) for c in missing)
        raise UnreachableTargetError(
            f"ansatz produces no contribution to target classes: {names}", missing
        )


def determined_gram(
    cmap: ConstraintMap, target: TracePolynomial
) -> Optional[List[GramMatrix]]:
    """Forced per-block Gram matrices when every class has one contributor.

    Returns None when the system is underdetermined.  Raises
    UnreachableTargetError when the target hits classes the ansatz cannot
    produce, or when the forced entries fail to form Hermitian matrices.
    """
    if target.degree != cmap.p:
        raise ValueError(
            f"target degree {target.degree} does not match constraint map p={cmap.p}"
        )
    _check_reachable(cmap, target)
    if not cmap.determined:
        return None
    grams: List[GramMatrix] = []
    for bi, ids in enumerate(_blocks(cmap.ids, cmap.runs)):
        rows = [
            [target.coefficient(cmap.classes[i]) for i in row] for row in ids.tolist()
        ]
        try:
            grams.append(GramMatrix.from_rows(rows))
        except ValueError as exc:
            raise UnreachableTargetError(
                f"block {bi}: forced Gram entries are inconsistent ({exc})"
            ) from exc
    return grams


class SearchStatus(enum.Enum):
    CERTIFICATE = "certificate"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


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
class SearchOutcome:
    """Result of a feasibility search.

    Exactly one of the payloads is populated: a verified Certificate for
    CERTIFICATE, a (witness vector, block index, form value) triple for
    INFEASIBLE, nothing for UNKNOWN.  The three ``rungs_*`` counts say
    what happened to each denominator rung the search visited: skipped
    by the Weyl margin, rejected by the float twin of its rounded
    point, or checked exactly.  They add up to the number of rungs
    visited.
    """

    status: SearchStatus
    iterations: int
    certificate: Optional[Certificate] = None
    witness: Optional[Tuple[GaussianRational, ...]] = None
    witness_block: Optional[int] = None
    witness_form: Optional[GaussianRational] = None
    rungs_skipped: int = 0
    rungs_float_rejected: int = 0
    rungs_exact: int = 0


def prove_infeasible_determined(
    cmap: ConstraintMap, target: TracePolynomial
) -> SearchOutcome:
    """Decide a fully determined system exactly.

    The forced Gram matrices are assembled into a certificate and
    verified.  Either it passes, or ``verify_against`` names the first
    block that fails the exact PSD check with a witness vector whose
    quadratic form against the forced matrix is negative, which proves
    no PSD solution exists over this ansatz.
    """
    forced = determined_gram(cmap, target)
    if forced is None:
        raise UnderdeterminedAnsatzError(
            "constraint system is underdetermined; use feasibility_search"
        )
    cert = Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, forced)))
    report = verify_against(cert, target)
    if not report.matched:
        raise AssertionError("forced Gram matrices failed exact re-verification")
    if report.psd:
        return SearchOutcome(SearchStatus.CERTIFICATE, iterations=0, certificate=cert)
    return SearchOutcome(
        status=SearchStatus.INFEASIBLE,
        iterations=0,
        witness=report.witness,
        witness_block=report.witness_block,
        witness_form=quadratic_form(forced[report.witness_block], report.witness),
    )


# ------------------------------------------------------------------
# Douglas–Rachford splitting over the underdetermined case
# ------------------------------------------------------------------

def _shift_classes(v: np.ndarray, gap: np.ndarray, cmap: ConstraintMap) -> np.ndarray:
    """A new flat point: each class's entries of ``v`` shifted by an even
    share of its ``gap``, then re-symmetrized."""
    shifted = v + (gap / cmap.counts)[cmap.ids]
    return (shifted + shifted[cmap.mirror]) / 2.0


def _project_affine(v: np.ndarray, cmap: ConstraintMap, goal: np.ndarray) -> np.ndarray:
    """P_A: each class's entries shifted evenly to the prescribed sum, then
    re-symmetrized.  ``np.bincount`` adds a class's entries in flat order,
    so every class sum equals the sequential per-entry sum bit for bit."""
    return _shift_classes(v, goal - np.bincount(cmap.ids, v), cmap)


def _project_psd(v: np.ndarray, cmap: ConstraintMap) -> np.ndarray:
    """P_K: each block's negative eigenvalues set to zero, with one
    batched eigensolve per run of equal-size blocks."""
    clamped = np.empty_like(v)
    # every point is symmetrized by the mirror, so its blocks are finite
    # and exactly symmetric, and LAPACK needs no checked wrapper
    for start, count, d in cmap.runs:
        stop = start + count * d * d
        w, V = _eigh(v[start:stop].reshape(count, d, d))
        P = (V * np.maximum(w, 0.0)[:, np.newaxis, :]) @ V.swapaxes(-1, -2)
        clamped[start:stop] = P.ravel()
    return (clamped + clamped[cmap.mirror]) / 2.0


def _dr_step(z: np.ndarray, cmap: ConstraintMap, goal: np.ndarray):
    """One Douglas–Rachford step: the shadow x = P_K(z) and the next z,
    z + P_A(2x − z) − x.  For symmetric x and z that is x shifted by the
    class gaps of the reflection 2x − z, which is what is computed."""
    x = _project_psd(z, cmap)
    return x, _shift_classes(x, goal - np.bincount(cmap.ids, 2.0 * x - z), cmap)


def _margin_cutoff(v: np.ndarray, runs: Sequence[Tuple[int, int, int]]) -> float:
    """Largest denominator at which the rounded candidate can still be PSD.

    ``v`` is the flat shadow after the affine projection, or the float
    twin of a rounded point.  A block whose smallest eigenvalue λ is
    below −slack bounds every rung by d·√2/(−λ − slack), the Weyl bound
    of the module docstring, and the result is ``math.inf`` exactly when
    every block has λ ≥ −slack.  The blocks of a run share d, so the lowest
    eigenvalue of the run's one batched eigensolve gives its tightest bound.
    """
    slack = FILTER_SLACK * (1.0 + float(np.abs(v).sum()))
    cutoff = math.inf
    for start, count, d in runs:
        w = hermitian_eig(v[start:start + count * d * d].reshape(count, d, d)).eigenvalues
        gap = -float(w[:, 0].min()) - slack
        if gap > 0:
            cutoff = min(cutoff, d * math.sqrt(2.0) / gap)
    return cutoff


def _exact_candidate(
    rounded: np.ndarray, cmap: ConstraintMap, goal: np.ndarray, q: int
) -> Certificate:
    """The rung-q certificate built from ``rounded`` = rint(q·v).

    Each class's share (t − s)/n of the gap between its target t and its
    rounded sum s is added to each of its n entries, and each entry is
    replaced by the average of it and its transposed entry.  Over
    D = 2·q·lcm(counts) every share and every average is an integer, so
    the flat numerators K hold Python ints and the Gram entries are
    exactly K/D; ``goal`` must hold integers.
    """
    lcm = math.lcm(*cmap.counts.tolist())
    ints = np.array([int(x) for x in rounded.tolist()], dtype=object)
    sums = np.zeros(len(cmap.classes), dtype=object)
    np.add.at(sums, cmap.ids, ints)
    shares = (lcm // cmap.counts.astype(object)) * (q * goal.astype(object) - sums)
    # half of each restored numerator over D
    half = lcm * ints + shares[cmap.ids]
    K, denom = half + half[cmap.mirror], 2 * q * lcm
    grams = [
        GramMatrix.from_rows([[Fraction(x, denom) for x in row] for row in M.tolist()])
        for M in _blocks(K, cmap.runs)
    ]
    return Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, grams)))


def _round_candidate(
    v: np.ndarray,
    cmap: ConstraintMap,
    target: TracePolynomial,
    q: int,
    goal: np.ndarray,
    tally: Counter,
) -> Optional[Certificate]:
    """Round to the grid 1/q, restore class sums exactly, verify.

    The float twin of the rounded point is checked first; a rung it
    rejects cannot pass the exact PSD check (see the module docstring)
    and is tallied under ``rungs_float_rejected``.  Any other rung is
    tallied under ``rungs_exact``, and its certificate, with Fraction
    entries, is returned iff ``verify_against`` accepts it.
    """
    rounded = np.rint(q * v)
    twin = _project_affine(rounded, cmap, q * goal) / q
    if _margin_cutoff(twin, cmap.runs) < math.inf:
        tally["rungs_float_rejected"] += 1
        return None
    tally["rungs_exact"] += 1
    cert = _exact_candidate(rounded, cmap, goal, q)
    return cert if verify_against(cert, target).ok else None


def _round_iterate(
    v: np.ndarray,
    cmap: ConstraintMap,
    target: TracePolynomial,
    goal: np.ndarray,
    tally: Counter,
) -> Optional[Certificate]:
    """First certificate on ``LADDER``, smallest rung first.

    ``v`` is rounded; the Weyl cutoff reads its affine projection.  Rungs
    above the cutoff are a suffix of the ladder, tallied under
    ``rungs_skipped`` once every rung below has failed.
    """
    cutoff = _margin_cutoff(_project_affine(v, cmap, goal), cmap.runs)
    allowed = [q for q in LADDER if q <= cutoff]
    for q in allowed:
        cert = _round_candidate(v, cmap, target, q, goal, tally)
        if cert is not None:
            return cert
    tally["rungs_skipped"] += len(LADDER) - len(allowed)
    return None


def feasibility_search(
    p: int,
    r: int,
    blocks: Sequence[SandwichBlock],
    options: Optional[SearchOptions] = None,
) -> SearchOutcome:
    """Search for an exact certificate of the (p, r) word sum over ``blocks``.

    Determined systems are decided exactly (certificate or infeasibility
    witness).  Underdetermined systems run ``max_iters`` Douglas–Rachford
    steps from the affine projection of a seeded random symmetric point,
    rounding the shadow every ``ROUND_EVERY`` steps and after the last;
    the first candidate that passes exact verification is returned,
    otherwise the outcome is UNKNOWN.
    """
    opts = options or SearchOptions()
    cmap = build_constraint_map(p, r, blocks)
    target = hurwitz_expand(p, r)
    if cmap.determined:
        return prove_infeasible_determined(cmap, target)
    _check_reachable(cmap, target)

    # hurwitz_expand counts words, so every class coefficient is an integer
    goal = np.array([int(target.coefficient(cls).re) for cls in cmap.classes])
    scale = max([1.0] + np.abs(goal).tolist())

    start = scale * np.concatenate([
        gaussian_stream(derive_seed(opts.seed, 1000 + bi), block.dimension ** 2)
        for bi, block in enumerate(cmap.blocks)
    ])
    z = _project_affine((start + start[cmap.mirror]) / 2.0, cmap, goal)

    tally: Counter = Counter()
    for iterations in range(1, opts.max_iters + 1):
        x, z = _dr_step(z, cmap, goal)
        # the last shadow of the search is rounded whatever its count
        if iterations % ROUND_EVERY == 0 or iterations == opts.max_iters:
            cert = _round_iterate(x, cmap, target, goal, tally)
            if cert is not None:
                return SearchOutcome(
                    status=SearchStatus.CERTIFICATE,
                    iterations=iterations,
                    certificate=cert,
                    **tally,
                )
    return SearchOutcome(status=SearchStatus.UNKNOWN, iterations=opts.max_iters, **tally)


def outcome_to_json(outcome: SearchOutcome) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "certificate": None,
        "witness": None,
    }
    if outcome.certificate is not None:
        doc["certificate"] = certificate_to_json(outcome.certificate)
    if outcome.witness is not None:
        doc["witness"] = {
            "block": outcome.witness_block,
            "vector": [rational_quad(x) for x in outcome.witness],
            "form": rational_quad(outcome.witness_form),
        }
    doc["rounding"] = {
        "skipped": outcome.rungs_skipped,
        "float_rejected": outcome.rungs_float_rejected,
        "exact": outcome.rungs_exact,
    }
    return doc
