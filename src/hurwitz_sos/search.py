"""Gram-matrix feasibility search over a fixed sandwich ansatz.

The linear side is exact and simple: every ordered basis pair of every
block contributes to exactly one cyclic class, so matching a target
polynomial prescribes the sum of each group of Gram entries.  When every
group has a single member the whole Gram matrix is forced and both
feasibility and infeasibility are decided exactly.  Otherwise the
search alternates projections between the affine slice (groupwise sum
constraints) and the PSD cone in floating point, with a decreasing
eigenvalue floor so it prefers interior points, then rounds candidates
to small-denominator rationals, restores the sum constraints exactly,
and accepts only candidates that pass full exact verification.
Infeasible underdetermined systems therefore come back as unknown, not
as a proof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .certificate import (
    AnsatzMismatchError,
    Certificate,
    GramMatrix,
    SandwichBlock,
    psd_check_exact,
    quadratic_form,
    rational_quad,
    reduce_pair,
    verify_against,
)
from .numeric import derive_seed, gaussian_stream, hermitian_eig
from .rational import ZERO, GaussianRational
from .words import CyclicClass, TracePolynomial, hurwitz_expand


class UnreachableTargetError(ValueError):
    """The ansatz cannot produce some class of the target, or the forced
    Gram entries are inconsistent, so no Gram matrix over it matches."""

    def __init__(self, message: str, missing: Sequence[CyclicClass] = ()) -> None:
        super().__init__(message)
        self.missing = tuple(missing)


class UnderdeterminedAnsatzError(ValueError):
    """An operation requiring a fully determined constraint system was
    applied to an underdetermined one."""


PairIndex = Tuple[int, int, int]  # (block, j, k)


@dataclass(frozen=True)
class ConstraintMap:
    """Where each ordered basis pair of each block lands, and the reverse index."""

    p: int
    r: int
    blocks: Tuple[SandwichBlock, ...]
    pair_classes: Tuple[Tuple[Tuple[CyclicClass, ...], ...], ...]
    contributors: Mapping[CyclicClass, Tuple[PairIndex, ...]]

    @property
    def determined(self) -> bool:
        return all(len(v) == 1 for v in self.contributors.values())


def build_constraint_map(
    p: int, r: int, blocks: Sequence[SandwichBlock]
) -> ConstraintMap:
    blocks = tuple(blocks)
    if not blocks:
        raise AnsatzMismatchError("ansatz must contain at least one block")
    for idx, block in enumerate(blocks):
        block.check_shape(p, r, name=f"block {idx}")
    contributors: Dict[CyclicClass, List[PairIndex]] = {}
    pair_classes = []
    for bi, block in enumerate(blocks):
        rows = []
        for j in range(block.dimension):
            row = []
            for k in range(block.dimension):
                cls = reduce_pair(block, j, k)
                row.append(cls)
                contributors.setdefault(cls, []).append((bi, j, k))
            rows.append(tuple(row))
        pair_classes.append(tuple(rows))
    return ConstraintMap(
        p=p,
        r=r,
        blocks=blocks,
        pair_classes=tuple(pair_classes),
        contributors={cls: tuple(v) for cls, v in contributors.items()},
    )


def _check_reachable(cmap: ConstraintMap, target: TracePolynomial) -> None:
    missing = [cls for cls, _ in target.items() if cls not in cmap.contributors]
    if missing:
        names = ", ".join(str(c) for c in sorted(missing))
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
    for bi, block in enumerate(cmap.blocks):
        d = block.dimension
        rows = [
            [target.coefficient(cmap.pair_classes[bi][j][k]) for k in range(d)]
            for j in range(d)
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
    seed: int = 0
    max_iters: int = 5000
    tol: float = 1e-12
    denom_bound: int = 10_000
    round_every: int = 50

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.denom_bound < 1:
            raise ValueError("denom_bound must be positive")
        if self.round_every < 1:
            raise ValueError("round_every must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a feasibility search.

    Exactly one of the payloads is populated: a verified Certificate for
    CERTIFICATE, a (witness vector, block index, form value) triple for
    INFEASIBLE, nothing for UNKNOWN.
    """

    status: SearchStatus
    iterations: int
    certificate: Optional[Certificate] = None
    witness: Optional[Tuple[GaussianRational, ...]] = None
    witness_block: Optional[int] = None
    witness_form: Optional[GaussianRational] = None


def prove_infeasible_determined(
    cmap: ConstraintMap, target: TracePolynomial
) -> SearchOutcome:
    """Decide a fully determined system exactly.

    The forced Gram matrices either pass the exact PSD check, giving a
    certificate, or some block yields an exact witness vector whose
    quadratic form against the forced matrix is negative, which proves
    no PSD solution exists over this ansatz.
    """
    forced = determined_gram(cmap, target)
    if forced is None:
        raise UnderdeterminedAnsatzError(
            "constraint system is underdetermined; use feasibility_search"
        )
    return _decide_forced(cmap, target, forced)


def _decide_forced(
    cmap: ConstraintMap, target: TracePolynomial, forced: List[GramMatrix]
) -> SearchOutcome:
    for bi, gram in enumerate(forced):
        result = psd_check_exact(gram)
        if not result.psd:
            form = quadratic_form(gram, result.witness)
            return SearchOutcome(
                status=SearchStatus.INFEASIBLE,
                iterations=0,
                witness=result.witness,
                witness_block=bi,
                witness_form=form,
            )
    cert = Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, forced)))
    report = verify_against(cert, target)
    if not report.ok:
        raise AssertionError("forced Gram matrices failed exact re-verification")
    return SearchOutcome(
        status=SearchStatus.CERTIFICATE, iterations=0, certificate=cert
    )


# ------------------------------------------------------------------
# alternating projections over the underdetermined case
# ------------------------------------------------------------------

_Group = Tuple[Tuple[PairIndex, ...], complex, GaussianRational]


def _build_groups(
    cmap: ConstraintMap, target: TracePolynomial
) -> List[_Group]:
    groups: List[_Group] = []
    for cls, entries in sorted(cmap.contributors.items()):
        exact = target.coefficient(cls)
        groups.append((entries, complex(exact), exact))
    return groups


def _project_affine(mats: List[np.ndarray], groups: List[_Group]) -> None:
    """Shift each entry group to its prescribed sum, then re-Hermitize."""
    for entries, tgt, _exact in groups:
        s = 0.0 + 0.0j
        for bi, j, k in entries:
            s += mats[bi][j, k]
        delta = (tgt - s) / len(entries)
        for bi, j, k in entries:
            mats[bi][j, k] += delta
    for bi in range(len(mats)):
        mats[bi] = (mats[bi] + mats[bi].conj().T) / 2.0


def _project_psd(mats: List[np.ndarray], floor: float) -> None:
    """Clamp each block's eigenvalues from below at ``floor``."""
    for bi in range(len(mats)):
        eig = hermitian_eig(mats[bi])
        w = np.clip(eig.eigenvalues, floor, None)
        M = (eig.vectors * w) @ eig.vectors.conj().T
        mats[bi] = (M + M.conj().T) / 2.0


def _denominator_ladder(bound: int) -> List[int]:
    base = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256, 1024, 4096]
    ladder = sorted({d for d in base if d <= bound} | {bound})
    return ladder


def _round_candidate(
    mats: List[np.ndarray],
    cmap: ConstraintMap,
    groups: List[_Group],
    target: TracePolynomial,
    bound: int,
) -> Optional[Certificate]:
    """Round floats to denominator <= bound, restore sums exactly, verify."""
    exact: List[List[List[GaussianRational]]] = []
    for bi, block in enumerate(cmap.blocks):
        d = block.dimension
        rows = []
        for j in range(d):
            row = []
            for k in range(d):
                z = mats[bi][j, k]
                row.append(
                    GaussianRational(
                        Fraction(float(z.real)).limit_denominator(bound),
                        Fraction(float(z.imag)).limit_denominator(bound),
                    )
                )
            rows.append(row)
        exact.append(rows)
    for entries, _tgt, tgt_exact in groups:
        s = ZERO
        for bi, j, k in entries:
            s = s + exact[bi][j][k]
        delta = tgt_exact - s
        if not delta.is_zero:
            share = delta / len(entries)
            for bi, j, k in entries:
                exact[bi][j][k] = exact[bi][j][k] + share
    for bi, block in enumerate(cmap.blocks):
        d = block.dimension
        for j in range(d):
            for k in range(j, d):
                mean = (exact[bi][j][k] + exact[bi][k][j].conjugate()) / 2
                exact[bi][j][k] = mean
                exact[bi][k][j] = mean.conjugate()
    try:
        grams = [GramMatrix.from_rows(rows) for rows in exact]
        cert = Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, grams)))
    except ValueError:
        return None
    report = verify_against(cert, target)
    if report.ok:
        return cert
    return None


def _try_rounding(
    mats: List[np.ndarray],
    cmap: ConstraintMap,
    groups: List[_Group],
    target: TracePolynomial,
    denom_bound: int,
) -> Optional[Certificate]:
    for bound in _denominator_ladder(denom_bound):
        cert = _round_candidate(mats, cmap, groups, target, bound)
        if cert is not None:
            return cert
    return None


def feasibility_search(
    p: int,
    r: int,
    blocks: Sequence[SandwichBlock],
    options: Optional[SearchOptions] = None,
) -> SearchOutcome:
    """Search for an exact certificate of the (p, r) word sum over ``blocks``.

    Determined systems are decided exactly (certificate or infeasibility
    witness).  Underdetermined systems run the projection loop; any
    candidate that rounds to rationals and passes exact verification is
    returned, otherwise the outcome is UNKNOWN after the iteration
    budget.
    """
    opts = options or SearchOptions()
    cmap = build_constraint_map(p, r, blocks)
    target = hurwitz_expand(p, r)
    forced = determined_gram(cmap, target)
    if forced is not None:
        return _decide_forced(cmap, target, forced)

    groups = _build_groups(cmap, target)
    scale = max([1.0] + [abs(tgt) for _e, tgt, _x in groups])
    dims = [block.dimension for block in cmap.blocks]

    mats: List[np.ndarray] = []
    for bi, d in enumerate(dims):
        g = gaussian_stream(derive_seed(opts.seed, 1000 + bi), d * d)
        X = g.reshape(d, d) * scale
        mats.append(((X + X.T) / 2.0).astype(np.complex128))

    # Floor phases: prefer interior points (robust to rounding), fall back
    # to the plain cone for targets whose solutions all sit on the boundary.
    phases = [
        (0.05 * scale, int(opts.max_iters * 0.2)),
        (0.01 * scale, int(opts.max_iters * 0.15)),
        (0.002 * scale, int(opts.max_iters * 0.15)),
    ]
    used = sum(budget for _f, budget in phases)
    phases.append((0.0, opts.max_iters - used))

    iterations = 0
    for floor, budget in phases:
        for _ in range(budget):
            _project_affine(mats, groups)
            _project_psd(mats, floor)
            iterations += 1
            residual = 0.0
            for entries, tgt, _exact in groups:
                s = 0.0 + 0.0j
                for bi, j, k in entries:
                    s += mats[bi][j, k]
                residual = max(residual, abs(s - tgt))
            converged = residual <= opts.tol
            if converged or iterations % opts.round_every == 0:
                cert = _try_rounding(mats, cmap, groups, target, opts.denom_bound)
                if cert is not None:
                    return SearchOutcome(
                        status=SearchStatus.CERTIFICATE,
                        iterations=iterations,
                        certificate=cert,
                    )
                if converged:
                    # fixed point of this phase; a finer floor may still work
                    break
        if iterations >= opts.max_iters:
            break
    return SearchOutcome(status=SearchStatus.UNKNOWN, iterations=iterations)


def outcome_to_json(outcome: SearchOutcome) -> Dict[str, object]:
    from .certificate import certificate_to_json

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
    return doc
