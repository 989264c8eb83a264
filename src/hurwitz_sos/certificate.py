"""Hermitian-square certificates with exact rational Gram matrices.

A certificate asserts that the sum of all length-p words with r B
letters equals a sum of squares Tr(C* C).  Each block fixes a sandwich
shape, an optional half-letter on each side (``a`` squares to A, ``b``
squares to B) around a basis of core words, and a Hermitian Gram matrix
over that basis.  Verification is exact: the induced expansion must
match the target class by class over the Gaussian rationals, and each
Gram matrix must be positive semidefinite, which is decided by pivoted
elimination with an explicit witness vector on failure.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .rational import ZERO, GaussianRational
from .words import (
    CyclicClass,
    TracePolynomial,
    _class_of,
    check_degrees,
    check_word,
    hurwitz_expand,
    is_int,
    swap_word,
)


class CertificateFormatError(ValueError):
    """A certificate or ansatz document does not follow the JSON schema."""


class CertificateStructureError(ValueError):
    """A structurally inconsistent certificate was assembled."""


class AnsatzMismatchError(ValueError):
    """A sandwich block cannot produce words of the requested degree and B-count."""


HALF_LETTERS = ("a", "b")
# the full letter two adjacent copies of a half letter square to; none without one
_HALF_SQUARED = {"a": "A", "b": "B", None: ""}
_HALF_SWAP = {"a": "b", "b": "a", None: None}


@dataclass(frozen=True)
class SandwichBlock:
    """A sandwich shape: optional half letters around a basis of core words.

    Basis entry ``W`` stands for the matrix product prefix * W * suffix
    (half letters included), so the trace of one sandwich against the
    adjoint of another is a single full-letter word.
    """

    prefix: Optional[str]
    suffix: Optional[str]
    basis: Tuple[str, ...]

    def __post_init__(self) -> None:
        for side, value in (("prefix", self.prefix), ("suffix", self.suffix)):
            if value is not None and value not in HALF_LETTERS:
                raise ValueError(
                    f"{side} must be one of {HALF_LETTERS} or None, got {value!r}"
                )
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("basis must contain at least one word")
        for word in basis:
            check_word(word)
        if len(set(basis)) != len(basis):
            raise ValueError("basis words must be distinct")
        if len({len(word) for word in basis}) != 1:
            raise ValueError("basis words must share one length")
        object.__setattr__(self, "basis", basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def core_length(self) -> int:
        return len(self.basis[0])

    @property
    def half_count(self) -> int:
        return (self.prefix is not None) + (self.suffix is not None)

    @property
    def product_degree(self) -> int:
        """Length of the full-letter word each sandwich pair reduces to."""
        return 2 * self.core_length + self.half_count

    def product_b_count(self, word: str) -> int:
        """B letters in the reduction of ``word`` against itself."""
        halves = (self.prefix == "b") + (self.suffix == "b")
        return 2 * word.count("B") + halves

    def check_shape(self, p: int, r: int, name: str = "block") -> None:
        """Raise AnsatzMismatchError unless every pair reduces to degree p with r B's."""
        if self.product_degree != p:
            raise AnsatzMismatchError(
                f"{name}: sandwich products have length {self.product_degree}, "
                f"target degree is {p}"
            )
        for word in self.basis:
            got = self.product_b_count(word)
            if got != r:
                raise AnsatzMismatchError(
                    f"{name}: word {word!r} yields products with {got} B letters, "
                    f"target needs {r}"
                )


def reduce_pair(block: SandwichBlock, j: int, k: int) -> CyclicClass:
    """Cyclic class of sandwich word j times the adjoint of sandwich word k.

    With u = prefix W suffix, cyclicity moves the trailing prefix* = prefix
    of the adjoint factor to the front, and adjacent identical half
    letters square to the full letter, leaving
    W_j [suffix^2] reverse(W_k) [prefix^2].
    """
    basis = block.basis
    if not 0 <= j < len(basis) or not 0 <= k < len(basis):
        raise IndexError(
            f"pair index ({j}, {k}) out of range for basis of size {len(basis)}"
        )
    return _class_of(_pair_head(block, basis[j]) + _pair_tail(block, basis[k]))


def _pair_head(block: SandwichBlock, word: str) -> str:
    return word + _HALF_SQUARED[block.suffix]


def _pair_tail(block: SandwichBlock, word: str) -> str:
    return word[::-1] + _HALF_SQUARED[block.prefix]


def pair_classes(block: SandwichBlock) -> Tuple[Tuple[CyclicClass, ...], ...]:
    """The d x d table whose entry [j][k] is ``reduce_pair(block, j, k)``.

    The reversed basis words are built once, and each pair word goes
    through one least rotation without the letter check: the block
    checked its basis words when it was built.
    """
    heads = [_pair_head(block, word) for word in block.basis]
    tails = [_pair_tail(block, word) for word in block.basis]
    return tuple(tuple(_class_of(head + tail) for tail in tails) for head in heads)


EntryLike = Union[int, Fraction, GaussianRational]


@dataclass(frozen=True)
class GramMatrix:
    """Square Hermitian matrix with GaussianRational entries."""

    entries: Tuple[Tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(GaussianRational.of(x) for x in row) for row in self.entries
        )
        n = len(rows)
        if n == 0:
            raise ValueError("Gram matrix must be nonempty")
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for j in range(n):
            for k in range(j, n):
                if rows[j][k] != rows[k][j].conjugate():
                    raise ValueError(f"matrix is not Hermitian at ({j}, {k})")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[EntryLike]]) -> "GramMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def zeros(cls, n: int) -> "GramMatrix":
        return cls.from_rows([[ZERO] * n for _ in range(n)])

    @classmethod
    def scaled_identity(cls, n: int, value: EntryLike) -> "GramMatrix":
        value = GaussianRational.of(value)
        return cls.from_rows(
            [[value if j == k else ZERO for k in range(n)] for j in range(n)]
        )

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def at(self, j: int, k: int) -> GaussianRational:
        return self.entries[j][k]

    def scaled(self, factor: EntryLike) -> "GramMatrix":
        factor = GaussianRational.of(factor)
        if not factor.is_real:
            raise ValueError("scaling by a non-real factor breaks Hermitian symmetry")
        return GramMatrix.from_rows(
            [[x * factor for x in row] for row in self.entries]
        )

    def __add__(self, other: "GramMatrix") -> "GramMatrix":
        if not isinstance(other, GramMatrix):
            return NotImplemented
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return GramMatrix.from_rows(
            [
                [self.at(j, k) + other.at(j, k) for k in range(self.dimension)]
                for j in range(self.dimension)
            ]
        )


def gram_from_vectors(
    vectors: Iterable[Sequence[EntryLike]],
) -> GramMatrix:
    """Sum of rank-one outer products v v* over the given coefficient vectors."""
    vecs = [tuple(GaussianRational.of(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("vectors must share one dimension")
    rows = [[ZERO for _ in range(dim)] for _ in range(dim)]
    for v in vecs:
        for j in range(dim):
            for k in range(dim):
                rows[j][k] = rows[j][k] + v[j] * v[k].conjugate()
    return GramMatrix.from_rows(rows)


def quadratic_form(gram: GramMatrix, vector: Sequence[EntryLike]) -> GaussianRational:
    """Exact value of v* G v."""
    v = tuple(GaussianRational.of(x) for x in vector)
    if len(v) != gram.dimension:
        raise ValueError(
            f"vector length {len(v)} does not match dimension {gram.dimension}"
        )
    total = ZERO
    for j in range(gram.dimension):
        if v[j].is_zero:
            continue
        lhs = v[j].conjugate()
        for k in range(gram.dimension):
            if v[k].is_zero:
                continue
            total = total + lhs * gram.at(j, k) * v[k]
    return total


@dataclass(frozen=True)
class PsdCheckResult:
    """Outcome of the exact PSD test.

    ``pivots`` are the diagonal pivot values in elimination order,
    padded with zeros for the rank-deficient tail.  When ``psd`` is
    False, ``witness`` is a vector with v* G v < 0, normalized so its
    first nonzero entry has positive real part (or, failing that,
    positive imaginary part).
    """

    psd: bool
    witness: Optional[Tuple[GaussianRational, ...]]
    pivots: Tuple[Fraction, ...]


def _normalize_witness(vec: List[GaussianRational]) -> Tuple[GaussianRational, ...]:
    for x in vec:
        if x.is_zero:
            continue
        if x.re < 0 or (x.re == 0 and x.im < 0):
            return tuple(-y for y in vec)
        break
    return tuple(vec)


def _gram_integers(gram: GramMatrix) -> Tuple[int, List[List[int]], List[List[int]]]:
    """``(L, Tre, Tim)``: L the lcm of the entry denominators, Tre + i Tim = L G.

    Each part is ``numerator * (L // denominator)``, so no Fraction is
    multiplied.
    """
    rows = gram.entries
    scale = lcm(*(x.denominator for row in rows for z in row for x in (z.re, z.im)))
    Tre = [[z.re.numerator * (scale // z.re.denominator) for z in row] for row in rows]
    Tim = [[z.im.numerator * (scale // z.im.denominator) for z in row] for row in rows]
    return scale, Tre, Tim


def _inexact_step(x: int, divisor: int) -> ArithmeticError:
    return ArithmeticError(f"fraction-free step: {divisor} does not divide {x}")


def psd_check_exact(gram: GramMatrix) -> PsdCheckResult:
    """Exact PSD test by pivoted, fraction-free elimination over the Gaussian integers.

    The Gram matrix is scaled by L, the lcm of its entry denominators,
    to an integer matrix T = L G (held as separate real and imaginary
    parts); a positive scale changes neither the answer, the pivot
    order nor the witness.  Pivoting on the largest remaining diagonal
    entry d (first index on a tie), each step replaces the remaining
    entries by T'[i][j] = (d T[i][j] - T[i][q] T[q][j]) / delta, with
    delta the previous pivot (1 at first): Bareiss' fraction-free form
    of the Schur complement.  By Sylvester's identity every T' entry is
    a bordered minor of T, so each division is exact; it is done with
    ``divmod`` and a nonzero remainder raises ArithmeticError rather
    than rounding.  The same update of v_i = delta u_i tracks, for every
    remaining row i, a vector u_i with Schur complement entry
    S[i][j] = T[i][j] / (delta L) = u_i* G u_j.

    Only the end result goes back to rationals: pivot k is
    minor_k / (minor_(k-1) L).  A negative diagonal entry gives the
    witness u_i; a zero diagonal with a nonzero off-diagonal entry
    s = S[i][j] gives u_j - s u_i, whose form value is exactly -2 |s|^2.
    """
    n = gram.dimension
    scale, Tre, Tim = _gram_integers(gram)
    # v_i = delta u_i as (vre[i], vim[i]); nonzero only at pivoted indices and i
    vre = [[1 if i == t else 0 for t in range(n)] for i in range(n)]
    vim = [[0] * n for _ in range(n)]
    delta = 1
    remaining = list(range(n))
    done: List[int] = []
    pivots: List[Fraction] = []

    def u(i: int) -> List[GaussianRational]:
        return [GaussianRational(Fraction(x, delta), Fraction(y, delta))
                for x, y in zip(vre[i], vim[i])]

    while remaining:
        for i in remaining:
            if Tre[i][i] < 0:
                return PsdCheckResult(False, _normalize_witness(u(i)), tuple(pivots))
        q = max(remaining, key=lambda i: Tre[i][i])
        d = Tre[q][q]
        if d == 0:
            culprit = None
            for i in remaining:
                for j in remaining:
                    if i < j and (Tre[i][j] or Tim[i][j]):
                        culprit = (i, j)
                        break
                if culprit:
                    break
            if culprit is None:
                pivots.extend(Fraction(0) for _ in remaining)
                break
            i, j = culprit
            s = GaussianRational(
                Fraction(Tre[i][j], delta * scale), Fraction(Tim[i][j], delta * scale)
            )
            witness = [uj - s * ui for ui, uj in zip(u(i), u(j))]
            return PsdCheckResult(False, _normalize_witness(witness), tuple(pivots))
        pivots.append(Fraction(d, delta * scale))
        remaining.remove(q)
        done.append(q)
        rq, iq = Tre[q], Tim[q]
        vrq, viq = vre[q], vim[q]
        for pos, i in enumerate(remaining):
            # T[q][i] = a + b i; row i gets T[i][q] = conj(T[q][i])
            a, b = rq[i], iq[i]
            vri, vii = vre[i], vim[i]
            # the divisions are inline: these loops are the O(n^3) part
            for t in done + [i]:
                x, y = vrq[t], viq[t]
                num_re = d * vri[t] - (a * x - b * y)
                num_im = d * vii[t] - (a * y + b * x)
                vri[t], rem_re = divmod(num_re, delta)
                vii[t], rem_im = divmod(num_im, delta)
                if rem_re or rem_im:
                    raise _inexact_step(num_re if rem_re else num_im, delta)
            ri, ii = Tre[i], Tim[i]
            for j in remaining[pos:]:
                c, e = rq[j], iq[j]
                num_re = d * ri[j] - (a * c + b * e)
                num_im = d * ii[j] - (a * e - b * c)
                re, rem_re = divmod(num_re, delta)
                im, rem_im = divmod(num_im, delta)
                if rem_re or rem_im:
                    raise _inexact_step(num_re if rem_re else num_im, delta)
                ri[j], ii[j] = re, im
                Tre[j][i], Tim[j][i] = re, -im
        delta = d

    return PsdCheckResult(True, None, tuple(pivots))


BlockPair = Tuple[SandwichBlock, GramMatrix]


@dataclass(frozen=True)
class Certificate:
    """Blocks of sandwich shapes with Gram matrices, targeting degree p, B-count r."""

    p: int
    r: int
    blocks: Tuple[BlockPair, ...]

    def __post_init__(self) -> None:
        try:
            check_degrees(self.p, self.r)
        except ValueError as exc:
            raise CertificateStructureError(str(exc)) from exc
        blocks = tuple((block, gram) for block, gram in self.blocks)
        if not blocks:
            raise CertificateStructureError("certificate must contain at least one block")
        for idx, (block, gram) in enumerate(blocks):
            if not isinstance(block, SandwichBlock) or not isinstance(gram, GramMatrix):
                raise CertificateStructureError(
                    f"block {idx}: expected (SandwichBlock, GramMatrix) pair"
                )
            if gram.dimension != block.dimension:
                raise CertificateStructureError(
                    f"block {idx}: Gram dimension {gram.dimension} does not match "
                    f"basis size {block.dimension}"
                )
            block.check_shape(self.p, self.r, name=f"block {idx}")
        object.__setattr__(self, "blocks", blocks)


def expand_gram(block: SandwichBlock, gram: GramMatrix) -> TracePolynomial:
    """Trace polynomial sum over j, k of G[j][k] times class(u_j u_k*)."""
    if gram.dimension != block.dimension:
        raise ValueError(
            f"Gram dimension {gram.dimension} does not match basis size "
            f"{block.dimension}"
        )
    scale, Tre, Tim = _gram_integers(gram)
    # each class's sum of L G entries, as integer [re, im]
    sums: Dict[CyclicClass, List[int]] = {}
    for classes, row_re, row_im in zip(pair_classes(block), Tre, Tim):
        for cls, x, y in zip(classes, row_re, row_im):
            if not (x or y):
                continue
            acc = sums.get(cls)
            if acc is None:
                sums[cls] = [x, y]
            else:
                acc[0] += x
                acc[1] += y
    terms = {
        cls: GaussianRational(Fraction(x, scale), Fraction(y, scale))
        for cls, (x, y) in sums.items()
        if x or y
    }
    return TracePolynomial._from_canonical(block.product_degree, terms)


def certificate_expansion(cert: Certificate) -> TracePolynomial:
    """Exact expansion of all blocks combined."""
    total = TracePolynomial(cert.p)
    for block, gram in cert.blocks:
        total = total + expand_gram(block, gram)
    return total


@dataclass(frozen=True)
class VerifyReport:
    """Exact verification outcome.

    ``residual`` is expansion minus target (zero polynomial iff matched).
    When some Gram matrix is not PSD, ``witness_block`` is its index and
    ``witness`` the exact witness vector for it.  ``min_pivots`` has one
    entry per block checked, in block order up to and including a
    failing one: the smallest pivot ``psd_check_exact`` reached on that
    block, or None if it reached none.  A zero says the Gram matrix
    lies on the PSD boundary.
    """

    matched: bool
    psd: bool
    residual: TracePolynomial
    witness: Optional[Tuple[GaussianRational, ...]]
    witness_block: Optional[int]
    min_pivots: Tuple[Optional[Fraction], ...] = ()

    @property
    def ok(self) -> bool:
        return self.matched and self.psd


def verify_against(cert: Certificate, target: TracePolynomial) -> VerifyReport:
    """Verify a certificate against an explicit target polynomial, exactly."""
    if target.degree != cert.p:
        raise ValueError(
            f"target degree {target.degree} does not match certificate p={cert.p}"
        )
    residual = certificate_expansion(cert) - target
    psd = True
    witness: Optional[Tuple[GaussianRational, ...]] = None
    witness_block: Optional[int] = None
    min_pivots: List[Optional[Fraction]] = []
    for idx, (_block, gram) in enumerate(cert.blocks):
        result = psd_check_exact(gram)
        min_pivots.append(min(result.pivots, default=None))
        if not result.psd:
            psd = False
            witness = result.witness
            witness_block = idx
            break
    return VerifyReport(
        matched=residual.is_zero,
        psd=psd,
        residual=residual,
        witness=witness,
        witness_block=witness_block,
        min_pivots=tuple(min_pivots),
    )


def verify_certificate(cert: Certificate) -> VerifyReport:
    """Verify against the full word sum for (p, r): the sum of all C(p, r) words."""
    return verify_against(cert, hurwitz_expand(cert.p, cert.r))


def swap_certificate(cert: Certificate) -> Certificate:
    """Exchange A and B throughout; the result targets (p, p - r).

    Gram matrices carry over unchanged because the letter swap is a
    relabeling of the sandwich words, not of the coefficients.
    """
    blocks = []
    for block, gram in cert.blocks:
        swapped = SandwichBlock(
            prefix=_HALF_SWAP[block.prefix],
            suffix=_HALF_SWAP[block.suffix],
            basis=tuple(swap_word(w) for w in block.basis),
        )
        blocks.append((swapped, gram))
    return Certificate(cert.p, cert.p - cert.r, tuple(blocks))


# ------------------------------------------------------------------
# JSON serialization
#
# certificate files:
#   {"p": int, "r": int,
#    "blocks": [{"prefix": "a"|"b"|null, "suffix": ..., "basis": [str, ...],
#                "gram": [[entry, ...], ...]}]}
# with entry = {"re": [num, den], "im": [num, den]}.
# ansatz files are the same without the "gram" keys (p and r optional).
# ------------------------------------------------------------------

def _fraction_to_pair(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def _pair_to_fraction(obj: object, what: str) -> Fraction:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(is_int(v) for v in obj)
    ):
        raise CertificateFormatError(f"{what}: expected [numerator, denominator]")
    if obj[1] == 0:
        raise CertificateFormatError(f"{what}: zero denominator")
    return Fraction(obj[0], obj[1])


def entry_to_json(value: GaussianRational) -> Dict[str, List[int]]:
    return {"re": _fraction_to_pair(value.re), "im": _fraction_to_pair(value.im)}


def entry_from_json(obj: object, what: str = "entry") -> GaussianRational:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise CertificateFormatError(f"{what}: expected an object with re and im")
    return GaussianRational(
        _pair_to_fraction(obj["re"], f"{what}.re"),
        _pair_to_fraction(obj["im"], f"{what}.im"),
    )


def rational_quad(value: GaussianRational) -> List[int]:
    """Flat [re_num, re_den, im_num, im_den] form used in reports."""
    return list(value.as_tuple())


def block_to_json(block: SandwichBlock) -> Dict[str, object]:
    return {
        "prefix": block.prefix,
        "suffix": block.suffix,
        "basis": list(block.basis),
    }


def _block_from_json(obj: object, what: str) -> SandwichBlock:
    if not isinstance(obj, dict):
        raise CertificateFormatError(f"{what}: expected an object")
    for key in ("prefix", "suffix", "basis"):
        if key not in obj:
            raise CertificateFormatError(f"{what}: missing key {key!r}")
    basis = obj["basis"]
    if not isinstance(basis, list) or not all(isinstance(w, str) for w in basis):
        raise CertificateFormatError(f"{what}: basis must be a list of words")
    try:
        return SandwichBlock(
            prefix=obj["prefix"], suffix=obj["suffix"], basis=tuple(basis)
        )
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"{what}: {exc}") from exc


def _gram_from_json(obj: object, what: str) -> GramMatrix:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise CertificateFormatError(f"{what}: gram must be a list of rows")
    rows = [
        [entry_from_json(cell, f"{what}[{j}][{k}]") for k, cell in enumerate(row)]
        for j, row in enumerate(obj)
    ]
    try:
        return GramMatrix.from_rows(rows)
    except ValueError as exc:
        raise CertificateFormatError(f"{what}: {exc}") from exc


def certificate_to_json(cert: Certificate) -> Dict[str, object]:
    blocks = []
    for block, gram in cert.blocks:
        doc = block_to_json(block)
        doc["gram"] = [
            [entry_to_json(gram.at(j, k)) for k in range(gram.dimension)]
            for j in range(gram.dimension)
        ]
        blocks.append(doc)
    return {"p": cert.p, "r": cert.r, "blocks": blocks}


def certificate_from_json(data: object) -> Certificate:
    if not isinstance(data, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    for key in ("p", "r", "blocks"):
        if key not in data:
            raise CertificateFormatError(f"certificate document missing key {key!r}")
    p, r = data["p"], data["r"]
    if not (is_int(p) and is_int(r)):
        raise CertificateFormatError("p and r must be integers")
    raw_blocks = data["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise CertificateFormatError("blocks must be a nonempty list")
    pairs = []
    for idx, raw in enumerate(raw_blocks):
        what = f"block {idx}"
        block = _block_from_json(raw, what)
        if "gram" not in raw:
            raise CertificateFormatError(f"{what}: missing key 'gram'")
        gram = _gram_from_json(raw["gram"], what)
        pairs.append((block, gram))
    try:
        return Certificate(p=p, r=r, blocks=tuple(pairs))
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CertificateFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_certificate(path: str) -> Certificate:
    return certificate_from_json(_load_json(path))


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ansatz_from_json(
    data: object,
) -> Tuple[Optional[int], Optional[int], Tuple[SandwichBlock, ...]]:
    """Parse an ansatz document: blocks only, with optional p and r hints."""
    if not isinstance(data, dict):
        raise CertificateFormatError("ansatz document must be a JSON object")
    if "blocks" not in data:
        raise CertificateFormatError("ansatz document missing key 'blocks'")
    raw_blocks = data["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise CertificateFormatError("blocks must be a nonempty list")
    blocks = tuple(
        _block_from_json(raw, f"block {idx}") for idx, raw in enumerate(raw_blocks)
    )
    hints = []
    for key in ("p", "r"):
        value = data.get(key)
        if value is not None and not is_int(value):
            raise CertificateFormatError(f"{key} must be an integer when present")
        hints.append(value)
    return hints[0], hints[1], blocks


def load_ansatz(
    path: str,
) -> Tuple[Optional[int], Optional[int], Tuple[SandwichBlock, ...]]:
    return ansatz_from_json(_load_json(path))


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled data file.

    Ships with certificates p7r0.json .. p7r3.json and the example
    ansatz p6r3_restricted_ansatz.json.
    """
    resource = importlib.resources.files("hurwitz_sos") / "data" / name
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return str(resource)


def bundled_certificate(name: str) -> Certificate:
    """Load one of the bundled certificates by file name."""
    return load_certificate(bundled_path(name))


def verify_report_to_json(report: VerifyReport) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "matched": report.matched,
        "psd": report.psd,
        "ok": report.ok,
        "residual": {
            str(cls): rational_quad(value) for cls, value in report.residual.items()
        },
    }
    if report.witness is not None:
        doc["witness_block"] = report.witness_block
        doc["witness"] = [rational_quad(x) for x in report.witness]
    else:
        doc["witness_block"] = None
        doc["witness"] = None
    doc["min_pivots"] = [
        None if x is None else _fraction_to_pair(x) for x in report.min_pivots
    ]
    return doc
