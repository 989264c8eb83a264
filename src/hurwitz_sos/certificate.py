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
import os
import stat
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .rational import (
    GaussianRational,
    Scalarish,
    _over_lcm,
    _parts_quad,
    _ratio,
    rational_quad,
)
from .words import (
    CyclicClass,
    TracePolynomial,
    _SWAP_TABLE,
    _least_rotation,
    _normal,
    check_degrees,
    check_word,
    hurwitz_expand,
    is_int,
    swap_word,
)

__all__ = [
    "AnsatzMismatchError",
    "Certificate",
    "CertificateFormatError",
    "CertificateStructureError",
    "GramMatrix",
    "PsdCheckResult",
    "SandwichBlock",
    "VerifyReport",
    "bundled_certificate",
    "bundled_path",
    "certificate_expansion",
    "certificate_from_json",
    "certificate_to_json",
    "expand_gram",
    "load_ansatz",
    "load_certificate",
    "pair_classes",
    "psd_check_exact",
    "quadratic_form",
    "save_certificate",
    "swap_certificate",
    "verify_against",
    "verify_certificate",
]


class CertificateFormatError(ValueError):
    """A certificate or ansatz document does not follow the JSON schema."""


class CertificateStructureError(ValueError):
    """A structurally inconsistent certificate was assembled."""


class AnsatzMismatchError(ValueError):
    """A sandwich block cannot produce words of the requested degree and B-count."""


HALF_LETTERS = ("a", "b")


@dataclass(frozen=True)
class SandwichBlock:
    """A sandwich shape: optional half letters around a basis of core words.

    Basis entry ``W`` stands for the matrix product prefix * W * suffix
    (half letters included).  The trace of sandwich j against the adjoint
    of sandwich k is the single full-letter word
    W_j [suffix^2] reverse(W_k) [prefix^2], and this one rule fixes both
    the pair classes and the shape: the block fits (p, r) when every such
    word has length p and r B letters.
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
        if isinstance(self.basis, str):
            raise ValueError(f"basis must be a sequence of words, got str {self.basis!r}")
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

    def _pair_parts(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The heads W_j [suffix^2] and tails reverse(W_k) [prefix^2]: pair
        (j, k) reduces to the word heads[j] + tails[k]."""
        suffix, prefix = (self.suffix or "").upper(), (self.prefix or "").upper()
        heads = tuple(word + suffix for word in self.basis)
        tails = tuple(word[::-1] + prefix for word in self.basis)
        return heads, tails

    def check_shape(self, p: int, r: int, name: str = "block") -> None:
        """Raise AnsatzMismatchError unless every pair reduces to degree p with r B's.

        The basis words share one length, so every pair word has the
        length of the first, and the B count of pair (j, k) is the mean of
        those of pairs (j, j) and (k, k): the diagonal pairs decide it.
        """
        heads, tails = self._pair_parts()
        degree = len(heads[0] + tails[0])
        if degree != p:
            raise AnsatzMismatchError(
                f"{name}: sandwich products have length {degree}, "
                f"target degree is {p}"
            )
        for word, head, tail in zip(self.basis, heads, tails):
            got = (head + tail).count("B")
            if got != r:
                raise AnsatzMismatchError(
                    f"{name}: word {word!r} yields products with {got} B letters, "
                    f"target needs {r}"
                )


def pair_classes(block: SandwichBlock) -> Tuple[Tuple[CyclicClass, ...], ...]:
    """The d x d table whose entry [j][k] is the class of sandwich j times
    the adjoint of sandwich k.

    With u = prefix W suffix, cyclicity moves the trailing prefix* = prefix
    of the adjoint factor to the front, and adjacent identical half
    letters square to the full letter, leaving the pair word
    W_j [suffix^2] reverse(W_k) [prefix^2], the block's one pair rule,
    built as heads[j] + tails[k] from ``SandwichBlock._pair_parts``.

    The first pair word of a class goes through one least rotation,
    without the letter check (the block checked its basis words when it
    was built), and its class is recorded under every rotation of the
    word.  A later pair word that is a rotation of an earlier one is then
    one dict probe.  The table lives for this call only.
    """
    heads, tails = block._pair_parts()
    n = len(heads[0] + tails[0])
    seen: Dict[str, CyclicClass] = {}
    rows = []
    for head in heads:
        row = []
        for tail in tails:
            word = head + tail
            cls = seen.get(word)
            if cls is None:
                cls = str.__new__(CyclicClass, _least_rotation(word))
                doubled = word + word
                for i in range(n):
                    seen[doubled[i : i + n]] = cls
            row.append(cls)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class GramMatrix:
    """Square Hermitian matrix over the Gaussian rationals, held as integers.

    Entry (j, k) is (re[j][k] + i im[j][k]) / scale, with ``scale`` a
    positive int and every part an int (not a bool or numpy scalar).  The
    constructor checks Hermitian symmetry on the integers and divides
    ``scale`` and every part by their gcd, so ``scale`` is the lcm L of
    the entry denominators, ``re`` + i ``im`` is L G, and equal matrices
    have equal fields.
    """

    scale: int
    re: Tuple[Tuple[int, ...], ...]
    im: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        re = tuple(tuple(row) for row in self.re)
        im = tuple(tuple(row) for row in self.im)
        parts = [x for part in (re, im) for row in part for x in row]
        if type(self.scale) is not int:
            raise TypeError(f"scale must be an int, got {type(self.scale).__name__}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        for x in parts:
            if type(x) is not int:
                raise TypeError(f"Gram parts must be ints, got {type(x).__name__}")
        n = len(re)
        if n == 0:
            raise ValueError("Gram matrix must be nonempty")
        if len(im) != n or any(len(row) != n for part in (re, im) for row in part):
            raise ValueError("Gram matrix must be square")
        for j in range(n):
            for k in range(j, n):
                if re[j][k] != re[k][j] or im[j][k] != -im[k][j]:
                    raise ValueError(f"matrix is not Hermitian at ({j}, {k})")
        g = gcd(self.scale, *parts)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "re", tuple(tuple(x // g for x in row) for row in re))
        object.__setattr__(self, "im", tuple(tuple(x // g for x in row) for row in im))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalarish]]) -> "GramMatrix":
        """The matrix with these entries, over the lcm of their denominators."""
        quads = [[rational_quad(GaussianRational.of(x)) for x in row] for row in rows]
        return cls._lift(quads)

    @classmethod
    def _lift(cls, quads: List[List[Sequence[int]]]) -> "GramMatrix":
        """The matrix of these ``rational_quad`` forms, over the lcm L of their
        denominators as written.  With L' that of the reduced ones, gcd(L, L v_1,
        ..., L v_n) = L / L': the constructor ends at the same fields."""
        scale, parts = _over_lcm([q for row in quads for q in row])
        cells = iter(parts)
        grid = [[next(cells) for _ in row] for row in quads]
        return cls(
            scale,
            [[re for re, _ in row] for row in grid],
            [[im for _, im in row] for row in grid],
        )

    @property
    def dimension(self) -> int:
        return len(self.re)

    def at(self, j: int, k: int) -> GaussianRational:
        return _ratio(self.re[j][k], self.im[j][k], self.scale)


def quadratic_form(gram: GramMatrix, vector: Sequence[Scalarish]) -> GaussianRational:
    """Exact value of v* G v.

    With D the lcm of the denominators of v, w = D v has Gaussian
    integer entries, so v* G v is w* (L G) w / (D^2 L), L = ``gram.scale``:
    summed on ``gram.re`` and ``gram.im`` and divided once.
    """
    v = tuple(GaussianRational.of(x) for x in vector)
    if len(v) != gram.dimension:
        raise ValueError(
            f"vector length {len(v)} does not match dimension {gram.dimension}"
        )
    D, parts = _over_lcm([rational_quad(x) for x in v])
    w = [(k, a, b) for k, (a, b) in enumerate(parts) if a or b]
    re = im = 0
    for j, a, b in w:
        row_re, row_im = gram.re[j], gram.im[j]
        # s = (L G w)_j, then conj(w_j) s = (a - i b) s
        s_re = sum(row_re[k] * c - row_im[k] * e for k, c, e in w)
        s_im = sum(row_re[k] * e + row_im[k] * c for k, c, e in w)
        re += a * s_re + b * s_im
        im += a * s_im - b * s_re
    return _ratio(re, im, D * D * gram.scale)


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


def _witness(
    start: Dict[int, Tuple[int, int]], den: int, done: List[int],
    Tre: List[List[int]], Tim: List[List[int]],
) -> Tuple[GaussianRational, ...]:
    """The vector sum_k (start[k] / den) u_k, normalized as PsdCheckResult states.

    Each start[k] is a Gaussian integer (re, im).  Pivot q ran
    u_k <- u_k - (T[q][k] / T[q][q]) u_q.  Row q of T is whole at its
    pivot, for every index then remaining (its cells left of the diagonal
    are filled there), and is not written after it, so back-substitution
    in reversed pivot order gives y[q] = -sum_k y[k] T[q][k] / T[q][q],
    here on integer numerators over one denominator that takes the
    factor T[q][q].  Only those cells of row q are read.
    """
    y = dict(start)
    for q in reversed(done):
        rq, iq, d = Tre[q], Tim[q], Tre[q][q]
        re = sum(a * rq[k] - b * iq[k] for k, (a, b) in y.items())
        im = sum(a * iq[k] + b * rq[k] for k, (a, b) in y.items())
        y = {k: (a * d, b * d) for k, (a, b) in y.items()}
        y[q] = (-re, -im)
        den *= d
    vec = [y.get(t, (0, 0)) for t in range(len(Tre))]
    a, b = next((z for z in vec if z != (0, 0)), (0, 0))
    if a < 0 or (a == 0 and b < 0):
        den = -den
    return tuple(_ratio(a, b, den) for a, b in vec)


def psd_check_exact(gram: GramMatrix) -> PsdCheckResult:
    """Exact PSD test by pivoted, fraction-free elimination over the Gaussian integers.

    It runs on a copy of the Gram matrix's integer form T = L G, with L
    = ``gram.scale`` the lcm of its entry denominators (separate real and
    imaginary parts); a positive scale changes neither the answer, the
    pivot order nor the witness.  Pivoting on the largest remaining diagonal
    entry d (first index on a tie), each step replaces the remaining
    entries by T'[i][j] = (d T[i][j] - T[i][q] T[q][j]) / delta, with
    delta the previous pivot (1 at first): Bareiss' fraction-free form
    of the Schur complement.  By Sylvester's identity every T' entry is
    a bordered minor of T, so each division is exact; it is done with
    ``divmod`` and a nonzero remainder raises ArithmeticError rather
    than rounding.  Only the end result goes back to rationals: pivot k
    is minor_k / (minor_(k-1) L).

    Each remaining entry is S[i][j] = T[i][j] / (delta L) = u_i* G u_j,
    with u_i = e_i - sum over earlier pivots q of (T[q][i] / T[q][q]) u_q.
    S is Hermitian, so only the upper triangle i <= j of the remaining
    entries is updated.  At its pivot, row q gets its cells left of the
    diagonal once, as the conjugates of column q above it, and so holds
    T[q][i] for every remaining i when the update reads it.
    No u_i is kept while the check runs; on failure the witness is read
    off the stored pivot rows.  A negative diagonal entry gives u_i; a
    zero diagonal with a nonzero off-diagonal entry s = S[i][j], i < j,
    gives u_j - s u_i, whose form value is exactly -2 |s|^2.
    """
    scale, Tre, Tim = gram.scale, [list(r) for r in gram.re], [list(r) for r in gram.im]
    delta = 1
    remaining = list(range(gram.dimension))
    done: List[int] = []
    pivots: List[Fraction] = []

    while remaining:
        for i in remaining:
            if Tre[i][i] < 0:
                witness = _witness({i: (1, 0)}, 1, done, Tre, Tim)
                return PsdCheckResult(False, witness, tuple(pivots))
        q = max(remaining, key=lambda i: Tre[i][i])
        d = Tre[q][q]
        if d == 0:
            culprit = next(((i, j) for i in remaining for j in remaining
                            if i < j and (Tre[i][j] or Tim[i][j])), None)
            if culprit is None:
                pivots.extend(Fraction(0) for _ in remaining)
                break
            # u_j - s u_i with s = T[i][j] / (delta L), over the denominator delta L
            i, j = culprit
            start = {j: (delta * scale, 0), i: (-Tre[i][j], -Tim[i][j])}
            witness = _witness(start, delta * scale, done, Tre, Tim)
            return PsdCheckResult(False, witness, tuple(pivots))
        pivots.append(Fraction(d, delta * scale))
        remaining.remove(q)
        done.append(q)
        rq, iq = Tre[q], Tim[q]
        for i in remaining:
            if i < q:  # row q left of its diagonal: T[q][i] = conj(T[i][q])
                rq[i], iq[i] = Tre[i][q], -Tim[i][q]
        for pos, i in enumerate(remaining):
            # T[q][i] = a + b i, and T[i][q] = conj(T[q][i])
            a, b = rq[i], iq[i]
            ri, ii = Tre[i], Tim[i]
            # the divisions are inline: this loop is the O(n^3) part
            for j in remaining[pos:]:
                c, e = rq[j], iq[j]
                num_re = d * ri[j] - (a * c + b * e)
                num_im = d * ii[j] - (a * e - b * c)
                re, rem_re = divmod(num_re, delta)
                im, rem_im = divmod(num_im, delta)
                if rem_re or rem_im:
                    x = num_re if rem_re else num_im
                    raise ArithmeticError(
                        f"fraction-free step: {delta} does not divide {x}"
                    )
                ri[j], ii[j] = re, im
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
        blocks = tuple(self.blocks)
        if not blocks:
            raise CertificateStructureError("certificate must contain at least one block")
        for idx, pair in enumerate(blocks):
            is_pair = isinstance(pair, (tuple, list)) and len(pair) == 2
            block, gram = pair if is_pair else (None, None)
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
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))


def expand_gram(block: SandwichBlock, gram: GramMatrix) -> TracePolynomial:
    """Trace polynomial sum over j, k of G[j][k] times class(u_j u_k*): each
    class's sum of the integer parts of L G (L = ``gram.scale``), over L."""
    if gram.dimension != block.dimension:
        raise ValueError(
            f"Gram dimension {gram.dimension} does not match basis size "
            f"{block.dimension}"
        )
    table = pair_classes(block)
    # each class's sum of L G entries, as integer (re, im)
    sums: Dict[CyclicClass, Tuple[int, int]] = {}
    for classes, row_re, row_im in zip(table, gram.re, gram.im):
        for cls, x, y in zip(classes, row_re, row_im):
            if x or y:
                u, v = sums.get(cls, (0, 0))
                sums[cls] = (u + x, v + y)
    # the basis words share one length, so every pair word has the first's
    return TracePolynomial._wrap(len(table[0][0]), *_normal(gram.scale, sums))


def certificate_expansion(cert: Certificate) -> TracePolynomial:
    """Exact expansion of all blocks combined: the first block's, plus the rest."""
    first, *rest = cert.blocks
    total = expand_gram(*first)
    for block, gram in rest:
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
    witness_block: Optional[int] = None
    min_pivots: List[Optional[Fraction]] = []
    for idx, (_block, gram) in enumerate(cert.blocks):
        result = psd_check_exact(gram)
        min_pivots.append(min(result.pivots, default=None))
        if not result.psd:
            witness_block = idx
            break
    # a certificate has a block, and a PSD result's witness is None
    return VerifyReport(
        matched=residual.is_zero,
        psd=witness_block is None,
        residual=residual,
        witness=result.witness,
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
            prefix=block.prefix and block.prefix.translate(_SWAP_TABLE),
            suffix=block.suffix and block.suffix.translate(_SWAP_TABLE),
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
# with entry = {"re": [num, den], "im": [num, den]}, den any nonzero int, in
# lowest terms or not; files are written in lowest terms with den > 0.
# ansatz files are the same without the "gram" keys (p and r optional).
# ------------------------------------------------------------------

def _quad_from_json(obj: object, what: str) -> List[int]:
    """A cell {"re": [num, den], "im": [num, den]} as its four checked ints."""
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise CertificateFormatError(f"{what}: expected an object with re and im")
    for part in ("re", "im"):
        pair = obj[part]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(is_int, pair))):
            raise CertificateFormatError(f"{what}.{part}: expected [numerator, denominator]")
        if pair[1] == 0:
            raise CertificateFormatError(f"{what}.{part}: zero denominator")
    return [*obj["re"], *obj["im"]]


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
    quads = [
        [_quad_from_json(cell, f"{what}[{j}][{k}]") for k, cell in enumerate(row)]
        for j, row in enumerate(obj)
    ]
    try:
        return GramMatrix._lift(quads)
    except ValueError as exc:
        raise CertificateFormatError(f"{what}: {exc}") from exc


def _pair_from_json(obj: object, what: str) -> Tuple[SandwichBlock, GramMatrix]:
    block = _block_from_json(obj, what)
    if "gram" not in obj:
        raise CertificateFormatError(f"{what}: missing key 'gram'")
    return block, _gram_from_json(obj["gram"], what)


def _blocks_from_json(data: dict, parse: Callable[[object, str], object]) -> tuple:
    """Parse each entry of a document's ``blocks``, which must be a nonempty list."""
    raw_blocks = data["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise CertificateFormatError("blocks must be a nonempty list")
    return tuple(parse(raw, f"block {idx}") for idx, raw in enumerate(raw_blocks))


def certificate_to_json(cert: Certificate) -> Dict[str, object]:
    blocks = [{
        "prefix": block.prefix,
        "suffix": block.suffix,
        "basis": list(block.basis),
        "gram": [[{"re": q[:2], "im": q[2:]}
                  for q in (_parts_quad(x, y, gram.scale) for x, y in zip(re_row, im_row))]
                 for re_row, im_row in zip(gram.re, gram.im)],
    } for block, gram in cert.blocks]
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
    blocks = _blocks_from_json(data, _pair_from_json)
    try:
        return Certificate(p=p, r=r, blocks=blocks)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc


def _load_json(path: str) -> object:
    """Parse a JSON file; text that is not UTF-8, malformed JSON, an int too
    long to convert or JSON nested too deeply is a format error naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError too, so it comes first
            raise CertificateFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except ValueError as exc:  # JSONDecodeError, or the int digit limit
            raise CertificateFormatError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise CertificateFormatError(f"{path}: JSON nested too deeply") from exc


def load_certificate(path: str) -> Certificate:
    return certificate_from_json(_load_json(path))


def _dump(cert: Certificate, target: Union[str, int]) -> None:
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_certificate(cert: Certificate, path: str) -> None:
    """Write ``cert`` to ``path`` as JSON.  A regular or new file is written
    all or nothing: a temporary file beside it (or its symlink target), made
    as ``open(path, "w")`` would make it and written with O_SYNC, is renamed
    over it, so a failed write leaves an existing file as it was.  A device,
    FIFO or file whose directory admits no new file is written in place."""
    mode = os.stat(path).st_mode if os.path.exists(path) else None
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".certificate-{os.urandom(6).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_SYNC
    try:
        fd = os.open(tmp, flags, 0o666) if mode is None or stat.S_ISREG(mode) else -1
    except PermissionError:
        fd = -1
    if fd < 0:
        _dump(cert, path)
        return
    try:
        _dump(cert, fd)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def ansatz_from_json(
    data: object,
) -> Tuple[Optional[int], Optional[int], Tuple[SandwichBlock, ...]]:
    """Parse an ansatz document: blocks only, with optional p and r hints."""
    if not isinstance(data, dict):
        raise CertificateFormatError("ansatz document must be a JSON object")
    if "blocks" not in data:
        raise CertificateFormatError("ansatz document missing key 'blocks'")
    blocks = _blocks_from_json(data, _block_from_json)
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
