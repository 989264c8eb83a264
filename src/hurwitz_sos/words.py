"""Words over the alphabet {A, B} and their cyclic trace classes.

A word stands for the product of the matrices it spells.  Because the
trace is invariant under cyclic rotation, words of a fixed length fall
into classes keyed by the lexicographically least rotation (with A < B),
and linear combinations of those classes are the currency the rest of
the package trades in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from .rational import GaussianRational, ZERO

ALPHABET = "AB"
_SWAP_TABLE = str.maketrans("AB", "BA")


def check_word(word: str) -> str:
    """Validate a nonempty word over {A, B} and return it unchanged."""
    if not isinstance(word, str):
        raise TypeError(f"word must be str, got {type(word).__name__}")
    if not word:
        raise ValueError("word must be nonempty")
    for ch in word:
        if ch not in ALPHABET:
            raise ValueError(f"invalid letter {ch!r} in word {word!r}")
    return word


def check_degrees(p: int, r: int) -> None:
    """Validate a word length p >= 1 and a B count r in [0, p]; a bool is rejected."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"p must be a positive int, got {p!r}")
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= p:
        raise ValueError(f"r must lie in [0, {p}], got {r!r}")


def rotations(word: str) -> Iterator[str]:
    """All cyclic rotations of a word, starting offsets 0..len-1."""
    check_word(word)
    doubled = word + word
    n = len(word)
    for i in range(n):
        yield doubled[i : i + n]


def least_rotation(word: str) -> str:
    """Lexicographically least rotation of a word."""
    return min(rotations(word))


def reverse_word(word: str) -> str:
    """Reverse a word; for Hermitian letter matrices this spells the adjoint."""
    return check_word(word)[::-1]


def swap_word(word: str) -> str:
    """Exchange every A with B and vice versa."""
    return check_word(word).translate(_SWAP_TABLE)


@dataclass(frozen=True, order=True)
class CyclicClass:
    """Equivalence class of a word under cyclic rotation.

    The stored representative is always the least rotation, so two
    classes compare equal exactly when their words are rotations of one
    another.
    """

    representative: str
    length: int = field(init=False, compare=False)
    b_count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        canon = least_rotation(self.representative)
        object.__setattr__(self, "representative", canon)
        object.__setattr__(self, "length", len(canon))
        object.__setattr__(self, "b_count", canon.count("B"))

    def __str__(self) -> str:
        return self.representative


ClassLike = Union[str, CyclicClass]
CoefficientLike = Union[int, Fraction, GaussianRational]


def canonical_rotation(word: ClassLike) -> CyclicClass:
    """Cyclic class of a word (identity on classes)."""
    if isinstance(word, CyclicClass):
        return word
    return CyclicClass(word)


def reverse_class(cls: ClassLike) -> CyclicClass:
    """Class of the reversed word.  Well defined: reversal maps rotations to rotations."""
    return CyclicClass(reverse_word(canonical_rotation(cls).representative))


class TracePolynomial:
    """Exact linear combination of cyclic classes sharing one word length.

    Immutable in practice: arithmetic returns new instances and zero
    coefficients are pruned, so equality is coefficient-by-coefficient
    equality of the stored maps.
    """

    __slots__ = ("_degree", "_terms")

    def __init__(
        self,
        degree: int,
        terms: Optional[Mapping[ClassLike, CoefficientLike]] = None,
    ) -> None:
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"degree must be a positive int, got {degree!r}")
        self._degree = degree
        data: Dict[CyclicClass, GaussianRational] = {}
        if terms:
            for key, value in terms.items():
                cls = canonical_rotation(key)
                if cls.length != degree:
                    raise ValueError(
                        f"class {cls} has length {cls.length}, expected {degree}"
                    )
                coeff = data.get(cls, ZERO) + GaussianRational.of(value)
                if coeff.is_zero:
                    data.pop(cls, None)
                else:
                    data[cls] = coeff
        self._terms = data

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key: ClassLike) -> GaussianRational:
        return self._terms.get(canonical_rotation(key), ZERO)

    def items(self) -> Tuple[Tuple[CyclicClass, GaussianRational], ...]:
        """Terms sorted by representative."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))

    def support(self) -> Tuple[CyclicClass, ...]:
        return tuple(sorted(self._terms))

    def total(self) -> GaussianRational:
        """Sum of all coefficients."""
        out = ZERO
        for value in self._terms.values():
            out = out + value
        return out

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self._degree == other._degree and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._degree, frozenset(self._terms.items())))

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        if self._degree != other._degree:
            raise ValueError(
                f"degree mismatch: {self._degree} vs {other._degree}"
            )
        merged: Dict[CyclicClass, GaussianRational] = dict(self._terms)
        for cls, value in other._terms.items():
            merged[cls] = merged.get(cls, ZERO) + value
        return TracePolynomial(self._degree, merged)

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial(
            self._degree, {cls: -value for cls, value in self._terms.items()}
        )

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor: CoefficientLike) -> "TracePolynomial":
        factor = GaussianRational.of(factor)
        return TracePolynomial(
            self._degree,
            {cls: value * factor for cls, value in self._terms.items()},
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{cls}: {value}" for cls, value in self.items())
        return f"TracePolynomial({self._degree}, {{{body}}})"


def hurwitz_expand(p: int, r: int) -> TracePolynomial:
    """Sum of all length-p words with exactly r B letters, grouped by cyclic class.

    Enumerates the C(p, r) placements of the B letters directly, so the
    total multiplicity is exactly C(p, r) by construction.
    """
    check_degrees(p, r)
    counts: Counter[str] = Counter()
    for positions in combinations(range(p), r):
        letters = ["A"] * p
        for i in positions:
            letters[i] = "B"
        counts[least_rotation("".join(letters))] += 1
    return TracePolynomial(p, dict(counts))


def swap_letters(poly: TracePolynomial) -> TracePolynomial:
    """Exchange the roles of A and B in every class of a polynomial."""
    swapped: Dict[str, GaussianRational] = {}
    for cls, value in poly.items():
        key = least_rotation(swap_word(cls.representative))
        swapped[key] = swapped.get(key, ZERO) + value
    return TracePolynomial(poly.degree, swapped)
