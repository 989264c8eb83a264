"""Words over the alphabet {A, B} and their cyclic trace classes.

A word stands for the product of the matrices it spells.  Because the
trace is invariant under cyclic rotation, words of a fixed length fall
into classes keyed by the lexicographically least rotation (with A < B),
and linear combinations of those classes are the currency the rest of
the package trades in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from .rational import ONE, GaussianRational, ZERO

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


def is_int(value: object) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_degrees(p: int, r: int) -> None:
    """Validate a word length p >= 1 and a B count r in [0, p]; a bool is rejected."""
    if not is_int(p) or p < 1:
        raise ValueError(f"p must be a positive int, got {p!r}")
    if not is_int(r) or not 0 <= r <= p:
        raise ValueError(f"r must lie in [0, {p}], got {r!r}")


def least_rotation(word: str) -> str:
    """Lexicographically least rotation of a word."""
    return _least_rotation(check_word(word))


def _least_rotation(word: str) -> str:
    """``least_rotation`` without the letter check, for words built from checked ones."""
    n = len(word)
    doubled = word + word
    # a plain loop: min() over a generator of the slices is about 20% slower
    best = word
    for i in range(1, n):
        rotation = doubled[i : i + n]
        if rotation < best:
            best = rotation
    return best


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
    another.  ``length`` and ``b_count`` are derived from it.
    """

    representative: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "representative", least_rotation(self.representative))

    @classmethod
    def _trusted(cls, representative: str) -> "CyclicClass":
        """Class of a word that is already its own least rotation: no check, no rotation."""
        obj = object.__new__(cls)
        # filled through __dict__, past the frozen __setattr__, once per class
        obj.__dict__["representative"] = representative
        return obj

    @property
    def length(self) -> int:
        return len(self.representative)

    @property
    def b_count(self) -> int:
        return self.representative.count("B")

    def __str__(self) -> str:
        return self.representative


def _class_of(word: str) -> CyclicClass:
    """Class of a word known to be over {A, B}: one unchecked least rotation."""
    return CyclicClass._trusted(_least_rotation(word))


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
        if not is_int(degree) or degree < 1:
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
                coeff = GaussianRational.of(value)
                if cls in data:
                    coeff = data[cls] + coeff
                if coeff.is_zero:
                    data.pop(cls, None)
                else:
                    data[cls] = coeff
        self._terms = data

    @classmethod
    def _from_canonical(
        cls, degree: int, terms: Dict[CyclicClass, GaussianRational]
    ) -> "TracePolynomial":
        """Wrap ``terms`` as they are, without the checks of ``__init__``.

        Every key must be a class of length ``degree`` and every value a
        nonzero GaussianRational.  The dict is kept, not copied, so the
        caller hands over a fresh one.
        """
        poly = object.__new__(cls)
        poly._degree = degree
        poly._terms = terms
        return poly

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
            previous = merged.get(cls)
            if previous is None:
                merged[cls] = value
                continue
            total = previous + value
            if total.is_zero:
                del merged[cls]
            else:
                merged[cls] = total
        return TracePolynomial._from_canonical(self._degree, merged)

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial._from_canonical(
            self._degree, {cls: -value for cls, value in self._terms.items()}
        )

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor: CoefficientLike) -> "TracePolynomial":
        factor = GaussianRational.of(factor)
        if factor.is_zero:
            return TracePolynomial(self._degree)
        # a product of nonzero Gaussian rationals is nonzero
        return TracePolynomial._from_canonical(
            self._degree,
            {cls: value * factor for cls, value in self._terms.items()},
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{cls}: {value}" for cls, value in self.items())
        return f"TracePolynomial({self._degree}, {{{body}}})"


def _run_length_necklaces(r: int, m: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Sequences g of r nonnegative ints summing to m, each greatest among its rotations.

    Yields ``(g, period)`` with ``period`` the primitive period of g.
    This is the FKM necklace generator (Fredricksen, Kessler and Maiorana)
    with the order of the integers reversed and the fixed sum pruned
    into the bounds of each position.  It walks the prefix tree with an
    explicit position counter instead of recursion, so its depth is not
    tied to the interpreter's recursion limit.  Sequences come out in
    decreasing lexicographic order.
    """
    a = [m] * (r + 1)  # a[0] = m is a sentinel bounding a[1] from above
    per = [1] * (r + 1)  # per[t]: length of the longest Lyndon prefix of a[1..t]
    left = [m] * (r + 2)  # left[t]: sum still to place in positions t..r
    low = [0] * (r + 1)  # low[t]: smallest a[t] that leaves left[t+1] placeable
    low[1] = -(-m // r)  # a[1] is the largest entry, so at least m / r
    a[1] = m + 1  # one above the first value tried at position 1
    t = 1
    while t >= 1:
        value = a[t] - 1
        if value < low[t]:
            t -= 1
            continue
        a[t] = value
        per[t] = per[t - 1] if value == a[t - per[t - 1]] else t
        left[t + 1] = left[t] - value
        if t == r:
            if r % per[t] == 0:
                yield tuple(a[1:]), per[t]
            continue
        t += 1
        a[t] = min(a[t - per[t - 1]], left[t]) + 1
        low[t] = max(0, left[t] - (r - t) * a[1])


def hurwitz_expand(p: int, r: int) -> TracePolynomial:
    """Sum of all length-p words with exactly r B letters, grouped by cyclic class.

    Enumerates the classes, not the C(p, r) words.  A word with r >= 1
    B's is A^g1 B A^g2 B ... A^gr B up to rotation, and since A < B a
    longer leading run of A's makes a smaller word, so the least
    rotation is the one whose run lengths (g1, ..., gr) are greatest
    among their rotations: one fixed-sum necklace of run lengths per
    class (the run-length form that Sawada's fixed-content generator
    also works in).  A class holds as many words as it has distinct
    rotations, its primitive period p * q / r for a run-length period
    q; so ``ABABAB`` in (6, 3) has multiplicity 2.  The multiplicities
    add up to C(p, r).

    Each necklace is already a least rotation, so it becomes a class
    as it is, and the classes sharing a multiplicity share one
    coefficient object.
    """
    check_degrees(p, r)
    if r == 0:
        return TracePolynomial._from_canonical(p, {CyclicClass._trusted("A" * p): ONE})
    pieces = ["A" * g + "B" for g in range(p - r + 1)]
    weights: Dict[int, GaussianRational] = {}
    terms: Dict[CyclicClass, GaussianRational] = {}
    for runs, period in _run_length_necklaces(r, p - r):
        multiplicity = p * period // r
        weight = weights.get(multiplicity)
        if weight is None:
            weight = weights[multiplicity] = GaussianRational(Fraction(multiplicity))
        terms[CyclicClass._trusted("".join(map(pieces.__getitem__, runs)))] = weight
    return TracePolynomial._from_canonical(p, terms)


def swap_letters(poly: TracePolynomial) -> TracePolynomial:
    """Exchange the roles of A and B in every class of a polynomial.

    The swap maps distinct classes to distinct classes, so no two terms merge.
    """
    return TracePolynomial._from_canonical(
        poly.degree,
        {
            _class_of(cls.representative.translate(_SWAP_TABLE)): value
            for cls, value in poly._terms.items()
        },
    )
