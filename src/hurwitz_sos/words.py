"""Words over the alphabet {A, B} and their cyclic trace classes.

A word stands for the product of the matrices it spells.  Because the
trace is invariant under cyclic rotation, words of a fixed length fall
into classes, and a class *is* the string of its lexicographically least
rotation (with A < B): ``CyclicClass`` is a ``str`` subclass holding that
rotation.  Linear combinations of those classes are the currency the
rest of the package trades in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def check_positive_int(value: object, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a non-bool int >= 1."""
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def check_degrees(p: int, r: int) -> None:
    """Validate a word length p >= 1 and a B count r in [0, p]; a bool is rejected."""
    check_positive_int(p, "p")
    if not is_int(r) or not 0 <= r <= p:
        raise ValueError(f"r must lie in [0, {p}], got {r!r}")


def _least_rotation(word: str) -> str:
    """Lexicographically least rotation of a word already known to be over {A, B}."""
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


class CyclicClass(str):
    """Equivalence class of a word under cyclic rotation.

    A class is the string of its least rotation, so two classes compare
    equal exactly when their words are rotations of one another.
    Equality, hashing, ordering, ``str()`` and JSON encoding are the
    string's own: a class also equals, and hashes like, the plain string
    of its least rotation, so ``CyclicClass("BA") == "AB"``, while
    ``CyclicClass("BA") != "BA"``.  ``CyclicClass(cls)`` returns an
    existing class unchanged.
    """

    __slots__ = ()

    def __new__(cls, word: str) -> "CyclicClass":
        if type(word) is cls:
            return word
        return str.__new__(cls, _least_rotation(check_word(word)))

    @classmethod
    def _trusted(cls, representative: str) -> "CyclicClass":
        """Class of a word that is already its own least rotation: no check, no rotation."""
        return str.__new__(cls, representative)

    @property
    def representative(self) -> str:
        return str(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def b_count(self) -> int:
        return self.count("B")


def _class_of(word: str) -> CyclicClass:
    """Class of a word known to be over {A, B}: one unchecked least rotation."""
    return CyclicClass._trusted(_least_rotation(word))


CoefficientLike = Union[int, Fraction, GaussianRational]


def reverse_class(cls: str) -> CyclicClass:
    """Class of the reversed word.  Well defined: reversal maps rotations to rotations."""
    return CyclicClass(CyclicClass(cls)[::-1])


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
        terms: Optional[Mapping[str, CoefficientLike]] = None,
    ) -> None:
        check_positive_int(degree, "degree")
        self._degree = degree
        data: Dict[CyclicClass, GaussianRational] = {}
        if terms:
            for key, value in terms.items():
                cls = CyclicClass(key)
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

    def coefficient(self, key: str) -> GaussianRational:
        return self._terms.get(CyclicClass(key), ZERO)

    def items(self) -> Tuple[Tuple[CyclicClass, GaussianRational], ...]:
        """Terms sorted by representative."""
        return tuple(sorted(self._terms.items()))

    def support(self) -> Tuple[CyclicClass, ...]:
        return tuple(sorted(self._terms))

    def total(self) -> GaussianRational:
        """Sum of all coefficients.

        Each of the real and imaginary parts is summed over integers:
        with L the lcm of its denominators, it is the sum of every
        ``numerator * (L // denominator)``, divided by L once.
        """
        values = self._terms.values()
        parts = []
        for part in ([v.re for v in values], [v.im for v in values]):
            scale = lcm(*(x.denominator for x in part))
            parts.append(
                Fraction(sum(x.numerator * (scale // x.denominator) for x in part), scale)
            )
        return GaussianRational(*parts)

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


def _necklace_words(r: int, m: int) -> Iterator[Tuple[str, int]]:
    """Least-rotation words A^g1 B A^g2 B ... A^gr B of the necklaces with r B's and m A's.

    Yields ``(word, q)`` with q the primitive period of the run lengths
    (g1, ..., gr), which are greatest among their rotations.  This is
    the FKM necklace generator (Fredricksen, Kessler and Maiorana) on
    the run lengths, with the order of the integers reversed and the
    fixed sum pruned into the bounds of each position.  It walks the
    prefix tree with an explicit position counter instead of recursion,
    so its depth is not tied to the interpreter's recursion limit, and
    it keeps the word spelled by each prefix, one string per depth.

    The walk stops at position r - 1: the last run must take the rest
    of the sum, so it is placed in one step.  That leaf exists exactly
    when the rest is at most the value FKM bounds position r by, and
    it keeps the prefix's period only when it meets that bound.  Words
    come out in decreasing lexicographic order of their run lengths.
    """
    if r == 1:
        yield "A" * m + "B", 1
        return
    pieces = ["A" * g + "B" for g in range(m + 1)]
    last = r - 1
    a = [m] * r  # a[0] = m is a sentinel bounding a[1] from above
    per = [1] * r  # per[t]: length of the longest Lyndon prefix of a[1..t]
    left = [m] * r  # left[t]: sum still to place in positions t..r
    low = [0] * r  # low[t]: smallest a[t] that leaves left[t+1] placeable
    pre = [""] * r  # pre[t]: the word spelled by runs 1..t
    low[1] = -(-m // r)  # a[1] is the largest entry, so at least m / r
    a[1] = m + 1  # one above the first value tried at position 1
    t = 1
    while t >= 1:
        value = a[t] - 1
        if value < low[t]:
            t -= 1
            continue
        a[t] = value
        q = per[t - 1] if value == a[t - per[t - 1]] else t
        rest = left[t] - value
        if t == last:
            # the last run is forced: it takes the rest of the sum
            bound = a[r - q]
            if rest <= bound:
                if rest < bound:
                    q = r
                if r % q == 0:
                    yield pre[t - 1] + pieces[value] + pieces[rest], q
            continue
        per[t] = q
        pre[t] = pre[t - 1] + pieces[value]
        t += 1
        left[t] = rest
        # conditional expressions: builtin min() and max() cost a third of the walk
        top = a[t - q]
        a[t] = (top if top < rest else rest) + 1
        floor = rest - (r - t) * a[1]
        low[t] = floor if floor > 0 else 0


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

    The walk spells each class's least rotation as it goes, so every
    word becomes a class as it is, and the classes sharing a period q
    share one coefficient object.
    """
    check_degrees(p, r)
    if r == 0:
        return TracePolynomial._from_canonical(p, {CyclicClass._trusted("A" * p): ONE})
    weights = {
        q: GaussianRational(Fraction(p * q // r)) for q in range(1, r + 1) if r % q == 0
    }
    return TracePolynomial._from_canonical(
        p,
        {
            CyclicClass._trusted(word): weights[q]
            for word, q in _necklace_words(r, p - r)
        },
    )
