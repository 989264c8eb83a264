"""Words over the alphabet {A, B} and their cyclic trace classes.

A word stands for the product of the matrices it spells.  Because the
trace is invariant under cyclic rotation, words of a fixed length fall
into classes, and a class *is* the string of its lexicographically least
rotation (with A < B): ``CyclicClass`` is a ``str`` subclass holding that
rotation.  Linear combinations of those classes, ``TracePolynomial``,
are the currency the rest of the package trades in; like a Gram matrix,
one is held as integers over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from .rational import GaussianRational, ZERO, _over_lcm

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
# each class's integer parts (re, im) over a polynomial's scale
_Parts = Dict[CyclicClass, Tuple[int, int]]


def reverse_class(cls: str) -> CyclicClass:
    """Class of the reversed word.  Well defined: reversal maps rotations to rotations."""
    return CyclicClass(CyclicClass(cls)[::-1])


class TracePolynomial:
    """Exact linear combination of cyclic classes sharing one word length.

    Held like a ``GramMatrix``: a class's coefficient is (re + i im) /
    scale, with int parts (re, im) and one positive int scale.  The form
    is normal: no parts (0, 0), and no factor shared by the scale and
    all parts, so equal polynomials have equal fields and hashes.
    Arithmetic works on the integers and returns new instances; a
    coefficient becomes a GaussianRational when it is read.
    """

    __slots__ = ("_degree", "_scale", "_parts")

    def __init__(
        self,
        degree: int,
        terms: Optional[Mapping[str, CoefficientLike]] = None,
    ) -> None:
        check_positive_int(degree, "degree")
        coeffs: Dict[CyclicClass, GaussianRational] = {}
        for key, value in (terms or {}).items():
            cls = CyclicClass(key)
            if cls.length != degree:
                raise ValueError(
                    f"class {cls} has length {cls.length}, expected {degree}"
                )
            coeffs[cls] = coeffs.get(cls, ZERO) + GaussianRational.of(value)
        scale, parts = _over_lcm(list(coeffs.values()))
        self._degree = degree
        self._scale, self._parts = _normal(scale, dict(zip(coeffs, parts)))

    @classmethod
    def _wrap(cls, degree: int, scale: int, parts: _Parts) -> "TracePolynomial":
        """Wrap normal integer parts (see ``_normal``) of classes of length
        ``degree`` as they are, unchecked; the dict is kept, not copied."""
        poly = object.__new__(cls)
        poly._degree = degree
        poly._scale = scale
        poly._parts = parts
        return poly

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def _value(self, x: int, y: int) -> GaussianRational:
        return GaussianRational(Fraction(x, self._scale), Fraction(y, self._scale))

    def coefficient(self, key: str) -> GaussianRational:
        xy = self._parts.get(CyclicClass(key))
        return ZERO if xy is None else self._value(*xy)

    def items(self) -> Tuple[Tuple[CyclicClass, GaussianRational], ...]:
        """Terms sorted by representative; classes with equal parts share one value."""
        value = {xy: self._value(*xy) for xy in set(self._parts.values())}
        return tuple((cls, value[xy]) for cls, xy in sorted(self._parts.items()))

    def support(self) -> Tuple[CyclicClass, ...]:
        return tuple(sorted(self._parts))

    def total(self) -> GaussianRational:
        """Sum of all coefficients: the integer parts summed, over the scale once."""
        values = self._parts.values()
        return self._value(sum(x for x, _ in values), sum(y for _, y in values))

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return (self._degree, self._scale, self._parts) == (
            other._degree, other._scale, other._parts
        )

    def __hash__(self) -> int:
        return hash((self._degree, self._scale, frozenset(self._parts.items())))

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        if self._degree != other._degree:
            raise ValueError(
                f"degree mismatch: {self._degree} vs {other._degree}"
            )
        scale = lcm(self._scale, other._scale)
        a, b = scale // self._scale, scale // other._scale
        parts = {cls: (x * a, y * a) for cls, (x, y) in self._parts.items()}
        for cls, (x, y) in other._parts.items():
            u, v = parts.get(cls, (0, 0))
            parts[cls] = (u + x * b, v + y * b)
        return TracePolynomial._wrap(self._degree, *_normal(scale, parts))

    def __neg__(self) -> "TracePolynomial":
        return self.scaled(-1)

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor: CoefficientLike) -> "TracePolynomial":
        # factor = (u + i v) / w over the lcm w of its denominators
        w, ((u, v),) = _over_lcm([GaussianRational.of(factor)])
        parts = {
            cls: (x * u - y * v, x * v + y * u) for cls, (x, y) in self._parts.items()
        }
        return TracePolynomial._wrap(self._degree, *_normal(self._scale * w, parts))

    def __repr__(self) -> str:
        body = ", ".join(f"{cls}: {value}" for cls, value in self.items())
        return f"TracePolynomial({self._degree}, {{{body}}})"


def _normal(scale: int, parts: _Parts) -> Tuple[int, _Parts]:
    """The normal form of integer parts over ``scale``: zero terms dropped,
    then the scale and the parts divided by their gcd."""
    kept = {cls: (x, y) for cls, (x, y) in parts.items() if x or y}
    g = gcd(scale, *(x for xy in kept.values() for x in xy))
    if g == 1:
        return scale, kept
    return scale // g, {cls: (x // g, y // g) for cls, (x, y) in kept.items()}


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
    share one (multiplicity, 0) pair of integer parts over scale 1.
    """
    check_degrees(p, r)
    if r == 0:
        return TracePolynomial._wrap(p, 1, {CyclicClass._trusted("A" * p): (1, 0)})
    # already normal: scale 1 and every multiplicity positive
    weights = {q: (p * q // r, 0) for q in range(1, r + 1) if r % q == 0}
    words = _necklace_words(r, p - r)
    parts = {CyclicClass._trusted(word): weights[q] for word, q in words}
    return TracePolynomial._wrap(p, 1, parts)
