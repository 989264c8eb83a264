import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hurwitz_sos import bundled_certificate, search
from hurwitz_sos.certificate import (
    Certificate,
    GramMatrix,
    SandwichBlock,
    quadratic_form,
    verify_against,
    verify_certificate,
)
from hurwitz_sos.numeric import hermitian_eig
from hurwitz_sos.rational import ZERO, GaussianRational, grat
from hurwitz_sos.search import (
    FILTER_SLACK,
    LADDER,
    ROUND_EVERY,
    SearchOptions,
    SearchStatus,
    _blocks,
    _dr_step,
    _exact_candidate,
    _margin_cutoff,
    _project_affine,
    _project_psd,
    _round_candidate,
    _round_iterate,
    build_constraint_map,
    feasibility_search,
)
from hurwitz_sos.words import CyclicClass, hurwitz_expand

from oracles import oracle_entries, oracle_forced_grams, oracle_pair_class, words_with

BLOCK_73 = SandwichBlock(prefix="b", suffix=None, basis=("AAB", "ABA", "BAA"))
P6_BLOCK = SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))
CORE_4 = ("BAAA", "ABAA", "AABA", "AAAB")
BLOCKS_93 = (SandwichBlock("b", None, CORE_4), SandwichBlock(None, "b", CORE_4))


def full_ansatz(p, r):
    """The full sandwich ansatz of (p, r): one block per (prefix, suffix)
    in {None, a, b}² whose half letters leave a core of even length with
    an even number of B's, holding every core word of half that length."""
    blocks = []
    for prefix, suffix in itertools.product((None, "a", "b"), repeat=2):
        halves = [x for x in (prefix, suffix) if x is not None]
        length, b_count = p - len(halves), r - halves.count("b")
        if length % 2 == 0 and b_count % 2 == 0 and 0 <= b_count <= length:
            blocks.append(SandwichBlock(prefix, suffix, words_with(length // 2, b_count // 2)))
    return tuple(blocks)


BLOCKS_84 = (SandwichBlock(None, None, words_with(4, 2)),)
BLOCKS_102 = (SandwichBlock(None, None, words_with(5, 1)),)
ANSATZES = [
    pytest.param(7, 3, (BLOCK_73,), id="p7r3"),
    pytest.param(9, 3, BLOCKS_93, id="p9r3"),
]


def flat(mats):
    """One matrix per block as the search's flat point, in (block, j, k) order."""
    return np.concatenate([M.ravel() for M in mats])


def check_mirror(cmap):
    """``mirror`` sends flat position (b, j, k) to (b, k, j), so it is its
    own inverse, and it is read-only like the other tables."""
    positions = [
        (b, j, k)
        for b, block in enumerate(cmap.blocks)
        for j in range(block.dimension)
        for k in range(block.dimension)
    ]
    assert [positions[i] for i in cmap.mirror.tolist()] == [
        (b, k, j) for b, j, k in positions
    ]
    assert cmap.mirror[cmap.mirror].tolist() == list(range(len(positions)))
    with pytest.raises(ValueError):
        cmap.mirror[...] = 0


def class_counts(cmap):
    """Number of pairs feeding each class, keyed by the class string."""
    return Counter(str(cmap.classes[i]) for i in cmap.ids.tolist())


def check_runs(cmap):
    """``runs`` tiles ``ids``: contiguous offsets from 0, count·d² entries
    per run of ``count`` blocks of dimension d, neighbouring runs of
    different d, the last ending at ``ids.size``, every value a Python
    int; the block views cut from them are read-only like ``ids``."""
    offset, dims = 0, []
    for start, count, d in cmap.runs:
        assert type(start) is int and type(count) is int and type(d) is int
        assert start == offset and count >= 1
        dims += [d] * count
        offset += count * d * d
    assert dims == [block.dimension for block in cmap.blocks]
    assert offset == cmap.ids.size
    assert all(a[2] != b[2] for a, b in zip(cmap.runs, cmap.runs[1:]))
    views = _blocks(cmap.ids, cmap.runs)
    assert len(views) == len(cmap.blocks)
    for view in views:
        with pytest.raises(ValueError):
            view[...] = 0


# ------------------------------------------------------------------ constraint map

def test_constraint_map_three_word_block():
    cmap = build_constraint_map(7, 3, (BLOCK_73,))
    assert cmap.p == 7 and cmap.r == 3
    # frozen pair-class table for the three-word block
    index, = _blocks(cmap.ids, cmap.runs)
    table = [[str(cmap.classes[index[j, k]]) for k in range(3)] for j in range(3)]
    assert table == [
        ["AABAABB", "AABABAB", "AABAABB"],
        ["AABABAB", "AABABAB", "AAABBAB"],
        ["AABAABB", "AAABABB", "AAAABBB"],
    ]
    assert cmap.classes == tuple(sorted(cmap.classes))
    assert class_counts(cmap) == {
        "AAAABBB": 1,
        "AAABABB": 1,
        "AAABBAB": 1,
        "AABABAB": 3,
        "AABAABB": 3,
    }
    # the flat table: every pair's class id in (block, j, k) order, and
    # the number of pairs per class, both read-only
    assert cmap.ids.tolist() == index.ravel().tolist()
    assert cmap.counts.tolist() == [1, 1, 1, 3, 3]
    assert cmap.counts.tolist() == np.bincount(cmap.ids).tolist()
    for table in (cmap.ids, cmap.counts):
        with pytest.raises(ValueError):
            table[...] = 0
    assert not cmap.determined
    assert cmap.determined == all(n == 1 for n in cmap.counts.tolist())
    # two blocks: the ids of block 1 follow those of block 0
    two = build_constraint_map(9, 3, BLOCKS_93)
    assert two.runs == ((0, 2, 4),)
    first, second = _blocks(two.ids, two.runs)
    assert two.ids.tolist() == first.ravel().tolist() + second.ravel().tolist()
    assert two.counts.tolist() == np.bincount(two.ids).tolist()
    check_mirror(cmap)
    check_mirror(two)
    check_runs(cmap)
    check_runs(two)


def test_constraint_map_compares_by_identity():
    # numpy fields have no single truth value, so maps compare and hash
    # by identity instead of field by field
    one = build_constraint_map(7, 3, (BLOCK_73,))
    two = build_constraint_map(7, 3, (BLOCK_73,))
    assert one == one and one != two and not (one == two)
    assert hash(one) == hash(one) and isinstance(hash(two), int)
    assert len({one, two}) == 2


def test_constraint_map_covers_every_target_class():
    cmap = build_constraint_map(7, 3, (BLOCK_73,))
    target = hurwitz_expand(7, 3)
    assert set(cmap.classes) == set(target.support())


def test_constraint_map_p6_determined():
    cmap = build_constraint_map(6, 3, (P6_BLOCK,))
    assert cmap.determined
    assert class_counts(cmap) == {"AAABBB": 1, "AABABB": 1, "AABBAB": 1, "ABABAB": 1}
    assert cmap.runs == ((0, 1, 2),)
    assert cmap.ids.tolist() == _blocks(cmap.ids, cmap.runs)[0].ravel().tolist()
    assert cmap.counts.tolist() == [1, 1, 1, 1]
    assert cmap.determined == all(n == 1 for n in cmap.counts.tolist())
    assert cmap.counts.tolist() == np.bincount(cmap.ids).tolist()
    for table in (cmap.ids, cmap.counts):
        with pytest.raises(ValueError):
            table[...] = 0
    check_mirror(cmap)
    check_runs(cmap)


def test_constraint_map_shape_mismatch():
    from hurwitz_sos.certificate import AnsatzMismatchError

    with pytest.raises(AnsatzMismatchError):
        build_constraint_map(7, 2, (BLOCK_73,))
    with pytest.raises(ValueError):
        build_constraint_map(7, 3, ())
    # (p, r) is checked first, as a Certificate checks it: a bool r or an r
    # outside [0, p] is named as such, even where the block shapes would fit
    one_b = SandwichBlock(None, "b", ("A",))
    for p, r, blocks in ((3, True, (one_b,)), (7, -1, (BLOCK_73,)), (7, 8, (BLOCK_73,))):
        with pytest.raises(ValueError) as info:
            build_constraint_map(p, r, blocks)
        assert str(info.value) == f"r must lie in [0, {p}], got {r!r}"
    with pytest.raises(ValueError, match="p must be a positive int"):
        build_constraint_map(0, 0, (BLOCK_73,))


def test_unreachable_target_classes():
    # a single word cannot produce every class of the target
    block = SandwichBlock(prefix="b", suffix=None, basis=("AAB",))
    assert build_constraint_map(7, 3, (block,)).determined
    outcome = feasibility_search(7, 3, (block,))
    assert outcome.status is SearchStatus.INFEASIBLE
    assert "AAAABBB" in {str(c) for c in outcome.missing}
    # an underdetermined map checks the same classes before any step
    blocks = (block, block)
    assert not build_constraint_map(7, 3, blocks).determined
    assert feasibility_search(7, 3, blocks).missing == outcome.missing


@pytest.mark.parametrize(
    "basis",
    [basis for size in (1, 2, 3) for basis in itertools.combinations(BLOCK_73.basis, size)],
    ids=",".join,
)
def test_missing_classes_of_every_sub_basis(basis):
    # the classes no pair produces, and nothing else, prove INFEASIBLE
    blocks = (SandwichBlock("b", None, basis),)
    reached = set(build_constraint_map(7, 3, blocks).classes)
    expected = tuple(sorted(set(hurwitz_expand(7, 3).support()) - reached))
    outcome = feasibility_search(7, 3, blocks)
    assert outcome.missing == expected
    bare_infeasible = (
        outcome.status is SearchStatus.INFEASIBLE
        and outcome.iterations == 0
        and outcome.certificate is None
        and outcome.witness is None
        and outcome.rungs_skipped == outcome.rungs_float_rejected == outcome.rungs_exact == 0
    )
    assert bare_infeasible == bool(expected)


# ------------------------------------------------------------------ search internals

def random_mats(rng, blocks, spread=True):
    """Random real matrices per block, entries spanning many magnitudes."""
    mats = []
    for block in blocks:
        d = block.dimension
        z = rng.standard_normal((d, d))
        if spread:
            z = z * 10.0 ** rng.integers(-8, 9, size=(d, d))
        mats.append(z)
    return mats


@pytest.mark.parametrize("p, r, blocks", ANSATZES)
def test_group_sums_match_per_entry_sums(p, r, blocks):
    cmap = build_constraint_map(p, r, blocks)
    rng = np.random.default_rng(11)
    for _ in range(20):
        mats = random_mats(rng, blocks)
        expected = [0.0] * len(cmap.classes)
        for bi, block in enumerate(cmap.blocks):
            for j in range(block.dimension):
                for k in range(block.dimension):
                    cls = CyclicClass(oracle_pair_class(block, j, k))
                    c = cmap.classes.index(cls)
                    expected[c] += float(mats[bi][j, k])
        sums = np.bincount(cmap.ids, flat(mats))
        assert sums.dtype == np.float64 and len(sums) == len(cmap.classes)
        for got, want in zip(sums.tolist(), expected):
            assert got.hex() == want.hex()


def oracle_grams(mats, cmap, target, q):
    """Round each entry to the grid 1/q, restore each class sum exactly,
    Hermitize: the rung-q Gram matrices, one per block.

    Entries are rounded one by one and classes come from
    ``oracle_pair_class``, not from the package's pair table.
    """
    exact = [
        [[GaussianRational(Fraction(round(q * x), q)) for x in row] for row in M.tolist()]
        for M in mats
    ]
    groups = {}
    for bi, block in enumerate(cmap.blocks):
        for j in range(block.dimension):
            for k in range(block.dimension):
                cls = oracle_pair_class(block, j, k)
                groups.setdefault(cls, []).append((bi, j, k))
    for cls, entries in groups.items():
        total = ZERO
        for bi, j, k in entries:
            total = total + exact[bi][j][k]
        share = (target.coefficient(cls) - total) / len(entries)
        for bi, j, k in entries:
            exact[bi][j][k] = exact[bi][j][k] + share
    for rows in exact:
        for j in range(len(rows)):
            for k in range(j, len(rows)):
                mean = (rows[j][k] + rows[k][j].conjugate()) / 2
                rows[j][k] = mean
                rows[k][j] = mean.conjugate()
    return [GramMatrix.from_rows(rows) for rows in exact]


def round_candidate_oracle(mats, cmap, target, q):
    """The certificate of ``oracle_grams``, built and fully verified
    whatever its blocks look like; returned iff accepted."""
    grams = oracle_grams(mats, cmap, target, q)
    cert = Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, grams)))
    return cert if verify_against(cert, target).ok else None


def candidate_points(rng, blocks, centre):
    """Float points around ``centre`` (one float matrix per block) at many
    noise levels, plus random PSD points of the same scale."""
    points = []
    for noise in (0.0, 1e-9, 1e-4, 1e-2, 0.3, 3.0):
        points.append(
            [C + noise * z for C, z in zip(centre, random_mats(rng, blocks, spread=False))]
        )
    for _ in range(3):
        points.append([z @ z.T for z in random_mats(rng, blocks, spread=False)])
    return points


def class_goals(cmap, target):
    """The prescribed sum of each class, as the search passes it around."""
    return np.array([int(target.coefficient(cls).re) for cls in cmap.classes])


def projected_points(cmap, target, rounds, seed):
    """Iterates from a random symmetric start at the target's scale: the
    point after each count in ``rounds`` of alternating affine and PSD
    projections."""
    goal = class_goals(cmap, target)
    scale = max([1.0] + np.abs(goal).tolist())
    rng = np.random.default_rng(seed)
    mats = []
    for block in cmap.blocks:
        X = rng.standard_normal((block.dimension, block.dimension)) * scale
        mats.append((X + X.T) / 2.0)
    v = flat(mats)
    points = []
    for done in range(1, max(rounds) + 1):
        v = _project_psd(_project_affine(v, cmap, goal), cmap)
        if done in rounds:
            points.append(_blocks(v, cmap.runs))
    return points


@pytest.mark.parametrize(
    "p, r, blocks",
    ANSATZES + [pytest.param(8, 4, BLOCKS_84, id="p8r4")],
)
def test_round_candidate_matches_verify_rule(p, r, blocks):
    """Both filters only ever drop rungs the unfiltered rule rejects."""
    cmap = build_constraint_map(p, r, blocks)
    target = hurwitz_expand(p, r)
    goal = class_goals(cmap, target)
    if p == 7:
        # around a certificate the search finds, so some rungs accept
        found = feasibility_search(p, r, blocks, SearchOptions(seed=0)).certificate
        centre = [
            np.array([[complex(x).real for x in row] for row in oracle_entries(gram)])
            for _block, gram in found.blocks
        ]
    else:
        centre = [np.eye(block.dimension) * 5.0 for block in blocks]
    rng = np.random.default_rng(2024)
    points = candidate_points(rng, blocks, centre)
    points += projected_points(cmap, target, rounds=(2, 5, 12), seed=p)
    verdicts = []
    tally = Counter()
    margin_skips = 0
    for mats in points:
        restored = _project_affine(flat(mats), cmap, goal)
        cutoff = _margin_cutoff(restored, cmap.runs)
        for q in LADDER[::3] + (10_000,):
            got = _round_candidate(flat(mats), cmap, target, q, goal, tally)
            want = round_candidate_oracle(mats, cmap, target, q)
            assert got == want
            if q > cutoff:
                assert want is None
                margin_skips += 1
            verdicts.append(got is not None)
    assert tally["rungs_exact"] + tally["rungs_float_rejected"] == len(verdicts)
    if p == 7:
        assert any(verdicts) and not all(verdicts)
    else:
        # the filters fire on these points, so the comparison above is not vacuous
        assert margin_skips > 0 and tally["rungs_float_rejected"] > 0


@pytest.mark.parametrize(
    "p, r, blocks",
    ANSATZES + [pytest.param(8, 4, BLOCKS_84, id="p8r4")],
)
def test_twin_is_the_exact_candidate_up_to_float_error(p, r, blocks):
    """The twin, the affine projection of the rounded point, is each
    exact rung-q candidate up to a few roundings per entry, far inside
    the filter's slack."""
    cmap = build_constraint_map(p, r, blocks)
    target = hurwitz_expand(p, r)
    goal = class_goals(cmap, target)
    centre = [np.eye(block.dimension) * 5.0 for block in blocks]
    points = candidate_points(np.random.default_rng(7), blocks, centre)
    points += projected_points(cmap, target, rounds=(2, 5, 12), seed=p)
    for mats in points:
        for q in LADDER:
            twin = _project_affine(np.rint(q * flat(mats)), cmap, q * goal) / q
            exact = flat([
                np.array([[float(x.re) for x in row] for row in oracle_entries(gram)])
                for gram in oracle_grams(mats, cmap, target, q)
            ])
            bound = 16 * np.finfo(float).eps * (1.0 + np.abs(twin).sum())
            assert np.abs(twin - exact).max() <= bound, (q, bound)


@pytest.mark.parametrize("p, r, blocks", ANSATZES)
def test_dr_step_matches_the_textbook_step(p, r, blocks):
    """The compact step equals z + P_A(2x − z) − x with x = P_K(z)."""
    cmap = build_constraint_map(p, r, blocks)
    goal = class_goals(cmap, hurwitz_expand(p, r))
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = flat([(M + M.T) / 2.0 for M in random_mats(rng, blocks, spread=False)])
        x, got = _dr_step(z, cmap, goal)
        assert np.array_equal(x, _project_psd(z, cmap))
        textbook = z + _project_affine(2.0 * x - z, cmap, goal) - x
        assert np.abs(got - textbook).max() <= 1e-12


def reference_sums(mats, cmap):
    """Class sums and class sizes by a plain loop over (block, j, k), with
    each pair's class taken from ``oracle_pair_class``."""
    sums, sizes = [0.0] * len(cmap.classes), [0] * len(cmap.classes)
    for bi, block in enumerate(cmap.blocks):
        for j in range(block.dimension):
            for k in range(block.dimension):
                c = cmap.classes.index(CyclicClass(oracle_pair_class(block, j, k)))
                sums[c] += float(mats[bi][j, k])
                sizes[c] += 1
    return np.array(sums), np.array(sizes)


def reference_shift(mats, gap, sizes, cmap):
    """Each pair's entry plus its class's share of ``gap``, block by block,
    then each block averaged with its transpose."""
    share = gap / sizes
    shifted = []
    for bi, (block, M) in enumerate(zip(cmap.blocks, mats)):
        S = M.copy()
        for j in range(block.dimension):
            for k in range(block.dimension):
                c = cmap.classes.index(CyclicClass(oracle_pair_class(block, j, k)))
                S[j, k] += share[c]
        shifted.append((S + S.T) / 2.0)
    return shifted


def reference_psd(mats):
    """Each block's eigenvalues clamped at zero, then averaged with its transpose."""
    clamped = []
    for M in mats:
        w, V = np.linalg.eigh(M)
        P = (V * np.maximum(w, 0.0)) @ V.T
        clamped.append((P + P.T) / 2.0)
    return clamped


@pytest.mark.parametrize(
    "p, r, blocks",
    ANSATZES + [pytest.param(10, 4, full_ansatz(10, 4), id="p10r4-full")],
)
def test_flat_step_matches_per_block_reference(p, r, blocks):
    """The flat projections and step equal a per-block computation bit for
    bit, so a wrong block offset or a wrong ``mirror`` shows here."""
    cmap = build_constraint_map(p, r, blocks)
    goal = class_goals(cmap, hurwitz_expand(p, r))
    rng = np.random.default_rng(47)
    for spread in (False, True) * 5:
        z = [(M + M.T) / 2.0 for M in random_mats(rng, blocks, spread=spread)]
        sums, sizes = reference_sums(z, cmap)
        affine = reference_shift(z, goal - sums, sizes, cmap)
        assert np.array_equal(_project_affine(flat(z), cmap, goal), flat(affine))
        x = reference_psd(z)
        assert np.array_equal(_project_psd(flat(z), cmap), flat(x))
        reflected_sums, _ = reference_sums([2.0 * X - Z for X, Z in zip(x, z)], cmap)
        step = reference_shift(x, goal - reflected_sums, sizes, cmap)
        got_x, got_z = _dr_step(flat(z), cmap, goal)
        assert np.array_equal(got_x, flat(x)) and np.array_equal(got_z, flat(step))


def reference_cutoff(mats):
    """The Weyl cutoff block by block, with one ``hermitian_eig`` per block.
    The slack sums the flat point, as the search does: summed block by
    block it can differ in the last bit."""
    slack = FILTER_SLACK * (1.0 + float(np.abs(flat(mats)).sum()))
    cutoff = math.inf
    for M in mats:
        gap = -hermitian_eig(M)[0][0] - slack
        if gap > 0:
            cutoff = min(cutoff, M.shape[0] * math.sqrt(2.0) / gap)
    return cutoff


def test_runs_merge_only_consecutive_blocks_of_one_size():
    """``runs`` cuts the blocks into maximal runs of one dimension, each
    (offset, count, d); blocks of one size apart stay apart, and the
    projection and the margin over the runs equal the per-block ones bit
    for bit."""
    apart = (
        SandwichBlock("b", None, ("AAB", "ABA", "BAA")),
        SandwichBlock("b", None, ("AAB", "ABA")),
        SandwichBlock(None, "b", ("AAB", "ABA", "BAA")),
    )
    cmap = build_constraint_map(7, 3, apart)
    assert cmap.runs == ((0, 1, 3), (9, 1, 2), (13, 1, 3))
    assert build_constraint_map(9, 3, BLOCKS_93).runs == ((0, 2, 4),)
    assert build_constraint_map(8, 4, full_ansatz(8, 4)).runs == ((0, 1, 6), (36, 2, 3))
    rng = np.random.default_rng(53)
    for spread in (False, True):
        z = [(M + M.T) / 2.0 for M in random_mats(rng, apart, spread=spread)]
        assert np.array_equal(_project_psd(flat(z), cmap), flat(reference_psd(z)))
    cutoffs = set()
    for p, r, blocks in ((7, 3, apart), (9, 3, BLOCKS_93), (8, 4, full_ansatz(8, 4))):
        layout = build_constraint_map(p, r, blocks)
        check_runs(layout)
        for spread in (False, True) * 3:
            z = [(M + M.T) / 2.0 for M in random_mats(rng, blocks, spread=spread)]
            # the PSD part of z, and z with only its last block left indefinite
            psd = reference_psd(z)
            for mats in (z, psd, psd[:-1] + z[-1:]):
                cutoff = _margin_cutoff(flat(mats), layout.runs)
                assert cutoff == reference_cutoff(mats)
                cutoffs.add(cutoff == math.inf)
    # both outcomes occur, so the comparison is not vacuous
    assert cutoffs == {True, False}


# ------------------------------------------------------------------ rounding filters

def weyl_margin_setup():
    """The bundled p7r3 certificate as a float point with its ansatz."""
    cert = bundled_certificate("p7r3.json")
    (block, gram), = cert.blocks
    cmap = build_constraint_map(7, 3, (block,))
    target = hurwitz_expand(7, 3)
    G = np.array([[complex(x).real for x in row] for row in oracle_entries(gram)])
    return cert, cmap, target, G


def test_margin_skips_a_suffix_and_keeps_the_certificate():
    """p7r3 sits on the PSD boundary: a class-sum-preserving perturbation
    makes its float smallest eigenvalue negative, yet small rungs still
    round it back exactly, so only the large rungs may be skipped."""
    cert, cmap, target, G = weyl_margin_setup()
    assert verify_certificate(cert).min_pivots == (0,)
    goal = class_goals(cmap, target)
    # (1, 1) and its class mates (0, 1), (1, 0) keep their sum
    E = np.zeros((3, 3))
    E[1, 1], E[0, 1], E[1, 0] = -0.01, 0.005, 0.005
    index, = _blocks(cmap.ids, cmap.runs)
    assert index[1, 1] == index[0, 1] == index[1, 0]
    mats = [G + E]
    assert np.linalg.eigvalsh(mats[0])[0] < -1e-3
    restored = _project_affine(flat(mats), cmap, goal)
    cutoff = _margin_cutoff(restored, cmap.runs)
    assert LADDER[0] <= cutoff < LADDER[-1]
    unfiltered = next(
        found
        for found in (round_candidate_oracle(mats, cmap, target, q) for q in LADDER)
        if found is not None
    )
    tally = Counter()
    filtered = _round_iterate(flat(mats), cmap, target, goal, tally)
    assert filtered == unfiltered == cert
    # every rung above the cutoff really fails
    for q in LADDER:
        if q > cutoff:
            assert round_candidate_oracle(mats, cmap, target, q) is None


@pytest.mark.parametrize("bound", [1, 64, 4096])
def test_margin_keeps_every_rung_the_weyl_bound_allows(bound):
    """The margin keeps rung q whenever a PSD matrix lies within √2/q of the
    restored point in every entry, even with float error up to half the
    slack on top: the worst case of the bound, with ±1 entries along a
    real null vector."""
    w = np.array([1.0, -1.0, 1.0])
    P = 7.0 * (np.eye(3) - np.outer(w, w) / 3.0)  # PSD, null vector w
    slack = FILTER_SLACK * (1.0 + np.abs(P).sum())
    stretch = 1.0 + slack * bound / (2.0 * 3.0 * math.sqrt(2.0))
    F = P - stretch * (math.sqrt(2.0) / bound) * np.outer(w, w)
    # F is symmetric, so restoring its own class sums gives F back
    assert _margin_cutoff(F.ravel(), ((0, 1, 3),)) >= bound
    # and a point any further out loses the rung
    F_out = P - 1.01 * (math.sqrt(2.0) / bound) * np.outer(w, w)
    assert _margin_cutoff(F_out.ravel(), ((0, 1, 3),)) < bound


def test_twin_slack_absorbs_float_error_only():
    """A boundary point off by float-sized error passes the twin, one
    clearly outside the cone does not."""
    _cert, cmap, _target, G = weyl_margin_setup()
    v = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)  # null vector of G
    for shift, passes in ((1e-13, True), (1e-6, False)):
        twin = G - shift * np.outer(v, v)
        assert (_margin_cutoff(twin.ravel(), ((0, 1, 3),)) == math.inf) == passes


# ------------------------------------------------------------------ filtered search

def unfiltered(monkeypatch):
    """Let every rung through the float test, at the margin and the twin."""
    monkeypatch.setattr(search, "_margin_cutoff", lambda *args: math.inf)


SEARCH_CASES = [
    pytest.param(7, 3, (BLOCK_73,), 5000, (0, 3), id="p7r3"),
    pytest.param(10, 2, BLOCKS_102, 5000, (0, 3), id="p10r2"),
    pytest.param(8, 4, BLOCKS_84, 100, (0, 5), id="p8r4"),
    pytest.param(9, 3, BLOCKS_93, 100, (0, 2), id="p9r3"),
]


@pytest.mark.parametrize("p, r, blocks, max_iters, seeds", SEARCH_CASES)
def test_filters_leave_the_outcome_unchanged(monkeypatch, p, r, blocks, max_iters, seeds):
    for seed in seeds:
        opts = SearchOptions(seed=seed, max_iters=max_iters)
        filtered = feasibility_search(p, r, blocks, opts)
        with monkeypatch.context() as patch:
            unfiltered(patch)
            plain = feasibility_search(p, r, blocks, opts)
        assert filtered.status == plain.status
        assert filtered.iterations == plain.iterations
        assert filtered.certificate == plain.certificate
        assert filtered.witness == plain.witness
        # every rung visited is counted once, under exactly one heading
        assert plain.rungs_skipped == plain.rungs_float_rejected == 0
        visited = (
            filtered.rungs_skipped + filtered.rungs_float_rejected + filtered.rungs_exact
        )
        assert visited == plain.rungs_exact > 0
        if filtered.status is SearchStatus.UNKNOWN:
            assert filtered.rungs_skipped + filtered.rungs_float_rejected > 0


def test_last_iterate_is_rounded():
    """With a budget that is not a multiple of ROUND_EVERY the point the
    search stops at is still rounded; here, on a run that has not settled
    by then, it rounds to a certificate."""
    outcome = feasibility_search(10, 2, BLOCKS_102, SearchOptions(seed=1, max_iters=7))
    assert outcome.status is SearchStatus.CERTIFICATE
    assert outcome.iterations == 7
    assert verify_certificate(outcome.certificate).ok
    # one rounding round, over the whole ladder at most
    assert 0 < visited_rungs(outcome) <= len(LADDER)


def visited_rungs(outcome):
    return outcome.rungs_skipped + outcome.rungs_float_rejected + outcome.rungs_exact


def clock_only(monkeypatch, p, r, blocks, opts):
    """The search with the settled round switched off: no step is settled."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "SETTLED_TOL", -1.0)
        return feasibility_search(p, r, blocks, opts)


@pytest.mark.parametrize("p, r, blocks", [
    pytest.param(7, 3, (BLOCK_73,), id="p7r3"),
    pytest.param(10, 2, BLOCKS_102, id="p10r2"),
])
def test_settled_round_certifies_before_the_clock(monkeypatch, p, r, blocks):
    """These runs settle before step ROUND_EVERY, and rounding the settled
    shadow gives the certificate the first clock round gives."""
    for seed in range(5):
        opts = SearchOptions(seed=seed)
        settled = feasibility_search(p, r, blocks, opts)
        clock = clock_only(monkeypatch, p, r, blocks, opts)
        assert settled.status is clock.status is SearchStatus.CERTIFICATE
        assert settled.certificate == clock.certificate
        assert (settled.rungs_skipped, settled.rungs_float_rejected, settled.rungs_exact) == (
            clock.rungs_skipped, clock.rungs_float_rejected, clock.rungs_exact
        )
        assert settled.iterations < ROUND_EVERY <= clock.iterations


@pytest.mark.parametrize("p, r, blocks", [
    pytest.param(8, 4, BLOCKS_84, id="p8r4"),
    pytest.param(9, 3, BLOCKS_93, id="p9r3"),
])
def test_moving_runs_round_on_the_clock_only(monkeypatch, p, r, blocks):
    """Runs whose steps stay long never settle, so nothing changes."""
    for seed in range(5):
        opts = SearchOptions(seed=seed, max_iters=100)
        assert feasibility_search(p, r, blocks, opts) == clock_only(
            monkeypatch, p, r, blocks, opts
        )


def test_settled_round_happens_once(monkeypatch):
    """A settled run whose round fails keeps stepping and rounding on the
    clock; the settled round adds exactly one round over the ladder."""
    blocks, opts = full_ansatz(9, 4), SearchOptions(seed=0, max_iters=300)
    settled = feasibility_search(9, 4, blocks, opts)
    clock = clock_only(monkeypatch, 9, 4, blocks, opts)
    assert settled.status is clock.status is SearchStatus.UNKNOWN
    assert settled.iterations == clock.iterations == 300
    assert visited_rungs(settled) == visited_rungs(clock) + len(LADDER)


def fraction_grid_candidate(rounded, cmap, goal, q):
    """The rung-q certificate built one Fraction per entry, in plain Python:
    numerator K[i] = h[i] + h[mirror[i]] over D = 2·q·lcm(counts), with
    h[i] = lcm·n_i + (lcm / counts[c])·(q·goal[c] − sum of class c's n),
    n = rounded and c = ids[i]."""
    ids, counts = cmap.ids.tolist(), cmap.counts.tolist()
    lcm = math.lcm(*counts)
    ints = [int(x) for x in rounded.tolist()]
    sums = [0] * len(counts)
    for c, x in zip(ids, ints):
        sums[c] += x
    half = [lcm * x + (lcm // counts[c]) * (q * int(goal[c]) - sums[c])
            for c, x in zip(ids, ints)]
    K = [h + half[m] for h, m in zip(half, cmap.mirror.tolist())]
    D = 2 * q * lcm
    grams, at = [], 0
    for block in cmap.blocks:
        d = block.dimension
        grams.append(GramMatrix.from_rows(
            [[Fraction(K[at + j * d + k], D) for k in range(d)] for j in range(d)]
        ))
        at += d * d
    return Certificate(cmap.p, cmap.r, tuple(zip(cmap.blocks, grams)))


@pytest.mark.parametrize("p, r, blocks", [
    pytest.param(7, 3, (BLOCK_73,), id="p7r3"),
    pytest.param(8, 4, full_ansatz(8, 4), id="p8r4-full"),
])
def test_exact_candidate_matches_the_fraction_grid(p, r, blocks):
    cmap = build_constraint_map(p, r, blocks)
    goal = class_goals(cmap, hurwitz_expand(p, r))
    rng = np.random.default_rng(5)
    points = [np.zeros(cmap.ids.size)] + [
        rng.normal(scale=4.0, size=cmap.ids.size) for _ in range(3)
    ]
    for v in points:
        v = (v + v[cmap.mirror]) / 2.0
        for q in (1, 3, 16, 10_000):
            rounded = np.rint(q * v)
            got = _exact_candidate(rounded, cmap, goal, q)
            want = fraction_grid_candidate(rounded, cmap, goal, q)
            assert got == want and hash(got) == hash(want)


# ------------------------------------------------------------------ determined path

def test_determined_gram_p6_frozen():
    """The determined path's candidate is the zero point restored to the
    class sums at q = 1: the forced [[6, 6], [6, 2]], as the oracle reads it."""
    cmap = build_constraint_map(6, 3, (P6_BLOCK,))
    goal = np.array([6, 6, 6, 2])
    assert [str(c) for c in cmap.classes] == ["AAABBB", "AABABB", "AABBAB", "ABABAB"]
    cert = _exact_candidate(np.zeros(cmap.ids.size), cmap, goal, 1)
    ((block, G),) = cert.blocks
    assert block == P6_BLOCK
    assert [[G.at(j, k) for k in range(2)] for j in range(2)] == [
        [grat(6), grat(6)],
        [grat(6), grat(2)],
    ]
    assert [G] == oracle_forced_grams((P6_BLOCK,), hurwitz_expand(6, 3))


def test_prove_infeasible_p6():
    outcome = feasibility_search(6, 3, (P6_BLOCK,))
    assert outcome.status is SearchStatus.INFEASIBLE
    assert outcome.iterations == 0
    assert outcome.certificate is None
    assert outcome.witness == (grat(1), grat(-1))
    assert outcome.witness_block == 0
    assert outcome.witness_form == grat(-4)
    # the witness value really is the quadratic form on the forced matrix
    forced = GramMatrix.from_rows([[6, 6], [6, 2]])
    assert quadratic_form(forced, outcome.witness) == outcome.witness_form


def test_prove_infeasible_feasible_determined_case():
    # p=7 r=1: single word AAA with suffix b, forced gram [[7]]
    block = SandwichBlock(prefix=None, suffix="b", basis=("AAA",))
    outcome = feasibility_search(7, 1, (block,))
    assert outcome.status is SearchStatus.CERTIFICATE
    assert outcome.iterations == 0
    assert outcome.certificate.blocks == ((block, GramMatrix.from_rows([[7]])),)
    assert verify_certificate(outcome.certificate).ok
    assert outcome.witness is None


def determined_ansatzes():
    """Every one- or two-word single-block ansatz with 2 <= p <= 9 whose
    pairs fall in distinct classes (by hand) covering the word sum."""
    found = []
    for p in range(2, 10):
        for prefix, suffix in itertools.product((None, "a", "b"), repeat=2):
            halves = [x for x in (prefix, suffix) if x is not None]
            length = p - len(halves)
            if length < 2 or length % 2:
                continue
            for b_count in range(length // 2 + 1):
                r = 2 * b_count + halves.count("b")
                target = {str(cls) for cls, _ in hurwitz_expand(p, r).items()}
                for size in (1, 2):
                    for basis in itertools.combinations(words_with(length // 2, b_count), size):
                        block = SandwichBlock(prefix, suffix, basis)
                        pairs = [oracle_pair_class(block, j, k)
                                 for j in range(size) for k in range(size)]
                        if len(set(pairs)) == len(pairs) and target <= set(pairs):
                            found.append(pytest.param(
                                p, r, block,
                                id=f"p{p}r{r}-{prefix or ''}|{','.join(basis)}|{suffix or ''}",
                            ))
    return found


DETERMINED = determined_ansatzes()


def test_determined_sweep_size():
    """The sweep holds 60 ansatzes; only the bundled (6,3) shape and its
    mirror are infeasible."""
    assert len(DETERMINED) == 60
    infeasible = []
    for param in DETERMINED:
        p, r, block = param.values
        if feasibility_search(p, r, (block,)).status is SearchStatus.INFEASIBLE:
            infeasible.append(param.id)
    assert infeasible == ["p6r3-a|BA,AB|b", "p6r3-b|BA,AB|a"]


@pytest.mark.parametrize("p, r, block", DETERMINED)
def test_determined_ansatz_decided_by_forced_grams(p, r, block):
    """A determined ansatz is decided with no step and no rung: its
    certificate holds the forced Grams, or its witness is negative on them."""
    outcome = feasibility_search(p, r, (block,))
    (forced,) = oracle_forced_grams((block,), hurwitz_expand(p, r))
    assert outcome.iterations == 0
    assert outcome.rungs_skipped == outcome.rungs_float_rejected == outcome.rungs_exact == 0
    if outcome.status is SearchStatus.CERTIFICATE:
        assert outcome.certificate.blocks == ((block, forced),)
        assert outcome.witness is None
    else:
        assert outcome.status is SearchStatus.INFEASIBLE
        assert outcome.certificate is None
        assert outcome.witness_block == 0
        assert outcome.witness_form == quadratic_form(forced, outcome.witness)
        assert outcome.witness_form.im == 0 and outcome.witness_form.re < 0


# ------------------------------------------------------------------ search

def test_search_options_validation():
    with pytest.raises(ValueError) as info:
        SearchOptions(max_iters=0)
    assert str(info.value) == "max_iters must be a positive int, got 0"
    # seeds are 64-bit: a larger one would alias a smaller one modulo 2^64
    assert SearchOptions(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            SearchOptions(seed=seed)
    with pytest.raises(ValueError) as info:
        SearchOptions(seed=-1)
    assert str(info.value) == "seed must be an int in [0, 2**64), got -1"


@pytest.mark.parametrize("field", ["seed", "max_iters"])
def test_search_options_reject_non_integers(field):
    for value in (2.5, 10.0, True, "7", None):
        with pytest.raises(ValueError, match=field):
            SearchOptions(**{field: value})
    assert getattr(SearchOptions(**{field: 3}), field) == 3


def test_search_determined_fast_path():
    block = SandwichBlock(prefix=None, suffix="a", basis=("AAA",))
    outcome = feasibility_search(7, 0, (block,))
    assert outcome.status is SearchStatus.CERTIFICATE
    assert outcome.iterations == 0
    assert verify_certificate(outcome.certificate).ok
    G = outcome.certificate.blocks[0][1]
    assert G.at(0, 0) == grat(1)


def test_search_determined_infeasible_fast_path():
    outcome = feasibility_search(6, 3, (P6_BLOCK,))
    assert outcome.status is SearchStatus.INFEASIBLE
    assert outcome.witness_form == grat(-4)


def test_search_finds_certificate_7_3():
    outcome = feasibility_search(
        7, 3, (BLOCK_73,), SearchOptions(seed=0, max_iters=5000)
    )
    assert outcome.status is SearchStatus.CERTIFICATE
    assert outcome.iterations <= 5000
    report = verify_certificate(outcome.certificate)
    assert report.ok
    # found an exact decomposition of the true target
    from hurwitz_sos.certificate import certificate_expansion

    assert certificate_expansion(outcome.certificate) == hurwitz_expand(7, 3)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_search_succeeds_across_seeds(seed):
    outcome = feasibility_search(
        7, 3, (BLOCK_73,), SearchOptions(seed=seed, max_iters=5000)
    )
    assert outcome.status is SearchStatus.CERTIFICATE
    assert verify_certificate(outcome.certificate).ok


def test_search_unknown_on_budget_exhaustion():
    # two-block p6 ansatz is underdetermined, and no certificate exists in
    # this shape either, so a tiny budget must come back UNKNOWN
    blocks = (
        P6_BLOCK,
        SandwichBlock(prefix="b", suffix="a", basis=("AB", "BA")),
    )
    outcome = feasibility_search(6, 3, blocks, SearchOptions(seed=0, max_iters=8))
    assert outcome.status is SearchStatus.UNKNOWN
    assert outcome.certificate is None
    assert outcome.iterations == 8
    # only the last iterate is rounded, over the whole ladder
    visited = outcome.rungs_skipped + outcome.rungs_float_rejected + outcome.rungs_exact
    assert visited == len(LADDER)


@pytest.mark.parametrize("p, r", [(7, 3), (8, 2), (8, 4), (11, 3)])
def test_full_ansatz_search_finds_certificates(p, r):
    outcome = feasibility_search(p, r, full_ansatz(p, r), SearchOptions(seed=0, max_iters=300))
    assert outcome.status is SearchStatus.CERTIFICATE
    assert verify_certificate(outcome.certificate).ok


@pytest.mark.parametrize(
    "p, r",
    [
        (6, 3), (8, 3), (9, 3), (10, 5), (9, 4), (10, 4), (11, 4), (12, 4),
        (11, 5), (12, 5), (12, 6), (13, 5), (13, 6),
    ],
)
def test_full_ansatz_search_unknown(p, r):
    outcome = feasibility_search(p, r, full_ansatz(p, r), SearchOptions(seed=0, max_iters=300))
    assert outcome.status is SearchStatus.UNKNOWN
    assert outcome.iterations == 300 and outcome.certificate is None


def test_search_deterministic():
    """Two runs in one process give the same outcome, rung tallies
    included, on one block and on three blocks of sizes 6, 3 and 3."""
    for p, r, blocks, seed in ((7, 3, (BLOCK_73,), 5), (8, 4, full_ansatz(8, 4), 0)):
        opts = SearchOptions(seed=seed, max_iters=5000)
        a = feasibility_search(p, r, blocks, opts)
        assert a == feasibility_search(p, r, blocks, opts)
        assert a.rungs_skipped + a.rungs_float_rejected + a.rungs_exact > 0


# ------------------------------------------------------------------ json

def test_outcome_json_infeasible(tmp_path, capsys):
    """The JSON document that `search --format json` prints for the
    infeasible (6, 3) block names the witness and carries no certificate."""
    import json

    from hurwitz_sos.cli import EXIT_INFEASIBLE, main

    ansatz = {
        "p": 6,
        "r": 3,
        "blocks": [
            {"prefix": P6_BLOCK.prefix, "suffix": P6_BLOCK.suffix, "basis": list(P6_BLOCK.basis)}
        ],
    }
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(ansatz))
    assert main(["search", "--ansatz", str(path), "--format", "json"]) == EXIT_INFEASIBLE
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "infeasible"
    assert doc["witness"] == {
        "block": 0,
        "vector": [[1, 1, 0, 1], [-1, 1, 0, 1]],
        "form": [-4, 1, 0, 1],
    }
    assert doc["certificate"] is None
