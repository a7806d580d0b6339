import itertools
import mmap
import tracemalloc

import numpy as np
import pytest

from finsec import (
    AdjacencyGraph,
    BandDiagonals,
    GeneratorBoundError,
    IndexSet,
    PeriodicRule,
    Shift,
    SupportedVector,
    TableRule,
    assemble,
    build_example,
    builtin_domain,
    fsm_section,
    lattice_section,
    normal_equations_solve,
    overflow_block,
    rfsm_section,
    spectral_norm,
)
from finsec import fsm, sections
from finsec.sections import section_triplets
from conftest import random_band_operator
from oracles import identity_operator, in_dilation

BLOCK_B = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)


def symmetric_window(radius):
    return IndexSet.from_array(1, [(k,) for k in range(-radius, radius + 1)])


def place(index_set, point):
    """Position of `point` in `index_set`; fails when it is absent."""
    (k,) = index_set.locate([point]).tolist()
    assert k >= 0, point
    return k


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_identity():
    w = symmetric_window(1)
    sec = assemble(identity_operator(), w, w)
    assert np.array_equal(sec.data, np.eye(3))


def test_assemble_shift_window():
    w = symmetric_window(1)
    sec = assemble(Shift.by(1), w, w)
    assert np.array_equal(
        sec.data.real, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    )


def test_assemble_worked_window_is_corner_block(worked_case):
    w = symmetric_window(1)
    sec = assemble(worked_case.operator, w, w)
    assert np.array_equal(sec.data.real, BLOCK_B)


def test_assemble_provenance_invariant(worked_case, worked_prime_case):
    rng = np.random.default_rng(4)
    operators = [
        worked_case.operator,
        worked_prime_case.operator,
        build_example("blockdiag", 4).operator,
        *(random_band_operator(rng, width=int(rng.integers(1, 4))) for _ in range(5)),
    ]
    rows = symmetric_window(2)
    cols = IndexSet.from_array(1, [(k,) for k in range(-1, 4)])
    for operator in operators:
        sec = assemble(operator, rows, cols)
        for r, i in enumerate(rows.points):
            for c, j in enumerate(cols.points):
                assert sec.data[r, c] == operator.entry(i, j)


# ---------------------------------------------------------------------------
# fsm_section
# ---------------------------------------------------------------------------


def test_blockdiag_even_section():
    case = build_example("blockdiag", 5)
    sec = fsm_section(case.operator, case.domain, 2)
    swap = np.array([[0, 1], [1, 0]], dtype=float)
    expected = np.zeros((5, 5))
    expected[0:2, 0:2] = swap
    expected[2, 2] = 1
    expected[3:5, 3:5] = swap
    assert np.array_equal(sec.data.real, expected)


def test_blockdiag_odd_section_has_zero_corners():
    case = build_example("blockdiag", 5)
    sec = fsm_section(case.operator, case.domain, 1)
    assert np.array_equal(sec.data.real, np.diag([0.0, 1.0, 0.0]))


def test_identity_section_any_n(square):
    sec = fsm_section(identity_operator(2), square, 2)
    assert np.array_equal(sec.data, np.eye(25))


def test_sections_nest(worked_case):
    outer = fsm_section(worked_case.operator, worked_case.domain, 5)
    inner = fsm_section(worked_case.operator, worked_case.domain, 4)
    keep = [place(outer.rows, p) for p in inner.rows.points]
    assert np.array_equal(outer.data[np.ix_(keep, keep)], inner.data)


# ---------------------------------------------------------------------------
# rfsm_section
# ---------------------------------------------------------------------------


def test_rfsm_shift_contains_unit_columns(interval):
    sec = rfsm_section(Shift.by(1), interval, 2, 1)
    assert sec.shape == (5, 3)
    # every window-1 column holds exactly one unit entry, shifted down
    for c, j in enumerate(sec.cols.points):
        col = sec.data[:, c]
        assert np.count_nonzero(col) == 1
        assert col[place(sec.rows, (j[0] + 1,))] == 1


def test_rfsm_equals_fsm_for_square_cut(worked_case):
    a, dom = worked_case.operator, worked_case.domain
    assert np.array_equal(
        rfsm_section(a, dom, 3, 3).data, fsm_section(a, dom, 3).data
    )


def test_rfsm_worked_tall_window(worked_case):
    sec = rfsm_section(worked_case.operator, worked_case.domain, 4, 1)
    assert sec.shape == (9, 3)
    top = [place(sec.rows, (k,)) for k in (-1, 0, 1)]
    assert np.array_equal(sec.data.real[top, :], BLOCK_B)
    # the coupling row of ones appears at row -2 (hand-derived block layout)
    assert np.array_equal(sec.data.real[place(sec.rows, (-2,)), :], [1, 1, 1])
    nonzero_rows = {i[0] for r, i in enumerate(sec.rows.points) if sec.data[r].any()}
    assert nonzero_rows == {-2, -1, 0}  # row 1 is the zero row of the corner block


# ---------------------------------------------------------------------------
# overflow_block
# ---------------------------------------------------------------------------


def test_overflow_empty_beyond_band(interval, worked_case):
    for n in (1, 2, 5):
        block = overflow_block(worked_case.operator, interval, n + 3, n)
        assert block.shape[0] == 0
        assert spectral_norm(block.data) == 0.0


def test_overflow_shift_square_cut(interval):
    block = overflow_block(Shift.by(1), interval, 3, 3)
    # the one stored diagonal reaches only the top escape row
    assert set(block.rows.points) == {(4,)}
    assert spectral_norm(block.data) == pytest.approx(1.0, abs=1e-12)
    assert block.data[place(block.rows, (4,)), place(block.cols, (3,))] == 1


def test_overflow_blockdiag_odd_cut(interval):
    case = build_example("blockdiag", 8)
    n = 5
    block = overflow_block(case.operator, interval, n, n)
    assert set(block.rows.points) == {(-6,), (6,)}
    for z, j in (((-6,), (-5,)), ((6,), (5,))):
        assert block.data[place(block.rows, z), place(block.cols, j)] == 1
    assert spectral_norm(block.data) == pytest.approx(1.0, abs=1e-12)


def gapped_operator_2d():
    """A 2-D operator whose stored offsets leave gaps in its band."""
    alternating = PeriodicRule.from_mapping((2, 1), {(0, 0): 1, (1, 0): 2})
    return BandDiagonals.from_rules(
        2, {(0, 0): 3, (2, 0): -1, (0, -3): alternating, (-1, 2): 1j}
    )


def test_overflow_carries_all_escaping_action(interval, square, diamond_domain, worked_case):
    # stacking the rectangular section on the overflow block reproduces the
    # whole action of the operator on window-n columns
    rng = np.random.default_rng(9)
    triangle = builtin_domain("triangle")
    cases = [
        (random_band_operator(rng, width=int(rng.integers(1, 4))), interval, 4, 3)
        for _ in range(5)
    ]
    cases += [(worked_case.operator, interval, m, n) for n in (1, 3, 6) for m in (n, n + 1, n + 2)]
    for operator in (laplace_operator_2d(), gapped_operator_2d()):
        for domain in (square, diamond_domain, triangle):
            cases += [(operator, domain, m, n) for n in (1, 2, 4) for m in (n, n + 1, n + 3)]
    for a, domain, m, n in cases:
        sec = rfsm_section(a, domain, m, n)
        over = overflow_block(a, domain, m, n)
        x = rng.standard_normal(len(sec.cols)) + 1j * rng.standard_normal(len(sec.cols))
        u = SupportedVector.from_array(sec.cols, x)
        image = a.apply(u)
        stacked_rows = list(sec.rows.points) + list(over.rows.points)
        stacked = np.concatenate([sec.data @ x, over.data @ x])
        for p, value in zip(stacked_rows, stacked):
            assert image.get(p) == pytest.approx(value, abs=1e-12)
        # nothing escapes the stacked row set
        assert set(image.support()) <= set(stacked_rows)


def test_dense_budget_checked_before_windows_are_built(interval, monkeypatch):
    def never(*args):
        raise AssertionError("lattice_section called for an over-budget window")

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    monkeypatch.setattr(sections, "lattice_section", never)
    a, b = identity_operator(), SupportedVector.from_entries(1, {0: 1})
    for build in (
        lambda: fsm_section(a, interval, 4),
        lambda: rfsm_section(a, interval, 5, 4),
        lambda: normal_equations_solve(a, b, interval, 5, 4),
    ):
        with pytest.raises(ValueError, match="over the 1000-byte budget"):
            build()


# ---------------------------------------------------------------------------
# the vectorised diagonal walk against the per-cell definition
# ---------------------------------------------------------------------------


def per_cell_triplets(operator, rows, cols):
    """Reference walk: diagonal by diagonal, rows ascending, one cell at a time."""
    r_idx, c_idx, values = [], [], []
    positions = {p: k for k, p in enumerate(cols.points)}
    for offset, rule in operator.diagonals:
        for r, i in enumerate(rows.points):
            c = positions.get(tuple(a - b for a, b in zip(i, offset)))
            if c is not None:
                value = rule.value_at(i)
                if value != 0:
                    r_idx.append(r)
                    c_idx.append(c)
                    values.append(value)
    return (
        np.array(r_idx, dtype=np.intp),
        np.array(c_idx, dtype=np.intp),
        np.array(values, dtype=complex),
    )


def assert_same_triplets(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def laplace_operator_2d():
    table = {(0, 0): 4, (0, 1): 4.5, (1, 0): 5, (1, 1): 4.25}
    rules = {(0, 0): PeriodicRule.from_mapping((2, 2), table)}
    rules.update({d: -1 for d in ((1, 0), (-1, 0), (0, 1))})
    rules[(0, -1)] = TableRule.from_mapping(
        {(0, 0): -2, (1, -1): 0.5 + 1j}, default=-1, dimension=2
    )
    return BandDiagonals.from_rules(2, rules)


def test_triplets_match_per_cell_walk(interval, square, diamond_domain):
    cases = []
    for seed in range(8):
        a = random_band_operator(np.random.default_rng(seed), width=1 + seed % 3)
        cases += [(a, interval, m, n) for n in (1, 4, 9) for m in (n, n + 2)]
    lap = laplace_operator_2d()
    cases += [(lap, dom, m, n) for dom in (square, diamond_domain) for n, m in ((1, 1), (3, 4), (6, 6))]
    # edge ends 2**40 apart in both coordinates: more than int64 keys can
    # number over their bounding box
    far = AdjacencyGraph.from_edges(2, [((0, 0), (0, 1)), ((2**40, 2**40), (2**40, 2**40 + 1))])
    cases += [(far, square, 2, 2), (far, square, 3, 1)]
    for operator, dom, m, n in cases:
        rows, cols = lattice_section(dom, m), lattice_section(dom, n)
        assert_same_triplets(
            section_triplets(operator, rows, cols),
            per_cell_triplets(operator, rows, cols),
        )


def test_offsets_past_int64_meet_no_window(interval):
    far = 10**20
    band = BandDiagonals.from_rules(1, {0: 2, far: 1, -far: 3})
    for n in (1, 3):
        window = lattice_section(interval, n)
        assert_same_triplets(
            section_triplets(band, window, window),
            per_cell_triplets(band, window, window),
        )
    # an adjacency edge that far is refused when the graph is built
    with pytest.raises(ValueError, match=r"edge \(\(0,\), \(10+,\)\) has a coordinate past"):
        AdjacencyGraph.from_edges(1, [((0,), (far,)), ((1,), (2,))])


def test_adjacency_walk_raises_at_the_same_point():
    case = build_example("sierror", 1)  # edges complete up to max-norm radius 3
    graph = case.operator
    for n in range(1, 7):
        window = lattice_section(case.domain, n)
        if n <= 3:
            assert_same_triplets(
                section_triplets(graph, window, window),
                per_cell_triplets(graph, window, window),
            )
            continue
        # the first window column past the radius, which entry() refuses too
        column = window.points[0]
        with pytest.raises(GeneratorBoundError) as walked:
            graph.entry(window.points[-1], column)
        with pytest.raises(GeneratorBoundError) as got:
            section_triplets(graph, window, window)
        assert str(got.value) == str(walked.value)
        assert f"column {column} needs edges complete up to max-norm radius {n}" in str(
            got.value
        )


@pytest.mark.parametrize("family", ["blockdiag", "rarosi", "sierror", "diamond"])
def test_adjacency_rows_past_the_coverage_are_exact(family):
    """Blocks whose columns are covered and whose rows are not equal those of a
    graph generated far enough to cover every row."""
    case = build_example(family, 2)
    graph, radius = case.operator, case.operator.coverage_radius
    wide = build_example(family, 40).operator
    domains = [case.domain] + ([builtin_domain("diamond")] if graph.dimension == 2 else [])
    for domain in domains:
        n = max(k for k in range(1, 40) if domain.enclosing_radius(k) <= radius)
        blocks = [
            (rfsm_section(graph, domain, m, n), rfsm_section(wide, domain, m, n))
            for m in (n + 1, n + 3)
        ]
        blocks.append((overflow_block(graph, domain, n, n), overflow_block(wide, domain, n, n)))
        for got, expected in blocks:
            assert np.abs(got.rows.array).max() > radius >= np.abs(got.cols.array).max()
            assert got.rows == expected.rows and got.cols == expected.cols
            assert got.data.tobytes() == expected.data.tobytes()


def test_overflow_rows_are_the_stored_shifts_outside_window_m(interval, square, worked_case):
    lap = laplace_operator_2d()
    cases = [
        (random_band_operator(np.random.default_rng(seed), width=1 + seed % 3), interval)
        for seed in range(5)
    ] + [(worked_case.operator, interval)]
    cases += [
        (op, dom)
        for op in (lap, gapped_operator_2d())
        for dom in (square, builtin_domain("diamond"), builtin_domain("triangle"))
    ]
    dropped = 0
    for operator, dom in cases:
        width, dim = operator.band_width(), operator.dimension
        offsets = [d for d, _ in operator.diagonals]
        ball = list(itertools.product(range(-width, width + 1), repeat=dim))
        facets = [(f.normal, f.offset, f.closed) for f in dom.facets]
        for n, m in ((1, 1), (2, 3), (5, 5), (5, 6)):
            cols = lattice_section(dom, n)

            def escaping(steps):
                shifted = {tuple(a + b for a, b in zip(p, d)) for p in cols.points for d in steps}
                return sorted(p for p in shifted if not in_dilation(facets, p, m))

            expected = escaping(offsets)
            block = overflow_block(operator, dom, m, n)
            assert block.rows.points == tuple(expected)
            rows = IndexSet.from_array(dim, expected)
            assert block.data.tobytes() == assemble(operator, rows, cols).data.tobytes()
            # the rows of the max-norm ball expansion left out are zero rows
            ball_block = assemble(operator, IndexSet.from_array(dim, escaping(ball)), cols)
            kept = set(expected)
            for p, row in zip(ball_block.rows.points, ball_block.data):
                if p not in kept:
                    dropped += 1
                    assert not row.any(), p
    assert dropped > 100


def test_overflow_rows_of_a_far_diagonal_are_its_shift(square):
    operator = BandDiagonals.from_rules(2, {(0, 0): 4, (40, 0): -1})
    block = overflow_block(operator, square, 10, 10)
    # 21 x 21 shifted columns, against 9,760 rows of the width-40 ball
    assert block.shape == (441, 441)
    assert block.rows == IndexSet(2, lattice_section(square, 10).array + [40, 0])


def test_rfsm_section_refuses_fewer_rows_than_columns(interval):
    with pytest.raises(ValueError, match="m=2 is below the column cut-off n=3"):
        rfsm_section(identity_operator(), interval, 2, 3)


def zeros_fill(operator, rows, cols):
    """The np.zeros block that assemble filled before its blocks were mapped, as reference."""
    r, c, values = section_triplets(operator, rows, cols)
    data = np.zeros((len(rows), len(cols)), dtype=complex)
    data[r, c] = values
    return data


def in_a_mapping(data):
    # np.frombuffer keeps a memoryview of the mapping as the base of its array
    view = getattr(data.base, "base", None)
    return isinstance(getattr(view, "obj", None), mmap.mmap)


def assert_block_is_the_zeros_fill(section, operator):
    data = section.data
    assert data.dtype == np.complex128
    assert data.flags.c_contiguous and data.flags.writeable
    expected = zeros_fill(operator, section.rows, section.cols)
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()


def test_assembled_blocks_equal_the_zeros_fill(interval, square):
    cases = []
    for seed in range(6):
        a = random_band_operator(np.random.default_rng(seed), width=seed % 4)
        cases += [(a, interval, m, n) for n in (1, 5, 40) for m in (n, n + 3)]
    cases += [(laplace_operator_2d(), square, m, n) for n in (1, 4) for m in (n, n + 2)]
    # 16 x 601 x 561 bytes: past the huge-page cut, so in a mapping
    large = random_band_operator(np.random.default_rng(9), width=3)
    cases.append((large, interval, 300, 280))
    for operator, domain, m, n in cases:
        assert_block_is_the_zeros_fill(rfsm_section(operator, domain, m, n), operator)
        assert_block_is_the_zeros_fill(overflow_block(operator, domain, m, n), operator)
    assert 16 * 601 * 561 >= sections._HUGE_PAGE_ARRAY_BYTES
    assert in_a_mapping(rfsm_section(large, interval, 300, 280).data)
    assert not in_a_mapping(rfsm_section(large, interval, 200, 150).data)


def test_empty_blocks_equal_the_zeros_fill(interval):
    operator = random_band_operator(np.random.default_rng(3), width=2)
    # no row escapes window n + 2 of a width-2 operator
    escaping = overflow_block(operator, interval, 7, 5)
    assert escaping.shape == (0, 11)
    assert_block_is_the_zeros_fill(escaping, operator)
    for rows, cols in [
        (symmetric_window(3), IndexSet.from_array(1, [])),
        (IndexSet.from_array(1, []), IndexSet.from_array(1, [])),
    ]:
        assert_block_is_the_zeros_fill(assemble(operator, rows, cols), operator)


def test_assembled_blocks_do_not_share_memory(interval):
    operator = random_band_operator(np.random.default_rng(4), width=1)
    # 16 x 601 x 561 bytes: past the huge-page cut
    first, second = (rfsm_section(operator, interval, 300, 280).data for _ in range(2))
    first[:] = 7
    assert second.tobytes() == zeros_fill(
        operator, lattice_section(interval, 300), lattice_section(interval, 280)
    ).tobytes()


# ---------------------------------------------------------------------------
# the scan window budget, charged per point of the array storage
# ---------------------------------------------------------------------------

FIVE_POINT = BandDiagonals.from_rules(
    2, {(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
)


def window_charge(operator, n_points):
    return n_points * (48 + 8 * operator.dimension + 48 * len(operator.diagonals))


def test_window_budget_refuses_just_over_and_accepts_just_under(square, monkeypatch):
    built = []

    def counted(domain, n):
        built.append(n)
        return lattice_section(domain, n)

    monkeypatch.setattr(fsm, "lattice_section", counted)
    expected = fsm.section_extremes(FIVE_POINT, square, 1)
    # 9 points: the charge passes the dense block's 16 * 9 * 9 bytes
    charge = window_charge(FIVE_POINT, 9)
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", charge - 1)
    with pytest.raises(ValueError, match=f"window of 9 points .* needs {charge} bytes"):
        fsm.section_extremes(FIVE_POINT, square, 1)
    assert built == [1]  # refused before it was built
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", charge)
    assert fsm.section_extremes(FIVE_POINT, square, 1) == expected
    assert built == [1, 1]


@pytest.mark.parametrize("name, n", [("interval", 20000), ("square", 70)])
def test_window_budget_covers_the_measured_peak(name, n):
    dom = builtin_domain(name)
    width = 1 if dom.dimension == 2 else 2
    offsets = itertools.product(range(-width, width + 1), repeat=dom.dimension)
    operator = BandDiagonals.from_rules(dom.dimension, {d: 1 + k for k, d in enumerate(offsets)})
    tracemalloc.start()
    try:
        window = lattice_section(dom, n)
        section_triplets(operator, window, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = window_charge(operator, len(window))
    assert 0.9 * charge < peak <= charge
