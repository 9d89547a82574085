
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from iwskill.batch import learn_batch_weighted
from iwskill.demos import (DTW_CHUNK, DemoSet, RawDemo, StateTrajectory, _dtw_chunk, dtw_align,
                           estimate_states, save_raw_demo)
from iwskill.synthetic import make_reaching_scene
from iwskill.utils import read_json, write_json


def line_demo(slope=2.0, intercept=0.0, t=None):
    if t is None:
        t = np.linspace(0.0, 3.0, 7)
    return RawDemo(timestamps=t, positions=(slope * t + intercept)[:, None])


def brute_force_dtw_cost(a, b):
    """Independent oracle: minimum cost over ALL monotone warping paths with
    steps {(1,0),(0,1),(1,1)}, found by explicit path enumeration."""
    n, m = len(a), len(b)
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best = [np.inf]

    def walk(i, j, cost):
        cost += dist[i, j]
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            if i + di < n and j + dj < m:
                walk(i + di, j + dj, cost)

    walk(0, 0, 0.0)
    return best[0]


def dtw_path(a, b):
    """The kernel's warping path [(i, j), ...] from a (n, P) to b (m, P), and
    its cost: the distances summed along it."""
    [path] = _dtw_chunk(a, [b])
    i, j = path
    return float(np.linalg.norm(a[i] - b[j], axis=1).sum()), [tuple(ij) for ij in path.T.tolist()]


def reference_dtw_path(a, b):
    """The per-pair double loop and traceback the batched kernel replaced,
    kept as the bit-for-bit reference."""
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    n, m = dist.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            acc[i + 1, j + 1] = dist[i, j] + min(acc[i, j], acc[i, j + 1], acc[i + 1, j])
    acc = acc[1:, 1:]
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            move = int(np.argmin((acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])))
            if move == 0:
                i, j = i - 1, j - 1
            elif move == 1:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(acc[-1, -1]), path


def longest(demos):
    """Index of the longest demo, the first of them on ties."""
    return max(range(len(demos)), key=lambda k: (len(demos[k]), -k))


def reference_dtw_align(demos, reference_index):
    """The per-pair alignment loop the batched kernel replaced."""
    ref = demos[reference_index]
    aligned = []
    for k, demo in enumerate(demos):
        if k == reference_index:
            aligned.append(demo)
            continue
        _, path = reference_dtw_path(ref.positions, demo.positions)
        sums = np.zeros_like(ref.positions)
        counts = np.zeros(len(ref))
        for i, j in path:
            sums[i] += demo.positions[j]
            counts[i] += 1
        aligned.append(RawDemo(timestamps=ref.timestamps.copy(), positions=sums / counts[:, None]))
    return aligned


@st.composite
def demo_sets(draw):
    """1-5 demos of ragged length and dimension 1-3, with real or
    integer-valued positions (integers force ties), and a reference index
    for the kernel drawn over all demos, so it is often not the longest."""
    k, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    values = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-5, 5)
    demos = []
    for length in draw(st.lists(st.integers(4, 11), min_size=k, max_size=k)):
        rows = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                             min_size=length, max_size=length))
        demos.append(RawDemo(timestamps=np.arange(length, dtype=float), positions=np.array(rows)))
    return demos, draw(st.integers(0, k - 1))


class TestCubicSpline:
    def test_linear_data_reproduced_exactly(self):
        states = estimate_states(line_demo(slope=2.0), 49).states
        t = np.linspace(0.0, 3.0, 50)
        np.testing.assert_allclose(states[:, 0], 2.0 * t, atol=1e-12)
        np.testing.assert_allclose(states[:, 1], 2.0, atol=1e-12)

    def test_cubic_derivative_central_interval(self):
        # 4 samples of t^3: boundary conditions distort the ends, so check
        # the middle of the central interval (node 1 of 2) against 3 t^2
        t = np.array([0.0, 1.0, 2.0, 3.0])
        demo = RawDemo(timestamps=t, positions=(t ** 3)[:, None])
        velocity = estimate_states(demo, 2).states[1, 1]
        assert abs(velocity - 3 * 1.5 ** 2) <= 0.05 * 3 * 1.5 ** 2

    def test_cubic_derivative_interior_knots_dense(self):
        # 12 steps put the nodes on the 13 knots
        t = np.linspace(0.0, 3.0, 13)
        demo = RawDemo(timestamps=t, positions=(t ** 3)[:, None])
        velocity = estimate_states(demo, 12).states[2:-2, 1]
        np.testing.assert_allclose(velocity, 3 * t[2:-2] ** 2, rtol=0.05)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too few samples"):
            RawDemo(timestamps=np.array([0.0, 1.0, 2.0]), positions=np.zeros((3, 1)))

    def test_one_timestamp_per_sample(self):
        with pytest.raises(ValueError, match=re.escape("timestamps must be a number array "
                                                       "of shape (4,), got array(")):
            RawDemo(timestamps=np.linspace(0.0, 1.0, 5), positions=np.zeros((4, 1)))

    @pytest.mark.parametrize("row, column", [(2, 0), (5, 1), (0, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_its_row(self, row, column, bad):
        samples = np.column_stack([np.linspace(0.0, 1.0, 7), np.zeros((7, 2))])
        samples[row, column] = bad
        with pytest.raises(ValueError) as info:
            RawDemo(timestamps=samples[:, 0], positions=samples[:, 1:])
        assert str(info.value) == (f"timestamps must be finite, got {bad} at index [{row}]"
                                   if column == 0 else f"positions must be finite, got {bad} "
                                                       f"at index [{row}, {column - 1}]")

    def test_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RawDemo(timestamps=np.array([0.0, 1.0, 1.0, 2.0]), positions=np.zeros((4, 1)))

    def test_timestamps_spanning_past_the_float_range_fail_the_fit_alone(self):
        # their steps overflow: the order check must not subtract, the spline fit refuses
        demo = RawDemo(timestamps=np.array([-1.7e308, -1e308, 1e308, 1.7e308]),
                       positions=np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"^the spline states are not finite \(overflow\)$"):
            estimate_states(demo, 3)


class TestEstimateStates:
    def test_constant_demo_zero_velocity(self):
        t = np.linspace(0.0, 1.0, 5)
        demo = RawDemo(timestamps=t, positions=np.full((5, 2), 3.7))
        traj = estimate_states(demo, 10)
        np.testing.assert_allclose(traj.states[:, traj.dim // 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(traj.positions, 3.7)

    @pytest.mark.parametrize("n_steps", [1, 7, 20])
    def test_linear_demo_velocity_is_slope(self, n_steps):
        traj = estimate_states(line_demo(slope=-1.25, intercept=4.0), n_steps)
        np.testing.assert_allclose(traj.states[:, traj.dim // 2:], -1.25, atol=1e-10)
        assert traj.dt == pytest.approx(3.0 / n_steps)

    def test_cubic_velocities_against_analytic(self):
        t = np.linspace(0.0, 2.0, 21)
        demo = RawDemo(timestamps=t, positions=(t ** 3)[:, None])
        traj = estimate_states(demo, 50)
        nodes = np.linspace(0.0, 2.0, 51)
        interior = slice(5, -5)
        np.testing.assert_allclose(traj.states[interior, traj.dim // 2],
                                   3 * nodes[interior] ** 2, rtol=0.05)

    def test_resampling_consistency(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 2.0, 9))
        t[0], t[-1] = 0.0, 2.0
        demo = RawDemo(timestamps=t, positions=rng.normal(size=(9, 3)))
        coarse = estimate_states(demo, 10)
        fine = estimate_states(demo, 20)
        np.testing.assert_allclose(coarse.states, fine.states[::2], rtol=1e-12, atol=1e-12)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            estimate_states(line_demo(), 0)


@st.composite
def shared_time_demos(draw):
    """1-9 demos on one set of 4-60 uneven timestamps at a time scale of
    1e-3 to 1e3 s, with 1-7 coordinates at a scale of 1e-6 to 1e6 (real,
    integer-valued with many zeros, or all -0.0), and a grid of 1-400 steps."""
    n, dim, k = draw(st.integers(4, 60)), draw(st.integers(1, 7)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = 10.0 ** draw(st.integers(-3, 3)) * np.cumsum(rng.uniform(0.01, 1.0, n))
    scale, kind = 10.0 ** draw(st.integers(-6, 6)), draw(st.sampled_from(["real", "int", "-0"]))
    if kind == "real":
        positions = scale * rng.normal(size=(k, n, dim))
    elif kind == "int":
        positions = scale * rng.integers(-1, 2, size=(k, n, dim)).astype(float)
    else:
        positions = np.full((k, n, dim), -0.0)
    return [RawDemo(timestamps=t, positions=p) for p in positions], draw(st.integers(1, 400))


def scipy_states(demo, n_steps):
    spline = CubicSpline(demo.timestamps, demo.positions, bc_type="natural", axis=0)
    t = np.linspace(demo.timestamps[0], demo.timestamps[-1], n_steps + 1)
    return np.hstack([spline(t), spline.derivative()(t)])


class TestSplineOracle:
    """`estimate_states` against scipy's natural `CubicSpline`, the code it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(shared_time_demos())
    def test_bit_equal_to_scipy(self, case):
        demos, n_steps = case
        for demo in demos[:2]:
            want = scipy_states(demo, n_steps)
            assert estimate_states(demo, n_steps).states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("columns", [3, 24])
    def test_bit_equal_to_scipy_with_row_interchanges(self, columns):
        # 300 knots with steps from 1e-3 to 10 s: the second step is more than twice
        # the first, so dgtsv interchanges rows 0 and 1, and more rows further on;
        # one demo's width, and a DTW-aligned stack's
        rng = np.random.default_rng(26)
        steps = 10.0 ** rng.uniform(-3, 1, 299)
        steps[:2] = 1e-3, 1.0
        y = rng.normal(size=(300, columns)) * rng.integers(0, 2, size=(300, columns))
        y[rng.random(y.shape) < 0.05] = -0.0
        demo = RawDemo(timestamps=np.concatenate([[0.0], np.cumsum(steps)]), positions=y)
        want = scipy_states(demo, 400)
        assert estimate_states(demo, 400).states.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shared_time_demos())
    def test_wide_demo_is_each_demo_fit_alone(self, case):
        # the stacked fit the CLI makes of DTW-aligned demos
        demos, n_steps = case
        k, dim = len(demos), demos[0].dim
        wide = estimate_states(RawDemo(timestamps=demos[0].timestamps,
                                       positions=np.hstack([d.positions for d in demos])), n_steps)
        split = wide.states.reshape(-1, 2, k, dim).transpose(2, 0, 1, 3).reshape(k, -1, 2 * dim)
        for demo, states in zip(demos, split):
            alone = estimate_states(demo, n_steps)
            assert states.tobytes() == alone.states.tobytes() and wide.dt == alone.dt


class TestDtw:
    def test_identity_alignment(self):
        demo = line_demo()
        out = dtw_align([demo, demo])
        np.testing.assert_allclose(out[1].positions, demo.positions)
        cost, _ = dtw_path(demo.positions, demo.positions)
        assert cost == 0.0

    def test_repeated_sample_collapses(self):
        ref = np.array([[0.0], [1.0], [2.0]])
        query = np.array([[0.0], [0.0], [1.0], [2.0]])
        cost, path = dtw_path(ref, query)
        assert cost == pytest.approx(brute_force_dtw_cost(ref, query), abs=1e-12)
        assert cost == 0.0
        # apply the alignment averaging by hand
        sums = np.zeros_like(ref)
        counts = np.zeros(3)
        for i, j in path:
            sums[i] += query[j]
            counts[i] += 1
        np.testing.assert_allclose(sums / counts[:, None], ref)

    def test_matches_exhaustive_path_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 2))
            b = rng.normal(size=(5, 2))
            cost, _ = dtw_path(a, b)
            assert cost == pytest.approx(brute_force_dtw_cost(a, b), rel=1e-12)

    def test_dimension_mismatch(self):
        d1 = line_demo()
        t = np.linspace(0.0, 1.0, 5)
        d2 = RawDemo(timestamps=t, positions=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimension"):
            dtw_align([d1, d2])

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            dtw_align([])

    def test_default_reference_is_longest(self):
        short = line_demo(t=np.linspace(0.0, 3.0, 5))
        long = line_demo(t=np.linspace(0.0, 3.0, 9))
        out = dtw_align([short, long])
        assert all(len(d) == 9 for d in out)
        twin = line_demo(t=np.linspace(0.0, 3.0, 9), slope=-1.0)
        out = dtw_align([short, long, twin])  # a tie: the first longest is the reference
        assert out[1] is long and out[2] is not twin

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=7),
           st.lists(st.floats(-5, 5), min_size=4, max_size=7))
    def test_cost_symmetric(self, xs, ys):
        a = np.asarray(xs)[:, None]
        b = np.asarray(ys)[:, None]
        ca, _ = dtw_path(a, b)
        cb, _ = dtw_path(b, a)
        assert ca == pytest.approx(cb, rel=1e-9, abs=1e-9)

    def test_zero_cost_iff_equal_under_warping(self):
        a = np.array([[0.0], [1.0], [1.0], [2.0]])
        b = np.array([[0.0], [1.0], [2.0]])
        cost, _ = dtw_path(a, b)
        assert cost == 0.0
        c = np.array([[0.0], [1.5], [2.0]])
        cost_c, _ = dtw_path(a, c)
        assert cost_c > 0.0


class TestBatchedDtw:
    """The wavefront kernel against the per-pair loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(demo_sets())
    def test_bit_equal_to_per_pair_loop(self, case):
        demos, ref = case
        for got, want in zip(dtw_align(demos), reference_dtw_align(demos, longest(demos))):
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
        paths = _dtw_chunk(demos[ref].positions, [demo.positions for demo in demos])
        for path, demo in zip(paths, demos):
            _, want = reference_dtw_path(demos[ref].positions, demo.positions)
            assert [tuple(ij) for ij in path.T.tolist()] == want

    def test_more_pairs_than_one_chunk(self):
        rng = np.random.default_rng(5)
        demos = [RawDemo(timestamps=np.arange(6 + k % 4, dtype=float),
                         positions=rng.normal(size=(6 + k % 4, 2)))
                 for k in range(DTW_CHUNK + 3)]
        for got, want in zip(dtw_align(demos), reference_dtw_align(demos, longest(demos))):
            assert got.positions.tobytes() == want.positions.tobytes()

    @pytest.mark.parametrize("dim", [3, 7])
    def test_ragged_chunks_beyond_the_property_sizes(self, dim):
        # more demos than one chunk, 30-60 samples, and for the kernel a
        # reference shorter than some of the others; P = 7 is the JACO2's
        # joint count
        rng = np.random.default_rng(dim)
        lengths = rng.integers(30, 61, size=DTW_CHUNK + 2)
        lengths[4] = 40
        demos = [RawDemo(timestamps=np.arange(length, dtype=float),
                         positions=np.cumsum(rng.normal(size=(length, dim)), axis=0))
                 for length in lengths]
        assert lengths.max() > 40
        for got, want in zip(dtw_align(demos), reference_dtw_align(demos, longest(demos))):
            assert got.positions.tobytes() == want.positions.tobytes()
        paths = _dtw_chunk(demos[4].positions, [demo.positions for demo in demos])
        for path, demo in zip(paths, demos):
            _, want = reference_dtw_path(demos[4].positions, demo.positions)
            assert [tuple(ij) for ij in path.T.tolist()] == want

    def test_cost_matches_reference_beyond_seven_coordinates(self):
        # from P = 8 numpy's norm sums pairwise, so distances may differ in
        # the last bit and only the cost is compared
        rng = np.random.default_rng(9)
        a, b = (np.cumsum(rng.normal(size=(length, 9)), axis=0) for length in (45, 38))
        cost, _ = dtw_path(a, b)
        assert cost == pytest.approx(reference_dtw_path(a, b)[0], rel=1e-12)

    def test_overflowing_distances_give_the_reference_paths(self):
        # every squared difference overflows, so every distance is inf; the
        # kernel raises no RuntimeWarning (an error under the test settings)
        rng = np.random.default_rng(3)
        a = 1e200 * rng.normal(size=(12, 2))
        bs = [1e200 * rng.normal(size=(length, 2)) for length in (9, 12, 15)]
        paths = _dtw_chunk(a, bs)
        for path, b in zip(paths, bs):
            with np.errstate(over="ignore"):
                cost, want = reference_dtw_path(a, b)
            assert cost == np.inf
            assert [tuple(ij) for ij in path.T.tolist()] == want

    def test_working_memory_is_the_int8_step_stack(self):
        # 8 demos x 400 samples: 7 pairs share one chunk, whose int8 step
        # stack is 7 n m bytes (the bound below allows 7 (n+1)^2). Beyond it
        # the kernel holds O(K n) floats, well under one float64 n x m
        # matrix; a float cost or distance matrix per pair (the per-pair loop
        # held several) fails.
        rng = np.random.default_rng(0)
        n = 400
        demos = [RawDemo(timestamps=np.arange(n, dtype=float),
                         positions=np.cumsum(rng.normal(size=(n, 2)), axis=0)) for _ in range(8)]
        tracemalloc.start()
        try:
            dtw_align(demos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * (n + 1) ** 2 + 8 * n * n

    def test_a_later_longest_demo_is_the_reference(self):
        # demo 3 alone keeps its 40 samples, so every demo lands on them and
        # the learned model's dt is demo 3's duration over the grid
        full = make_reaching_scene(n_raw=40).raw_demos
        raw = [RawDemo(timestamps=d.timestamps[::2], positions=d.positions[::2]) for d in full]
        raw[3] = full[3]
        aligned = dtw_align(raw)
        for got, want in zip(aligned, reference_dtw_align(raw, 3)):
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.timestamps.tobytes() == raw[3].timestamps.tobytes()
        model = learn_batch_weighted(DemoSet(demos=[estimate_states(d, 25) for d in aligned]),
                                     [np.ones(26)] * len(raw))
        assert model.dt == pytest.approx((raw[3].timestamps[-1] - raw[3].timestamps[0]) / 25)


class TestRawDemoFiles:
    def test_json_round_trip(self, tmp_path):
        from iwskill.demos import load_raw_demo, save_raw_demo
        demo = line_demo(slope=1.5)
        path = str(tmp_path / "demo.json")
        save_raw_demo(path, demo)
        again = load_raw_demo(path)
        np.testing.assert_array_equal(again.timestamps, demo.timestamps)
        np.testing.assert_array_equal(again.positions, demo.positions)

    @pytest.mark.parametrize("key, index, value, message", [
        ("positions", (3, 1), "0.5", "positions must be a number array of shape (n, n)"),
        ("positions", (3, 1), None, "positions must be a number array of shape (n, n)"),
        ("timestamps", (2,), {}, "timestamps must be a number array of shape (6,)"),
        ("positions", (3, 1), float("nan"), "positions must be finite, got nan at index [3, 1]"),
        ("timestamps", (4,), float("inf"), "timestamps must be finite, got inf at index [4]"),
    ], ids=["string", "null", "object", "nan", "inf"])
    def test_json_demo_holds_only_finite_numbers(self, tmp_path, key, index, value, message):
        from iwskill.demos import load_raw_demo
        path = str(tmp_path / "demo.json")
        save_raw_demo(path, RawDemo(timestamps=np.linspace(0.0, 1.0, 6),
                                    positions=np.zeros((6, 2))))
        data = read_json(path)
        row = data[key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
        write_json(path, data)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_raw_demo(path)

    @pytest.mark.parametrize("header", [True, False])
    def test_csv_with_optional_header(self, tmp_path, header):
        from iwskill.demos import load_raw_demo
        path = tmp_path / "demo.csv"
        lines = ["t,x,y"] if header else []
        t = np.linspace(0.0, 1.0, 5)
        for i, ti in enumerate(t):
            lines.append(f"{ti},{0.1 * i},{-0.2 * i}")
        path.write_text("\n".join(lines) + "\n")
        demo = load_raw_demo(str(path))
        assert demo.dim == 2 and len(demo) == 5
        np.testing.assert_allclose(demo.timestamps, t)
        np.testing.assert_allclose(demo.positions[:, 1], -0.2 * np.arange(5))

    @pytest.mark.parametrize("header", [True, False])
    def test_csv_byte_order_mark_is_not_a_header(self, tmp_path, header):
        from iwskill.demos import load_raw_demo
        path = tmp_path / "demo.csv"
        rows = "".join(f"{i},{i},{i}\n" for i in range(5))
        path.write_bytes(b"\xef\xbb\xbf" + (("t,x,y\n" if header else "") + rows).encode())
        demo = load_raw_demo(str(path))
        np.testing.assert_array_equal(demo.timestamps, np.arange(5.0))
        np.testing.assert_array_equal(demo.positions, np.repeat(np.arange(5.0)[:, None], 2, 1))

    @pytest.mark.parametrize("text", ["", "t,x,y\n", "\n\n\n", "\nt,x,y\n\n"],
                             ids=["empty", "header", "blank", "blank-header-blank"])
    def test_csv_without_samples_rejected(self, tmp_path, text):
        from iwskill.demos import load_raw_demo
        path = tmp_path / "demo.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^no samples$"):
            load_raw_demo(str(path))

    @pytest.mark.parametrize("header", [True, False])
    def test_csv_leading_blank_line_is_skipped(self, tmp_path, header):
        from iwskill.demos import load_raw_demo
        path = tmp_path / "demo.csv"
        rows = "".join(f"{i},{i},{i}\n" for i in range(5))
        path.write_text("\n" + ("t,x,y\n\n" if header else "") + rows)
        demo = load_raw_demo(str(path))
        np.testing.assert_array_equal(demo.timestamps, np.arange(5.0))
        np.testing.assert_array_equal(demo.positions, np.repeat(np.arange(5.0)[:, None], 2, 1))

    def test_demo_without_position_column_rejected(self, tmp_path):
        from iwskill.demos import load_raw_demo
        no_column = r"positions must be a number array of shape \(n, n\) with n >= 1"
        with pytest.raises(ValueError, match=no_column):
            RawDemo(timestamps=np.linspace(0.0, 1.0, 5), positions=np.zeros((5, 0)))
        path = tmp_path / "demo.csv"
        path.write_text("t\n" + "".join(f"{t}\n" for t in np.linspace(0.0, 1.0, 5)))
        with pytest.raises(ValueError, match=no_column):
            load_raw_demo(str(path))


class TestDemoSet:
    def test_grid_mismatch_rejected(self):
        a = estimate_states(line_demo(), 10)
        b = estimate_states(line_demo(), 12)
        with pytest.raises(ValueError, match=r"^demo 1 is off demo 0's grid: grid \(N, D\) = "
                                             r"\(12, 2\), not \(10, 2\)$"):
            DemoSet(demos=[a, b])

    def test_empty_set_and_dt_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^a DemoSet needs at least one demonstration$"):
            DemoSet(demos=[])
        def traj(dt, n=3):
            return StateTrajectory(dt=dt, states=np.zeros((n, 2)))

        with pytest.raises(ValueError, match=r"^demo 1 is off demo 0's grid: dt = 0\.2, not 0\.1$"):
            DemoSet(demos=[traj(0.1), traj(0.2)])
        close = 0.1 * (1 + 5e-10)  # within rtol 1e-9 of 0.1
        assert DemoSet(demos=[traj(0.1), traj(close), traj(0.1 + 5e-13)]).k == 3
        with pytest.raises(ValueError, match=r"^demo 2 is off demo 0's grid: dt = 0\.1000001, "
                                             r"not 0\.1$"):
            DemoSet(demos=[traj(0.1), traj(close), traj(0.1000001), traj(0.3)])
        # the first demo off the grid is named
        with pytest.raises(ValueError, match=r"^demo 1 is off demo 0's grid: grid "):
            DemoSet(demos=[traj(0.1), traj(0.1, n=4), traj(0.3)])
        with pytest.raises(ValueError, match=r"^demo 1 is off demo 0's grid: dt "):
            DemoSet(demos=[traj(0.1), traj(0.3), traj(0.1, n=4)])

    def test_ingest_produces_shared_grid(self):
        rng = np.random.default_rng(0)
        demos = []
        for k in range(3):
            t = np.linspace(0.0, 1.0 + 0.2 * k, 8 + k)
            demos.append(RawDemo(timestamps=t, positions=rng.normal(size=(8 + k, 2))))
        ds = DemoSet(demos=[estimate_states(d, 15) for d in dtw_align(demos)])
        assert ds.k == 3 and ds.n_steps == 15 and ds.dim == 4

    def test_state_trajectory_invariants(self):
        with pytest.raises(ValueError):
            StateTrajectory(dt=0.0, states=np.zeros((3, 2)))
        # the grid test then compares finite steps only: two demos at dt inf
        # once made a DemoSet that the incremental learner refused
        for dt in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^dt must be positive and finite$"):
                StateTrajectory(dt=dt, states=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            StateTrajectory(dt=0.1, states=np.zeros((1, 2)))
