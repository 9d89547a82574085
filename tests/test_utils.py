import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.utils import (_atomic_write, atomic_write_npz, atomic_write_text, checked_array,
                           checked_number, csv_text)


@pytest.mark.parametrize("value, kind, positive, expected", [
    (3, int, False, 3),
    (-3, int, False, -3),
    (3, int, True, 3),
    (12.0, int, True, 12),
    (-0.0, int, False, 0),
    (3, float, False, 3.0),
    (2.5, float, True, 2.5),
    (1e-320, float, True, 1e-320),
])
def test_json_numbers_are_read(value, kind, positive, expected):
    got = checked_number(value, "k", kind, positive)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize("value, kind, positive, message", [
    ("12", int, False, "k must be an int, got '12'"),
    (12.5, int, False, "k must be an int, got 12.5"),
    (math.inf, int, False, "k must be an int, got inf"),
    (math.nan, int, False, "k must be an int, got nan"),
    (0.0, int, True, "k must be a positive int, got 0"),
    (True, int, False, "k must be an int, got True"),
    (None, int, False, "k must be an int, got None"),
    (0, int, True, "k must be a positive int, got 0"),
    ("1e3", float, False, "k must be a number, got '1e3'"),
    (False, float, False, "k must be a number, got False"),
    ([1.0], float, False, "k must be a number, got [1.0]"),
    (math.nan, float, False, "k must be finite, got nan"),
    (-math.inf, float, False, "k must be finite, got -inf"),
    (10 ** 400, float, False, "k must be finite, got inf"),
    (math.inf, float, True, "k must be a positive finite number, got inf"),
    (math.nan, float, True, "k must be a positive finite number, got nan"),
    (0, float, True, "k must be a positive finite number, got 0.0"),
    ("0.5", float, True, "k must be a number, got '0.5'"),
    (None, int, True, "k must be an int, got None"),
])
def test_anything_else_is_refused_by_name(value, kind, positive, message):
    with pytest.raises(ValueError) as info:
        checked_number(value, "k", kind, positive)
    assert str(info.value) == message


@pytest.mark.parametrize("value, shape, expected", [
    ([1, 2.5], (None,), [1.0, 2.5]),
    ([[1, 2], [3, 4]], (2, 2), [[1.0, 2.0], [3.0, 4.0]]),
    ([[0.5]], (None, 1), [[0.5]]),
    (np.arange(3), (3,), [0.0, 1.0, 2.0]),
    (np.array(2.0), (), 2.0),
])
def test_number_arrays_are_read_as_floats(value, shape, expected):
    got = checked_array(value, "k", shape)
    assert got.dtype == float and got.tolist() == expected


@pytest.mark.parametrize("value, shape, message", [
    (["1.5", "0.9"], (None,), "k must be a number array of shape (n,) with n >= 1, "
                              "got ['1.5', '0.9']"),
    ([1.0, "x"], (2,), "k must be a number array of shape (2,), got [1.0, 'x']"),
    ([], (None,), "k must be a number array of shape (n,) with n >= 1, got []"),
    ([[1.0], [1.0, 2.0]], (2, None), "k must be a number array of shape (2, n) with n >= 1"),
    ([None, 1.0], (2,), "k must be a number array of shape (2,), got [None, 1.0]"),
    ([True, False], (2,), "k must be a number array of shape (2,), got [True, False]"),
    ([10 ** 30], (1,), "k must be a number array of shape (1,)"),
    (0.5, (None,), "k must be a number array of shape (n,) with n >= 1, got 0.5"),
    ([1.0, 2.0], (3,), "k must be a number array of shape (3,), got [1.0, 2.0]"),
    (np.array("1e10"), (), "k must be a number array of shape (), got array('1e10'"),
    ([1.0, math.nan], (2,), "k must be finite, got nan at index [1]"),
    ([[0.0, 1.0], [-math.inf, math.nan]], (2, 2), "k must be finite, got -inf at index [1, 0]"),
    (np.array(math.inf), (), "k must be finite, got inf"),
    ([True, 0.5], (2,), "k must be a number array, got True at index [0]"),
    ([[0.0, 1.0], [1, False]], (2, 2), "k must be a number array, got False at index [1, 1]"),
    ([2, True], (2,), "k must be a number array, got True at index [1]"),
])
def test_other_arrays_are_refused_by_name(value, shape, message):
    with pytest.raises(ValueError) as info:
        checked_array(value, "k", shape)
    assert str(info.value).startswith(message)


def per_row_csv_text(header, values, labels=None):
    """One `%` and one tuple per row: the former `csv_text`, the oracle of its
    bytes."""
    values = np.asarray(values, dtype=float)
    rows, line = values.tolist(), ",".join(["%r"] * values.shape[1]) + "\n"
    if labels is not None:
        line, rows = "%s," + line, [(label, *row) for label, row in zip(labels, rows)]
    return ",".join(header) + "\n" + "".join([line % tuple(row) for row in rows])


@pytest.mark.parametrize("labelled", [False, True])
def test_csv_rows_are_the_reprs_of_their_floats(labelled):
    rows = [[-0.0, 1e-300, 1e300], [3.0, -2.0, 0.1], [5e-324, 1.5e16, 123456789.0]]
    labels = [f"{k},x" for k in range(3)] if labelled else None
    lines = [",".join(map(repr, row)) for row in rows]
    if labelled:
        lines = [f"{label},{line}" for label, line in zip(labels, lines)]
    assert csv_text(["a", "b", "c"], np.array(rows), labels) == \
        "a,b,c\n" + "".join(line + "\n" for line in lines)
    assert "-0.0,1e-300,1e+300" in csv_text(["a", "b", "c"], rows, labels)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(1, 9), labelled=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csv_table_equals_the_per_row_oracle(rows, cols, labelled, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 300, size=(rows, cols))
    planted = rng.uniform(size=values.shape) < 0.3
    values[planted] = rng.choice([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 7.0],
                                 size=planted.sum())
    header = [f"c{j}" for j in range(cols)]
    labels = [f"{k},{rng.integers(100)}" for k in range(rows)] if labelled else None
    assert csv_text(header, values, labels) == per_row_csv_text(header, values, labels)


def test_failed_write_keeps_the_old_content_and_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "old\n")

    def write(fh):
        fh.write(b"half of the new")
        raise OSError("disk full")

    with pytest.raises(OSError, match="^disk full$"):
        _atomic_write(path, write)
    with open(path) as fh:
        assert fh.read() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # no .tmp_* file is left behind


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
@pytest.mark.parametrize("writer", [lambda path: atomic_write_text(path, "text\n"),
                                    lambda path: atomic_write_npz(path, {"a": np.zeros(2)})],
                         ids=["text", "npz"])
def test_written_file_has_the_mode_open_gives_under_the_umask(tmp_path, umask, mode, writer):
    path = str(tmp_path / "out")
    old = os.umask(umask)
    try:
        writer(path)
        first = stat.S_IMODE(os.stat(path).st_mode)
        os.chmod(path, 0o400)
        writer(path)  # over an existing file: a new file again, not the old one's mode
        again = stat.S_IMODE(os.stat(path).st_mode)
        with open(str(tmp_path / "plain"), "w"):
            pass
    finally:
        os.umask(old)
    assert first == again == stat.S_IMODE(os.stat(str(tmp_path / "plain")).st_mode) == mode
    assert sorted(os.listdir(tmp_path)) == ["out", "plain"]
