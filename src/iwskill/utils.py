"""Small shared helpers: atomic file writes, deterministic JSON dumps, npz
archives, CSV tables, and the one check of what a number is in an input file."""

import json
import math
import os
import reprlib

import numpy as np


def _atomic_write(path: str, write) -> None:
    """Fill a new temp file next to `path` with `write(binary_file)`, then
    rename it onto `path`, so readers never see a partially written file and
    failed writes leave the old content intact. The file gets the mode a plain
    `open(path, "w")` gives a new file: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}{os.path.basename(path)}")
    # O_EXCL: a name another writer holds (a 2**-64 chance) raises, never shares its file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, atomically."""
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def atomic_write_npz(path: str, arrays: dict) -> None:
    """Write `arrays` as one uncompressed npz archive to exactly `path`,
    atomically. Its zip entries carry a fixed timestamp, so equal arrays give
    equal bytes."""
    _atomic_write(path, lambda fh: np.savez(fh, **arrays))


def write_json(path: str, obj) -> None:
    """Deterministic one-line JSON (CPython's C encoder), insertion order
    preserved."""
    atomic_write_text(path, json.dumps(obj) + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def csv_text(header: list, values, labels: list | None = None) -> str:
    """CSV text: the header line, then one line per row of the (rows, cols)
    float table `values`, each written as repr(float), which round-trips.
    `labels`, one string per row, are written before the row's values. The
    whole table is one `%` over the row template repeated `rows` times."""
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    line, cells = ",".join(["%r"] * cols) + "\n", values.ravel().tolist()
    if labels is not None:  # interleave: every (cols + 1)-th cell is a label
        line, width = "%s," + line, cols + 1
        table = [None] * (rows * width)
        table[::width] = labels
        for c in range(cols):
            table[c + 1::width] = cells[c::cols]
        cells = table
    return ",".join(header) + "\n" + (line * rows) % tuple(cells)


def checked_number(value, key: str, kind: type = float, positive: bool = False):
    """`value` as a `kind`, or a ValueError naming `key` unless it is a JSON
    number of that kind (an int or a whole float for int; an int or float,
    not a bool, for float) that is finite and, with `positive`, above zero."""
    if kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if kind is int and type(value) is not int:
        raise ValueError(f"{key} must be an int, got {value!r}")
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf
    if positive and not 0 < value < math.inf:
        raise ValueError(f"{key} must be a positive {'int' if kind is int else 'finite number'}, "
                         f"got {value!r}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def checked_array(value, key: str, shape: tuple) -> np.ndarray:
    """`value` (nested lists, or an array) as a float array of `shape`, whose
    None entries stand for any length >= 1; a ValueError naming `key` unless
    it parses to a numeric dtype (a string or a None does not) of that shape
    with only finite entries and, in a list, no bool; the first bool or
    non-finite entry is named by its index."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = np.empty(0, dtype=object)
    if (a.dtype.kind not in "iuf" or a.ndim != len(shape)
            or any(n < 1 if s is None else n != s for n, s in zip(a.shape, shape))):
        size = str(shape).replace("None", "n") + (" with n >= 1" if None in shape else "")
        raise ValueError(f"{key} must be a number array of shape {size}, "
                         f"got {reprlib.repr(value)}")
    a = a.astype(float, copy=False)
    if isinstance(value, list):  # numpy reads a bool among numbers as 1 or 0
        for index in np.argwhere((a == 0) | (a == 1)).tolist():
            entry = value
            for i in index:
                entry = entry[i]
            if type(entry) is bool:
                raise ValueError(f"{key} must be a number array, got {entry} at index {index}")
    if not np.isfinite(a).all():
        bad = np.argwhere(~np.isfinite(a))[0]
        where = f" at index {bad.tolist()}" if a.ndim else ""
        raise ValueError(f"{key} must be finite, got {float(a[tuple(bad)])}{where}")
    return a
