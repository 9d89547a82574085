"""Small shared helpers: atomic file writes, deterministic JSON dumps, npz
archives and CSV tables."""

import json
import os
import tempfile

import numpy as np


def _atomic_write(path: str, write) -> None:
    """Fill a temp file next to `path` with `write(binary_file)`, then rename
    it onto `path`, so readers never see a partially written file and failed
    writes leave the old content intact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
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
    `labels`, one string per row, are written before the row's values."""
    lines = [",".join(map(repr, row)) for row in np.asarray(values, dtype=float).tolist()]
    if labels is not None:
        lines = [f"{label},{line}" for label, line in zip(labels, lines)]
    return "".join([",".join(header) + "\n"] + [line + "\n" for line in lines])


def stack_field(rows: list, key: str, shape: tuple) -> np.ndarray:
    """`row[key]` of every row (dicts read from JSON) as one C-contiguous
    float array of shape (len(rows), *shape). A ValueError names the first
    row whose entry is not a number array of that shape."""
    try:
        out = np.array([row[key] for row in rows], dtype=float)
        if out.shape == (len(rows),) + shape:
            return out
    except ValueError:
        pass
    bad = next((f"step {i}" for i, row in enumerate(rows)
                if np.shape(np.array(row[key], dtype=object)) != shape), "steps")
    raise ValueError(f"{bad}: {key} must be a number array of shape {shape}")
