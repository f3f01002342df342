"""Flat binary formats, PGM rendering, and trace CSVs.

Binary layouts are little-endian regardless of host byte order:

* model files:     magic ``MODL``, nx, ny as int32, then nx*ny float64
                   values row-major (x index varies slowest).
* trace files:     magic ``SEIS``, n_r, n_t as int32, then the (n_r, n_t)
                   float64 trace block row-major.

Trace CSVs carry one row per accepted iterate, one column per field of
``optim.TraceRecord`` in field order, each parsed back as its declared type;
floats are written with shortest round-trip formatting so identical runs
produce identical bytes.
"""

import csv
import typing
from dataclasses import astuple

import numpy as np

from .optim import TraceRecord
from .wave import ModelGrid

_TRACE_TYPES = typing.get_type_hints(TraceRecord)  # column -> type, in field order
TRACE_COLUMNS = tuple(_TRACE_TYPES)

_MODL = b"MODL"
_SEIS = b"SEIS"


def _write_block(path, magic, dims, payload):
    header = magic + np.asarray(dims, dtype="<i4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _read_block(path, magic, n_dims):
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = 4 + 4 * n_dims
    if len(raw) < head_len or raw[:4] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    dims = np.frombuffer(raw[4:head_len], dtype="<i4")
    if np.any(dims <= 0):
        raise ValueError(f"{path}: non-positive dimensions {tuple(dims)}")
    count = int(np.prod(dims.astype(np.int64)))
    payload = np.frombuffer(raw[head_len:], dtype="<f8")
    if payload.size != count:
        raise ValueError(f"{path}: expected {count} values, found {payload.size}")
    return tuple(int(d) for d in dims), payload.reshape(tuple(dims))


def write_model(path, model: ModelGrid) -> None:
    _write_block(path, _MODL, (model.nx, model.ny), model.as_2d())


def read_model(path) -> ModelGrid:
    (nx, ny), values = _read_block(path, _MODL, 2)
    return ModelGrid(values.ravel(), nx, ny)


def write_traces(path, traces: np.ndarray) -> None:
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise ValueError("traces must be a (n_receivers, n_samples) array")
    _write_block(path, _SEIS, traces.shape, traces)


def read_traces(path) -> np.ndarray:
    _, traces = _read_block(path, _SEIS, 2)
    return traces.copy()


def write_pgm(path, values: np.ndarray, vrange: float) -> None:
    """Render a (nx, ny) grid as binary 8-bit PGM.

    [-vrange, +vrange] maps linearly onto [0, 255] with ties rounded up, so
    0 renders as 128; out-of-range values clamp. Image width is nx.
    """
    if not 0.0 < vrange < np.inf:
        raise ValueError(f"value range must be positive and finite, got {vrange!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("expected a 2-d grid")
    scaled = (values + vrange) / (2.0 * vrange) * 255.0
    pixels = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    nx, ny = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(pixels.T.tobytes())


def write_trace_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([repr(float(v)) if kind is float else v
                             for kind, v in zip(_TRACE_TYPES.values(), astuple(r))])


def read_trace_csv(path):
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"{path}: unexpected trace header {header}")
        records = []
        for row in reader:
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}: malformed row {row}")
            records.append(TraceRecord(*(kind(cell) for kind, cell
                                         in zip(_TRACE_TYPES.values(), row))))
    return records
