"""Round trips and header contracts for binary grids, PGM, and trace CSVs."""

import numpy as np
import pytest

from gowave import fileio
from gowave.optim import TraceRecord
from gowave.wave import ModelGrid


def test_model_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    model = ModelGrid(rng.standard_normal(12 * 7) * 0.01, 12, 7)
    path = tmp_path / "m.modl"
    fileio.write_model(path, model)
    back = fileio.read_model(path)
    assert back.nx == 12 and back.ny == 7
    assert back.values.tobytes() == model.values.tobytes()


def test_model_header_layout(tmp_path):
    model = ModelGrid(np.zeros(6), 3, 2)
    path = tmp_path / "m.modl"
    fileio.write_model(path, model)
    raw = path.read_bytes()
    assert raw[:4] == b"MODL"
    assert np.frombuffer(raw[4:12], dtype="<i4").tolist() == [3, 2]
    assert len(raw) == 12 + 6 * 8


def test_traces_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    traces = rng.standard_normal((5, 40))
    path = tmp_path / "d.seis"
    fileio.write_traces(path, traces)
    raw = path.read_bytes()
    assert raw[:4] == b"SEIS"
    assert np.frombuffer(raw[4:12], dtype="<i4").tolist() == [5, 40]
    np.testing.assert_array_equal(fileio.read_traces(path), traces)


def test_reader_rejects_bad_magic_and_sizes(tmp_path):
    path = tmp_path / "x.modl"
    path.write_bytes(b"JUNK" + b"\x00" * 20)
    with pytest.raises(ValueError, match="not a MODL"):
        fileio.read_model(path)
    path.write_bytes(b"MODL" + np.array([3, 2], dtype="<i4").tobytes()
                     + b"\x00" * 8)  # payload too short
    with pytest.raises(ValueError, match="expected 6 values"):
        fileio.read_model(path)
    path.write_bytes(b"MODL" + np.array([0, 2], dtype="<i4").tobytes())
    with pytest.raises(ValueError, match="non-positive"):
        fileio.read_model(path)
    with pytest.raises(ValueError, match="n_receivers"):
        fileio.write_traces(tmp_path / "d.seis", np.zeros(5))


def read_pgm_pixels(path):
    raw = path.read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    assert magic == b"P5"
    w, h = (int(t) for t in dims.split())
    assert maxval == b"255"
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w), w, h


class TestPgm:
    def test_zero_grid_renders_midpoint_up(self, tmp_path):
        path = tmp_path / "z.pgm"
        fileio.write_pgm(path, np.zeros((4, 3)), vrange=0.05)
        pixels, w, h = read_pgm_pixels(path)
        assert (w, h) == (4, 3)
        assert np.all(pixels == 128)

    def test_extremes_and_clamping(self, tmp_path):
        grid = np.array([[-0.05, 0.05, 0.1, -0.2]]).reshape(1, 4)
        path = tmp_path / "e.pgm"
        fileio.write_pgm(path, grid, vrange=0.05)
        pixels, w, h = read_pgm_pixels(path)
        assert (w, h) == (1, 4)
        assert pixels.ravel().tolist() == [0, 255, 255, 0]

    def test_orientation_x_is_width(self, tmp_path):
        grid = np.zeros((3, 2))
        grid[2, 0] = 0.05   # largest x, smallest y
        path = tmp_path / "o.pgm"
        fileio.write_pgm(path, grid, vrange=0.05)
        pixels, w, h = read_pgm_pixels(path)
        assert (w, h) == (3, 2)
        assert pixels[0, 2] == 255
        assert pixels[1, 2] == 128

    def test_requires_positive_range(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            fileio.write_pgm(tmp_path / "b.pgm", np.zeros((2, 2)), vrange=0.0)


class TestTraceCsv:
    RECORDS = [
        TraceRecord(iter=0, solves=8, objective=0.285744986548, grad_norm=9.8,
                    model_error=0.0683686, step=0.0, ls_evals=0, extra=""),
        TraceRecord(iter=1, solves=20, objective=0.164519951459,
                    grad_norm=7.6, model_error=float("nan"),
                    step=0.4375631516882288, ls_evals=2, extra="7.26e+00"),
    ]

    def test_header_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_trace_csv(path, self.RECORDS)
        first = path.read_text().splitlines()[0]
        assert first == "iter,solves,objective,grad_norm,model_error,step,ls_evals,extra"

    def test_round_trip_preserves_values(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_trace_csv(path, self.RECORDS)
        back = fileio.read_trace_csv(path)
        assert len(back) == 2
        for orig, copy in zip(self.RECORDS, back):
            assert copy.iter == orig.iter
            assert copy.solves == orig.solves
            assert copy.objective == orig.objective  # shortest-repr exactness
            assert copy.step == orig.step
            assert copy.ls_evals == orig.ls_evals
            assert copy.extra == orig.extra
        assert np.isnan(back[1].model_error)

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_trace_csv(a, self.RECORDS)
        fileio.write_trace_csv(b, self.RECORDS)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            fileio.read_trace_csv(path)
