"""File exchange formats, synthetic inputs, memory estimates, CSV output."""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np
import pytest

import spworks as sw
import spworks.io
from spworks import IoError
from spworks.tensor import from_arrays


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def entry_set(tensor):
    return {(c.crds, c.val) for c in tensor.components()}


# MatrixMarket reading


def test_matrix_market_general_real(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "3 4 3",
        "1 1 2.5",
        "2 3 -1.0",
        "3 4 0.25",
    ])
    t = sw.read_matrix_market(path)
    assert t.dims == (3, 4)
    assert t.format == sw.coo(2)
    assert entry_set(t) == {((0, 0), 2.5), ((1, 2), -1.0), ((2, 3), 0.25)}


def test_matrix_market_integer_field(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate integer general",
        "2 2 2",
        "1 2 7",
        "2 1 -3",
    ])
    t = sw.read_matrix_market(path)
    assert entry_set(t) == {((0, 1), 7.0), ((1, 0), -3.0)}


def test_matrix_market_pattern_entries_store_one(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate pattern general",
        "2 3 2",
        "1 3",
        "2 1",
    ])
    t = sw.read_matrix_market(path)
    assert entry_set(t) == {((0, 2), 1.0), ((1, 0), 1.0)}


def test_matrix_market_symmetric_expands_off_diagonal(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real symmetric",
        "3 3 3",
        "2 1 5.0",
        "3 3 7.0",
        "3 1 2.0",
    ])
    t = sw.read_matrix_market(path)
    assert t.nnz == 5
    assert entry_set(t) == {
        ((1, 0), 5.0), ((0, 1), 5.0),
        ((2, 0), 2.0), ((0, 2), 2.0),
        ((2, 2), 7.0),
    }


def test_matrix_market_comments_and_blanks_skipped(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "% provenance comment",
        "",
        "2 2 2",
        "% interleaved",
        "1 1 1.0",
        "",
        "2 2 4.0",
    ])
    t = sw.read_matrix_market(path)
    assert entry_set(t) == {((0, 0), 1.0), ((1, 1), 4.0)}


def test_matrix_market_duplicates_summed(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2",
        "1 1 2.0",
        "1 1 3.0",
    ])
    t = sw.read_matrix_market(path)
    assert t.nnz == 1
    assert entry_set(t) == {((0, 0), 5.0)}


def test_matrix_market_reformat_on_read(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "2 3 2",
        "1 2 1.5",
        "2 3 2.5",
    ])
    t = sw.read_matrix_market(path, fmt=sw.csr())
    assert t.format == sw.csr()
    assert entry_set(t) == {((0, 1), 1.5), ((1, 2), 2.5)}


@pytest.mark.parametrize("header, message", [
    ("% MatrixMarket matrix coordinate real general", "missing %%MatrixMarket header"),
    ("%%MatrixMarket matrix coordinate real", "unsupported header"),
    ("%%MatrixMarket tensor coordinate real general", "unsupported header"),
    ("%%MatrixMarket matrix array real general", "unsupported layout"),
    ("%%MatrixMarket matrix coordinate complex general", "unsupported field"),
    ("%%MatrixMarket matrix coordinate real hermitian", "unsupported symmetry"),
])
def test_matrix_market_header_errors(tmp_path, header, message):
    path = write_lines(tmp_path / "m.mtx", [header, "1 1 1", "1 1 1.0"])
    with pytest.raises(IoError, match=message) as err:
        sw.read_matrix_market(path)
    assert str(err.value).startswith(f"{path}:1:")


@pytest.mark.parametrize("size_line, message", [
    ("4 4", "size line needs 3 fields"),
    ("a 4 4", "bad size line"),
    ("0 4 0", "size fields must be positive"),
    ("4 4 -1", "size fields must be positive"),
])
def test_matrix_market_size_line_errors(tmp_path, size_line, message):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        size_line,
    ])
    with pytest.raises(IoError, match=message):
        sw.read_matrix_market(path)


def test_matrix_market_missing_size_line(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "% only comments follow",
    ])
    with pytest.raises(IoError, match="missing size line"):
        sw.read_matrix_market(path)


@pytest.mark.parametrize("entry, message", [
    ("1 1", "entry needs 3 fields, got 2"),
    ("1 1 2.0 9", "entry needs 3 fields, got 4"),
    ("1 x 2.0", "bad entry"),
    ("0 1 2.0", r"coordinate \(0, 1\) out of range"),
    ("3 1 2.0", "out of range"),
    ("1 3 2.0", "out of range"),
])
def test_matrix_market_entry_errors(tmp_path, entry, message):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "2 2 1",
        entry,
    ])
    with pytest.raises(IoError, match=message) as err:
        sw.read_matrix_market(path)
    assert str(err.value).startswith(f"{path}:3:")


def test_matrix_market_entry_count_mismatch(tmp_path):
    path = write_lines(tmp_path / "m.mtx", [
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2",
        "1 1 1.0",
    ])
    with pytest.raises(IoError, match="expected 2 entries, found 1"):
        sw.read_matrix_market(path)


# MatrixMarket writing


def test_write_matrix_market_layout(tmp_path):
    t = from_arrays([[0, 2], [1, 0]], [1 / 3, 5.0], sw.coo(2), (3, 2))
    path = tmp_path / "out.mtx"
    sw.write_matrix_market(path, t)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 2 2"
    assert lines[2] == "1 2 0.33333333333333331"
    assert lines[3] == "3 1 5"


def test_matrix_market_round_trip(tmp_path):
    t = sw.synthetic_matrix(30, 20, 0.4, 3, seed=7)
    path = tmp_path / "rt.mtx"
    sw.write_matrix_market(path, t)
    back = sw.read_matrix_market(path)
    assert sw.tensors_equal(t, back)


def test_write_matrix_market_round_trips_from_compressed(tmp_path):
    t = sw.reformat(sw.synthetic_matrix(12, 9, 0.5, 2, seed=3), sw.csc())
    path = tmp_path / "csc.mtx"
    sw.write_matrix_market(path, t)
    back = sw.read_matrix_market(path, fmt=sw.csc())
    assert sw.tensors_equal(t, back)


def test_write_matrix_market_rejects_non_matrix(tmp_path):
    t = from_arrays([[0], [0], [0]], [1.0], sw.coo(3), (2, 2, 2))
    with pytest.raises(IoError, match="needs a matrix, got order 3"):
        sw.write_matrix_market(tmp_path / "bad.mtx", t)


# FROSTT files


def test_frostt_infers_order_and_dims(tmp_path):
    path = write_lines(tmp_path / "t.tns", [
        "1 2 3 4.0",
        "2 1 5 -2.0",
    ])
    t = sw.read_frostt(path)
    assert t.order == 3
    assert t.dims == (2, 2, 5)
    assert entry_set(t) == {((0, 1, 2), 4.0), ((1, 0, 4), -2.0)}


def test_frostt_explicit_dims(tmp_path):
    path = write_lines(tmp_path / "t.tns", ["1 1 3.0"])
    t = sw.read_frostt(path, dims=(4, 6))
    assert t.dims == (4, 6)


def test_frostt_comments_and_blanks(tmp_path):
    path = write_lines(tmp_path / "t.tns", [
        "# hash comment",
        "% percent comment",
        "",
        "2 2 9.0",
    ])
    t = sw.read_frostt(path)
    assert entry_set(t) == {((1, 1), 9.0)}


def test_frostt_duplicates_summed(tmp_path):
    path = write_lines(tmp_path / "t.tns", [
        "1 1 2.0",
        "1 1 3.5",
    ])
    t = sw.read_frostt(path)
    assert entry_set(t) == {((0, 0), 5.5)}


def test_frostt_reformat_on_read(tmp_path):
    path = write_lines(tmp_path / "t.tns", [
        "1 2 1 4.0",
        "2 1 2 6.0",
    ])
    t = sw.read_frostt(path, dims=(2, 2, 2), fmt=sw.csf(3))
    assert t.format == sw.csf(3)
    assert entry_set(t) == {((0, 1, 0), 4.0), ((1, 0, 1), 6.0)}


def test_frostt_dims_order_mismatch(tmp_path):
    path = write_lines(tmp_path / "t.tns", ["1 1 1 2.0"])
    with pytest.raises(IoError, match="2 dims for an order-3 file"):
        sw.read_frostt(path, dims=(4, 4))


def test_frostt_entry_exceeds_dims(tmp_path):
    path = write_lines(tmp_path / "t.tns", ["2 4 1.0", "1 5 2.0", "3 1 4.0"])
    with pytest.raises(IoError) as err:
        sw.read_frostt(path, dims=(2, 4))
    assert str(err.value) == f"{path}: entry (0, 4) exceeds dims (2, 4)"


def test_frostt_extents_above_two_to_the_32_are_rejected(tmp_path):
    path = write_lines(tmp_path / "t.tns", [f"{2**32 + 6} 1 2.0"])
    with pytest.raises(sw.TensorError, match=r"2\^32"):
        sw.read_frostt(path)
    path = write_lines(tmp_path / "t.tns", [f"{2**64} 1 2.0"])
    with pytest.raises(IoError, match=r"coordinate exceeds the 2\^32 extent limit"):
        sw.read_frostt(path, dims=(2, 4))


@pytest.mark.parametrize("lines, message", [
    (["0 1 2.0"], "is not 1-based"),
    (["1 2 3.0", "1 2 3 4.0"], "entry needs 3 fields, got 4"),
    (["1 oops 2.0"], "bad entry"),
    (["# nothing here"], "file holds no entries"),
    (["7"], "entry needs coordinates and a value"),
])
def test_frostt_entry_errors(tmp_path, lines, message):
    path = write_lines(tmp_path / "t.tns", lines)
    with pytest.raises(IoError, match=message):
        sw.read_frostt(path)


def test_frostt_round_trip_exact_floats(tmp_path):
    t = from_arrays([[0, 3], [1, 0], [2, 1]], [math.pi, -0.1], sw.coo(3), (4, 2, 3))
    path = tmp_path / "rt.tns"
    sw.write_frostt(path, t)
    back = sw.read_frostt(path, dims=(4, 2, 3))
    assert sw.tensors_equal(t, back)
    assert back.vals[0] == math.pi or back.vals[1] == math.pi


def test_frostt_error_carries_path_and_line(tmp_path):
    path = write_lines(tmp_path / "t.tns", [
        "# comment",
        "1 1 2.0",
        "0 1 1.0",
    ])
    with pytest.raises(IoError) as err:
        sw.read_frostt(path)
    assert str(err.value).startswith(f"{path}:3:")


# Synthetic inputs


def test_synthetic_rng_name():
    assert sw.SYNTHETIC_RNG == "Philox"


def test_synthetic_matrix_determinism():
    a = sw.synthetic_matrix(50, 40, 0.5, 3, seed=11)
    b = sw.synthetic_matrix(50, 40, 0.5, 3, seed=11)
    c = sw.synthetic_matrix(50, 40, 0.5, 3, seed=12)
    assert sw.tensors_equal(a, b)
    assert not sw.tensors_equal(a, c)


def test_synthetic_matrix_structure():
    rows, cols, density, fill = 30, 40, 0.5, 3
    t = sw.synthetic_matrix(rows, cols, density, fill, seed=2)
    assert t.dims == (rows, cols)
    r, c = t.mode_coordinates()
    expected_cols = min(cols, max(1, round(density * cols)))
    assert len(np.unique(c)) == expected_cols
    assert t.nnz == expected_cols * fill
    for j in np.unique(c):
        in_col = r[c == j]
        assert len(np.unique(in_col)) == fill
    assert np.all((t.vals >= 1) & (t.vals <= 9))
    assert np.all(t.vals == np.round(t.vals))


def test_synthetic_matrix_tiny_density_keeps_one_column():
    t = sw.synthetic_matrix(10, 40, 0.001, 2, seed=0)
    _, c = t.mode_coordinates()
    assert len(np.unique(c)) == 1


def test_synthetic_matrix_fill_capped_at_rows():
    t = sw.synthetic_matrix(4, 6, 1.0, 99, seed=5)
    _, c = t.mode_coordinates()
    for j in np.unique(c):
        assert np.sum(c == j) == 4


@pytest.mark.parametrize("args, message", [
    ((0, 5, 0.5, 2, 1), "dims must be positive"),
    ((5, 0, 0.5, 2, 1), "dims must be positive"),
    ((5, 5, 0.0, 2, 1), r"density 0.0 outside \(0, 1\]"),
    ((5, 5, 1.5, 2, 1), "outside"),
    ((5, 5, 0.5, 0, 1), "nnz_per_col must be positive"),
    # every count and the seed must be an integer, checked before any draw
    ((4000.0, 5, 0.5, 2, 1), r"rows 4000\.0 is not an integer"),
    ((True, 5, 0.5, 2, 1), "rows True is not an integer"),
    (("5", 5, 0.5, 2, 1), "rows '5' is not an integer"),
    ((5, 5.0, 0.5, 2, 1), r"cols 5\.0 is not an integer"),
    ((5, 5, 0.5, 2.5, 1), r"nnz_per_col 2\.5 is not an integer"),
    ((5, 5, 0.5, np.float64(2.0), 1), "nnz_per_col .* is not an integer"),
    ((5, 5, 0.5, 2, 1.5), r"seed 1\.5 is not an integer"),
    ((5, 5, 0.5, 2, False), "seed False is not an integer"),
])
def test_synthetic_matrix_validation(args, message):
    with pytest.raises(IoError, match=message):
        sw.synthetic_matrix(*args)


def test_synthetic_matrix_accepts_numpy_integers():
    t = sw.synthetic_matrix(np.int64(40), np.uint32(30), 0.5, np.int16(3), seed=np.uint64(1))
    assert t.dims == (40, 30) and all(type(d) is int for d in t.dims)
    assert sw.tensors_equal(t, sw.synthetic_matrix(40, 30, 0.5, 3, seed=1))


def test_synthetic_inputs_reject_a_negative_seed():
    with pytest.raises(IoError, match="seed -1 is negative"):
        sw.synthetic_matrix(5, 5, 0.5, 2, seed=-1)
    with pytest.raises(IoError, match="seed -3 is negative"):
        sw.synthetic_pair(5, 5, 0.5, 2, seed=-3)


def test_synthetic_pair_structure():
    rows, cols = 12, 9
    b, c = sw.synthetic_pair(rows, cols, 0.5, 2, seed=4)
    assert sw.tensors_equal(b, sw.synthetic_matrix(rows, cols, 0.5, 2, seed=4))
    assert c.dims == (cols, rows)
    expected = {((j, (i + 1) % rows), v) for (i, j), v in entry_set(b)}
    assert entry_set(c) == expected


# sha256 of the coordinate and value bytes of B then C, as first generated;
# a change in the Philox draw order would change every benchmark input
@pytest.mark.parametrize("args, digest", [
    ((40, 30, 0.5, 3, 1), "30db6ba8438133628bffc60dfcf93596bfee96e379d687ab0dbac9aff5b08389"),
    ((25, 60, 0.2, 4, 7), "04e9a5a0c2c19f555f2f111046a886df2cc36a72cf587930e34722a62924da47"),
    ((4000, 4000, 0.5, 8, 1), "66e0aa093e8db1900bfb1ad07b98d08fae8c14fbb3274f5fd46ab54fb71c8f95"),
    ((3 * 2**30, 50, 0.5, 6, 4),
     "7680d536ed6d37ec72fba050f3ef1d6d11bd5c677101d1d20e690eba6753904b"),
])
def test_synthetic_pair_golden_bytes(args, digest):
    h = hashlib.sha256()
    for t in sw.synthetic_pair(*args):
        for c in t.mode_coordinates():
            h.update(c.tobytes())
        h.update(t.vals.tobytes())
    assert h.hexdigest() == digest


def _per_column_matrix(rows, cols, density, nnz_per_col, seed):
    # the model synthetic_matrix replays: per column, numpy draws the rows
    # with one choice call and the values with one integers call
    fill = min(nnz_per_col, rows)
    rng = np.random.Generator(np.random.Philox(seed))
    ncols = min(cols, max(1, round(density * cols)))
    chosen = np.sort(rng.choice(cols, size=ncols, replace=False))
    draws = [(rng.choice(rows, size=fill, replace=False), rng.integers(1, 10, size=fill))
             for _ in chosen]
    row_crds, vals = (np.concatenate(d) for d in zip(*draws))
    return from_arrays([row_crds, np.repeat(chosen, fill)], vals, sw.coo(2), (rows, cols))


def storage_bytes(tensor):
    return [c.tobytes() for c in tensor.mode_coordinates()] + [tensor.vals.tobytes()]


@pytest.mark.parametrize("shape", [
    (40, 30, 0.5, 3, 1),
    (25, 60, 0.2, 4, 7),
    (4000, 4000, 0.5, 8, 1),
    (7, 9, 1.0, 7, 3),  # fill == rows
    (1, 5, 1.0, 1, 0),
    (4, 6, 1.0, 99, 5),  # nnz_per_col > rows
    # numpy's choice runs Floyd's algorithm at rows <= 10 000 or
    # fill <= rows // 50, and a partial Fisher-Yates shuffle otherwise
    (10_000, 20, 0.5, 200, 2),
    (10_000, 20, 0.5, 201, 2),
    (10_001, 20, 0.5, 200, 2),
    (10_001, 20, 0.5, 201, 2),
    (500, 300, 0.5, 64, 6),  # the widest columns the replay draws
    (500, 300, 0.5, 65, 6),
    # about a quarter of the bounded draws are rejected and drawn again
    (3 * 2**30, 40, 0.5, 6, 4),
    (2**32, 40, 0.5, 6, 5),  # the top bound is a whole 32-bit draw
    (100, 3000, 1.0, 64, 8),  # three blocks
], ids=str)
def test_synthetic_matrix_equals_the_per_column_model(shape):
    assert storage_bytes(sw.synthetic_matrix(*shape)) == storage_bytes(_per_column_matrix(*shape))


def test_block_shape_spans_three_blocks():
    assert 2 * spworks.io._BLOCK_DRAWS < 3000 * (3 * 64 - 1) <= 3 * spworks.io._BLOCK_DRAWS


def test_synthetic_matrix_equals_the_per_column_model_on_drawn_shapes(monkeypatch):
    rng = np.random.default_rng(23)
    for _ in range(240):
        rows = int(rng.choice([1, 2, 3, 5, 17, 100, 999, 10_000, 10_001, 2**31 + 7,
                               3 * 2**30, 2**32]))
        shape = (rows, int(rng.integers(1, 200)), float(rng.uniform(0.01, 1.0)),
                 int(rng.integers(1, 70)), int(rng.integers(0, 1000)))
        # small blocks as well, so that block edges fall between any columns
        monkeypatch.setattr(spworks.io, "_BLOCK_DRAWS", int(rng.choice([1 << 10, 1 << 18])))
        assert storage_bytes(sw.synthetic_matrix(*shape)) == \
            storage_bytes(_per_column_matrix(*shape)), shape


class _CountingGenerator(np.random.Generator):
    def choice(self, *args, **kwargs):
        self.choices = getattr(self, "choices", 0) + 1
        return super().choice(*args, **kwargs)


@pytest.mark.parametrize("fill, choices", [(64, 1), (65, 1 + 150)])
def test_only_columns_wider_than_the_replay_draw_one_call_each(monkeypatch, fill, choices):
    made = []

    def generator(seed):
        made.append(_CountingGenerator(np.random.Philox(seed)))
        return made[-1]

    monkeypatch.setattr(spworks.io, "_generator", generator)
    sw.synthetic_matrix(500, 300, 0.5, fill, seed=6)
    assert made[0].choices == choices


def test_synthetic_pair_product_never_empty():
    b, c = sw.synthetic_pair(8, 8, 0.25, 2, seed=9)
    assert np.count_nonzero(b.to_dense() @ c.to_dense()) > 0


# Memory estimation


def test_estimate_memory_goldens():
    assert sw.estimate_memory("dense", 10**8) == 1_300_000_000
    assert sw.estimate_memory("sparse", 10**5) == 1_200_000
    assert sw.estimate_memory("dense", 0) == 0


def test_estimate_memory_dense_sparse_ratio():
    cells = 10**8
    entries = 10**5
    assert sw.estimate_memory("dense", cells) >= 100 * sw.estimate_memory("sparse", entries)


@pytest.mark.parametrize("kind, count, message", [
    ("dense", -1, "negative size"),
    ("triangular", 4, "unknown workspace kind"),
])
def test_estimate_memory_errors(kind, count, message):
    with pytest.raises(IoError, match=message):
        sw.estimate_memory(kind, count)


# CSV measurement output


def test_csv_fields_schema():
    assert sw.CSV_FIELDS == (
        "kernel", "policy", "capacity", "dims", "nnz_in", "nnz_out",
        "time_ns", "peak_bytes", "comparisons", "dedups",
    )


def test_write_csv_round_trip(tmp_path):
    rows = [
        {f: i * 10 + k for k, f in enumerate(sw.CSV_FIELDS)}
        for i in range(2)
    ]
    path = tmp_path / "m.csv"
    assert sw.write_csv(path, rows) == 2
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == sw.CSV_FIELDS
        back = list(reader)
    assert back[0]["kernel"] == "0"
    assert back[1]["dedups"] == str(10 + len(sw.CSV_FIELDS) - 1)


def test_write_csv_custom_fields(tmp_path):
    fields = sw.CSV_FIELDS + ("label",)
    path = tmp_path / "a.csv"
    n = sw.write_csv(path, [{f: "x" for f in fields}], fields=fields)
    assert n == 1
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(fields)
