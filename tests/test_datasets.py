import numpy as np
import pytest

from lyapflow import (
    CsvSchema,
    DataError,
    Dataset,
    gen_blobs,
    gen_linreg,
    load_csv,
    normalize,
)


def test_save_load_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(12, 3)) * 1e3, rng.normal(size=(12, 2)))
    path = tmp_path / "d.csv"
    rows = ["f0,f1,f2,t0,t1"] + [",".join(f"{v:.17g}" for v in (*x, *y))
                                 for x, y in zip(data.inputs, data.targets)]
    path.write_text("\n".join(rows) + "\n")
    back = load_csv(path, CsvSchema(("f0", "f1", "f2"), ("t0", "t1")))
    assert np.array_equal(back.inputs, data.inputs)   # %.17g is lossless
    assert np.array_equal(back.targets, data.targets)


def test_load_csv_selects_named_columns(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("a,b,c,label\n1,2,3,0\n4,5,6,1\n")
    data = load_csv(path, CsvSchema(("c", "a"), ("label",)))
    assert np.array_equal(data.inputs, [[3.0, 1.0], [6.0, 4.0]])
    assert np.array_equal(data.targets, [[0.0], [1.0]])


def test_load_csv_reports_every_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "f0,f1,t0\n"
        "1,2,0\n"
        "oops,2,1\n"     # row 2: non-numeric
        "3,4,0\n"
        "5,,1\n"         # row 4: missing cell
        "6,7,nan\n"      # row 5: non-finite
        "8,9,1\n"
    )
    with pytest.raises(DataError) as err:
        load_csv(path, CsvSchema(("f0", "f1"), ("t0",)))
    msg = str(err.value)
    assert "2" in msg and "4" in msg and "5" in msg


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("f0,t0\n1,0\n\n2,1\n")
    data = load_csv(path, CsvSchema(("f0",), ("t0",)))
    assert len(data) == 2


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("f0,t0\n1,0\n")
    with pytest.raises(DataError) as err:
        load_csv(path, CsvSchema(("f0", "f9"), ("t0",)))
    assert "f9" in str(err.value)


def test_load_csv_empty_and_absent_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty, CsvSchema(("f0",), ("t0",)))
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv", CsvSchema(("f0",), ("t0",)))


def test_schema_validation():
    with pytest.raises(DataError):
        CsvSchema((), ("t0",))
    with pytest.raises(DataError):
        CsvSchema(("a", "b"), ("b",))


def test_normalize_maps_columns_to_unit_range():
    data = Dataset(np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]),
                   np.array([[1.0], [2.0], [3.0]]))
    normed = normalize(data)
    assert np.allclose(normed.inputs[:, 0], [0.0, 1.0, 0.5])
    # constant column collapses to zeros
    assert np.all(normed.inputs[:, 1] == 0.0)
    assert np.array_equal(normed.targets, data.targets)


def test_gen_blobs_geometry():
    data = gen_blobs(seed=9, per_class=200, separation=5.0)
    assert data.inputs.shape == (400, 4)
    assert set(np.unique(data.targets)) == {0.0, 1.0}
    m0 = data.inputs[:200].mean(axis=0)
    m1 = data.inputs[200:].mean(axis=0)
    # means sit near +/- (sep/2)/sqrt(4) per coordinate, symmetric about 0
    assert np.allclose(m1, 1.25, atol=0.25)
    assert np.allclose(m0, -1.25, atol=0.25)
    assert np.linalg.norm(m1 - m0) == pytest.approx(5.0, abs=0.5)


def test_gen_blobs_seeded():
    a = gen_blobs(seed=3, per_class=5)
    b = gen_blobs(seed=3, per_class=5)
    c = gen_blobs(seed=4, per_class=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_gen_linreg_exact_when_noiseless():
    data = gen_linreg(seed=1, count=25, noise_sd=0.0)
    coeffs = np.array([1.0, 2.0, -1.0, 0.5])
    assert data.inputs.shape == (25, 4)
    assert data.targets.shape == (25, 1)
    assert np.array_equal(data.targets[:, 0], data.inputs @ coeffs)
    noisy = gen_linreg(seed=1, count=25, noise_sd=0.3)
    assert not np.array_equal(noisy.targets, data.targets)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones((3, 2)), np.zeros((2, 1)))      # row mismatch
    with pytest.raises(DataError):
        Dataset(np.ones((0, 2)), np.zeros((0, 1)))      # empty
    with pytest.raises(DataError):
        Dataset(np.ones(3), np.zeros((3, 1)))           # 1-d inputs
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 1.0]]), np.zeros((1, 1)))


def test_dataset_helpers():
    data = Dataset(np.array([[1.0, -7.0], [2.0, 3.0]]), np.array([[0.5], [0.25]]))
    assert len(data) == 2
    assert data.n_features == 2 and data.n_targets == 1
    x, y = data.sample(1)
    assert np.array_equal(x, [2.0, 3.0]) and np.array_equal(y, [0.25])
    x[0] = 99.0  # sample() hands out copies
    assert data.inputs[1, 0] == 2.0
