import numpy as np
import pytest

from hdsparse.data import (
    DataSplit,
    FeatureMatrix,
    ResponseVector,
    inverse_standardize,
    read_table,
    split_stratified,
    standardize_columns,
    write_table,
)


def test_standardize_basic_column():
    fm = FeatureMatrix(np.array([[1.0], [2.0], [3.0]]))
    out, rec = standardize_columns(fm)
    # sample sd of (1,2,3) is 1 with the n-1 denominator
    assert np.allclose(out.values.ravel(), [-1.0, 0.0, 1.0])
    assert rec.means[0] == 2.0 and rec.sds[0] == 1.0
    assert out.standardized


def test_standardize_invariants_and_idempotence():
    rng = np.random.default_rng(0)
    fm = FeatureMatrix(rng.normal(3, 7, size=(40, 5)))
    out, rec = standardize_columns(fm)
    assert np.all(np.abs(out.values.mean(axis=0)) <= 1e-10)
    assert np.all(np.abs(out.values.std(axis=0, ddof=1) - 1) <= 1e-8)
    again, _ = standardize_columns(out)
    assert np.allclose(again.values, out.values, atol=1e-12)
    back = inverse_standardize(out, rec)
    assert np.allclose(back.values, fm.values, rtol=1e-12)


def test_standardize_constant_column_warns():
    fm = FeatureMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    with pytest.warns(UserWarning, match="constant"):
        out, rec = standardize_columns(fm)
    assert np.all(out.values[:, 0] == 0.0)
    assert rec.constant[0] and not rec.constant[1]


def test_standardize_rejects_nonfinite_with_column():
    x = np.ones((5, 3))
    x[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"column\(s\) \[1\]"):
        standardize_columns(FeatureMatrix(x))


def test_split_binary_balanced():
    y = ResponseVector(np.repeat([0.0, 1.0], 50), "binary")
    s = split_stratified(y, (0.8, 0.0, 0.2), seed=3)
    yv = y.values
    for idx, frac in ((s.train_idx, 0.8), (s.test_idx, 0.2)):
        # class proportions match overall within one observation per class
        assert abs(yv[idx].sum() - frac * 50) <= 1
        assert len(idx) == round(frac * 100)
    assert len(s.val_idx) == 0


def test_split_partition_and_determinism():
    rng = np.random.default_rng(1)
    y = ResponseVector(rng.normal(size=120))
    s1 = split_stratified(y, (0.6, 0.2, 0.2), bins=10, seed=42)
    s2 = split_stratified(y, (0.6, 0.2, 0.2), bins=10, seed=42)
    for a, b in zip((s1.train_idx, s1.val_idx, s1.test_idx),
                    (s2.train_idx, s2.val_idx, s2.test_idx)):
        assert np.array_equal(a, b)
    allidx = np.concatenate([s1.train_idx, s1.val_idx, s1.test_idx])
    assert len(set(allidx.tolist())) == len(allidx)          # disjoint
    assert len(allidx) == round(120 * 1.0)                    # full coverage


def test_split_small_stratum_errors():
    y = ResponseVector(np.arange(30, dtype=float))
    with pytest.raises(ValueError, match="stratum"):
        split_stratified(y, (0.8, 0.0, 0.2), bins=30, seed=0)


def test_read_write_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    fm = FeatureMatrix(rng.normal(size=(7, 3)) * np.pi, ("a", "b", "c"))
    path = tmp_path / "t.csv"
    write_table(path, fm)
    back, y = read_table(path)
    assert y is None
    assert back.column_names == ("a", "b", "c")
    assert np.array_equal(back.values, fm.values)  # 17 sig digits round-trips
    # and the text itself is reproduced bit-identically on a second write
    write_table(tmp_path / "t2.csv", back)
    assert (tmp_path / "t.csv").read_text() == (tmp_path / "t2.csv").read_text()


def test_read_table_outcome_extraction(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("a,y,b\n1,0,2\n3,1,4\n5,0,6\n")
    fm, y = read_table(path, outcome="y")
    assert fm.values.shape == (3, 2)
    assert y.kind == "binary"
    assert np.array_equal(y.values, [0.0, 1.0, 0.0])


def test_read_table_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,NaN\n")
    with pytest.raises(ValueError, match="row 3, column 1"):
        read_table(path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3"):
        read_table(ragged)


@pytest.mark.parametrize("outcome", [None, "a", 0, 2])
def test_read_table_header_width_must_match_rows(tmp_path, outcome):
    path = tmp_path / "short_header.csv"
    path.write_text("a,b\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError) as exc:
        read_table(path, outcome=outcome)
    assert str(exc.value) == f"{path}: header has 2 fields, rows have 3"


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n3,abc\n", "row 3, column 1"),
    ("a,b\n1,inf\n3,4\n", "row 2, column 1"),
    # the non-finite cell comes first in row-major order, the word later
    ("a,b,c\n1,2,3\n4,1e400,x\nabc,5,6\n", "row 3, column 1"),
    ("1,2\n-inf,4\n", "row 2, column 0"),
])
def test_read_table_names_first_bad_cell(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"non-numeric cell at {message}$"):
        read_table(path, has_header=text.startswith("a"))


def test_read_table_parses_like_float(tmp_path):
    # the whole-body numpy parse must read every cell as float() does
    cells = ["1_0", " 2 ", "-.5", "+1e-3", "\t7", "1e-400", "-0",
             "0.1000000000000000055511151231257827"]
    path = tmp_path / "odd.csv"
    path.write_text(",".join(cells) + "\n")
    fm, _ = read_table(path, has_header=False)
    assert fm.values.tobytes() == np.array([float(c) for c in cells]).tobytes()
    rng = np.random.default_rng(9)
    v = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-30, 30, size=(50, 4))
    path.write_text("\n".join(",".join(repr(float(c)) for c in row) for row in v) + "\n")
    assert np.array_equal(read_table(path, has_header=False)[0].values, v)
