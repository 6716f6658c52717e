"""SparseMatrix and KktOperator: construction contracts, adjoint
consistency, blending, and saddle-operator symmetry."""

import numpy as np
import pytest

from sisqo.engine import MAX_RUNG, ladder_matrix
from sisqo.sparse import KktOperator, SparseMatrix, blend_with_identity

from oracles import (dense_kkt_matrix, kkt_operator_dense, random_spd,
                     random_symmetric)


def test_from_triplets_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix.from_triplets((2, 2), [0, 0], [0, 0], [1.0, 2.0])


def test_from_triplets_sums_duplicates_on_request():
    a = SparseMatrix.from_triplets((2, 2), [0, 0, 1], [0, 0, 1],
                                   [1.0, 2.0, 5.0], sum_duplicates=True)
    np.testing.assert_array_equal(a.to_dense(), [[3.0, 0.0], [0.0, 5.0]])
    assert a.nnz == 2


def test_from_triplets_validates_indices():
    with pytest.raises(ValueError, match="row index"):
        SparseMatrix.from_triplets((2, 2), [2], [0], [1.0])
    with pytest.raises(ValueError, match="column index"):
        SparseMatrix.from_triplets((2, 2), [0], [5], [1.0])
    with pytest.raises(ValueError, match="share a length"):
        SparseMatrix.from_triplets((2, 2), [0], [0, 1], [1.0])


def test_csr_constructor_validates():
    with pytest.raises(ValueError, match="indptr"):
        SparseMatrix((2, 2), [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        SparseMatrix((3, 2), [0, 2, 1, 2], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="unsorted or duplicate"):
        SparseMatrix((1, 3), [0, 2], [2, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix((1, 2), [0, 1], [2], [1.0])
    # the first offending row is named, past sorted and empty rows
    with pytest.raises(ValueError, match="row 3 has unsorted"):
        SparseMatrix((5, 3), [0, 0, 2, 2, 4, 6], [0, 2, 1, 1, 2, 0],
                     np.ones(6))
    with pytest.raises(ValueError, match="row 2 has unsorted or duplicate"):
        SparseMatrix((3, 3), [0, 1, 1, 3], [2, 0, 0], np.ones(3))
    # a decrease across a row boundary, and empty rows anywhere, are fine
    a = SparseMatrix((5, 3), [0, 0, 2, 2, 3, 3], [1, 2, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(a.to_dense(), [[0, 0, 0], [0, 1, 2],
                                                 [0, 0, 0], [3, 0, 0],
                                                 [0, 0, 0]])
    assert SparseMatrix((2, 2), [0, 0, 0], [], []).nnz == 0


def test_matrix_arrays_are_private_and_read_only():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([0, 1], dtype=np.int64)
    data = np.array([1.0, 2.0])
    a = SparseMatrix((2, 2), indptr, indices, data)
    data[0] = 5.0
    indices[1] = 0
    np.testing.assert_array_equal(a.to_dense(), np.diag([1.0, 2.0]))
    for arr in (a.indptr, a.indices, a.data):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_dense_roundtrip():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((5, 7))
    dense[np.abs(dense) < 0.7] = 0.0
    a = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(a.to_dense(), dense)
    assert a.shape == (5, 7)
    assert a.nnz == np.count_nonzero(dense)
    # a NaN entry is kept, not dropped as if it were zero
    with_nan = np.array([[np.nan, 1.0], [0.0, 2.0]])
    b = SparseMatrix.from_dense(with_nan)
    assert b.nnz == 3
    np.testing.assert_array_equal(b.to_dense(), with_nan)


def test_identity_and_diagonal():
    np.testing.assert_array_equal(SparseMatrix.identity(3).to_dense(),
                                  np.eye(3))
    np.testing.assert_array_equal(
        SparseMatrix.diagonal(np.full(2, 2.5)).to_dense(), 2.5 * np.eye(2))
    d = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(SparseMatrix.diagonal(d).to_dense(),
                                  np.diag(d))


def test_apply_rejects_bad_shapes():
    a = SparseMatrix.identity(3)
    with pytest.raises(ValueError, match="length 3"):
        a.apply(np.zeros(4))
    with pytest.raises(ValueError, match="length 3"):
        a.apply_transpose(np.zeros(2))


def test_adjoint_identity():
    # <Ax, w> == <x, A'w> ties apply and apply_transpose together
    rng = np.random.default_rng(5)
    for trial in range(20):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        dense = rng.standard_normal((rows, cols))
        dense[rng.uniform(size=dense.shape) > 0.4] = 0.0
        a = SparseMatrix.from_dense(dense)
        x = rng.standard_normal(cols)
        w = rng.standard_normal(rows)
        lhs = float(np.dot(a.apply(x), w))
        rhs = float(np.dot(x, a.apply_transpose(w)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_transpose_matches_dense():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((4, 6))
    dense[np.abs(dense) < 0.5] = 0.0
    a = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(a.transpose().to_dense(), dense.T)


def test_symmetry_defect():
    sym = SparseMatrix.from_dense(random_symmetric(np.random.default_rng(7), 5))
    assert sym.symmetry_defect() == 0.0
    asym = SparseMatrix.from_dense(np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert asym.symmetry_defect() == pytest.approx(2.0)
    rect = SparseMatrix.from_dense(np.ones((2, 3)))
    assert rect.symmetry_defect() == np.inf


def test_blend_with_identity():
    h = SparseMatrix.from_dense(np.array([[2.0, 1.0], [1.0, -4.0]]))
    assert blend_with_identity(h, 1.0) is h
    np.testing.assert_array_equal(blend_with_identity(h, 0.0).to_dense(),
                                  np.eye(2))
    blended = blend_with_identity(h, 0.25)
    np.testing.assert_allclose(blended.to_dense(),
                               0.25 * h.to_dense() + 0.75 * np.eye(2),
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="square"):
        blend_with_identity(SparseMatrix.from_dense(np.ones((2, 3))), 0.5)


def test_blend_of_diagonal_skips_the_merge(monkeypatch):
    # a diagonal H shares the identity's pattern: the blend needs no
    # triplet merge and keeps the bits the merge gives
    vals = np.random.default_rng(12).standard_normal(5)
    h = SparseMatrix.diagonal(vals)
    di = np.arange(5)
    expected = {}
    for rung in range(1, 11):
        iota = 10.0 ** (-rung)
        expected[iota] = SparseMatrix.from_triplets(
            (5, 5), np.concatenate([di, di]), np.concatenate([di, di]),
            np.concatenate([iota * vals, np.full(5, 1.0 - iota)]),
            sum_duplicates=True)
    calls = []
    from_triplets = SparseMatrix.from_triplets.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_triplets(cls, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "from_triplets", classmethod(counting))
    for iota, merged in expected.items():
        blended = blend_with_identity(h, iota)
        assert blended.indices.tobytes() == merged.indices.tobytes()
        assert blended.data.tobytes() == merged.data.tobytes()
    assert calls == []


def test_symmetry_is_checked_once_per_matrix(monkeypatch):
    calls = []
    transpose = SparseMatrix.transpose

    def counting(self):
        calls.append(self)
        return transpose(self)

    monkeypatch.setattr(SparseMatrix, "transpose", counting)
    h = SparseMatrix.from_dense(random_symmetric(np.random.default_rng(10), 4))
    j = SparseMatrix.from_dense(np.ones((1, 4)))
    for _ in range(3):
        KktOperator(h, j)
    assert calls == [h]
    # every rung of the ladder over a checked symmetric H, the identity
    # included, is symmetric without a transpose of its own
    for rung in range(MAX_RUNG + 2):
        KktOperator(ladder_matrix(h, rung), j)
    assert calls == [h]
    asym = SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="not symmetric"):
            KktOperator(asym, SparseMatrix((0, 2), [0], [], []))
    assert calls == [h, asym]


def test_kkt_operator_is_symmetric():
    rng = np.random.default_rng(8)
    for n, m in ((4, 2), (6, 0), (3, 3)):
        h = SparseMatrix.from_dense(random_symmetric(rng, n))
        j = SparseMatrix.from_dense(rng.standard_normal((m, n)))
        op = KktOperator(h, j)
        assert op.dim == n + m
        for _ in range(5):
            z = rng.standard_normal(n + m)
            w = rng.standard_normal(n + m)
            lhs = float(np.dot(op.apply(z), w))
            rhs = float(np.dot(z, op.apply(w)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_kkt_operator_matches_dense_assembly():
    rng = np.random.default_rng(9)
    h_dense = random_spd(rng, 5)
    j_dense = rng.standard_normal((2, 5))
    op = KktOperator(SparseMatrix.from_dense(h_dense),
                     SparseMatrix.from_dense(j_dense))
    np.testing.assert_allclose(kkt_operator_dense(op.h, op.j),
                               dense_kkt_matrix(h_dense, j_dense),
                               rtol=0, atol=1e-15)
    z = rng.standard_normal(7)
    np.testing.assert_allclose(op.apply(z),
                               dense_kkt_matrix(h_dense, j_dense) @ z,
                               rtol=1e-13, atol=1e-13)


def test_kkt_operator_unconstrained():
    h = SparseMatrix.diagonal(np.full(3, 2.0))
    j = SparseMatrix((0, 3), [0], [], [])
    op = KktOperator(h, j)
    assert op.m == 0
    np.testing.assert_array_equal(op.apply(np.array([1.0, 2.0, 3.0])),
                                  [2.0, 4.0, 6.0])


def test_kkt_operator_rejects_bad_blocks():
    with pytest.raises(ValueError, match="not symmetric"):
        KktOperator(SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]])),
                    SparseMatrix((0, 2), [0], [], []))
    with pytest.raises(ValueError, match="column count"):
        KktOperator(SparseMatrix.identity(2),
                    SparseMatrix.from_dense(np.ones((1, 3))))
    with pytest.raises(ValueError, match="square"):
        KktOperator(SparseMatrix.from_dense(np.ones((2, 3))),
                    SparseMatrix((0, 3), [0], [], []))
