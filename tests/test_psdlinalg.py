import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslimits import psdlinalg as pl


def test_vech_2x2():
    npt.assert_array_equal(pl.vech([[1.0, 2.0], [2.0, 3.0]]), [1.0, 2.0, 3.0])


def test_vech_identity():
    npt.assert_array_equal(pl.vech(np.eye(2)), [1.0, 0.0, 1.0])


def test_vech_scalar():
    npt.assert_array_equal(pl.vech([[4.5]]), [4.5])


def test_vech_column_major_order():
    # lower triangle stacked column by column, not row by row
    m = np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [4.0, 5.0, 6.0]])
    npt.assert_array_equal(pl.vech(m), [1.0, 2.0, 4.0, 3.0, 5.0, 6.0])


def test_unvech_roundtrip(rng):
    for d in range(1, 6):
        m = pl.sym(rng.standard_normal((d, d)))
        npt.assert_array_equal(pl.unvech(pl.vech(m)), m)


def test_duplication_d1():
    npt.assert_array_equal(pl.duplication_matrix(1), [[1]])


def test_duplication_d2():
    D = pl.duplication_matrix(2)
    assert D.shape == (4, 3)
    npt.assert_array_equal(D @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 2.0, 3.0])


def test_duplication_rejects_zero():
    with pytest.raises(ValueError):
        pl.duplication_matrix(0)


def test_duplication_random_d3(rng):
    D = pl.duplication_matrix(3)
    assert D.shape == (9, 6)
    for _ in range(100):
        m = pl.sym(rng.standard_normal((3, 3)))
        npt.assert_array_equal(D @ pl.vech(m), m.flatten("F"))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_duplication_identity_exact(d, seed):
    # integer matrix, identity holds exactly for every symmetric M
    rng = np.random.default_rng(seed)
    m = pl.sym(rng.standard_normal((d, d)))
    D = pl.duplication_matrix(d)
    npt.assert_array_equal(D @ pl.vech(m), m.flatten("F"))
    assert np.linalg.matrix_rank(D) == d * (d + 1) // 2


def test_is_psd_examples():
    assert pl.is_psd(np.eye(3), tol=1e-9)
    assert not pl.is_psd([[0.0, 1.0], [1.0, 0.0]])
    assert pl.is_psd([[1.0, 1.0], [1.0, 1.0]])


def test_is_psd_rejects_nonfinite():
    with pytest.raises(ValueError):
        pl.is_psd([[np.nan, 0.0], [0.0, 1.0]])


def test_is_psd_relative_tolerance():
    # tiny negative eigenvalue on a huge-scale matrix still passes
    big = 1e12 * np.eye(2)
    big[1, 1] = -1e-3
    assert pl.is_psd(big, tol=1e-9)


def test_project_psd_clips():
    npt.assert_allclose(pl.project_psd([[1.0, 0.0], [0.0, -0.3]]),
                        [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_project_psd_hand_eigendecomposition():
    npt.assert_allclose(pl.project_psd([[0.0, 1.0], [1.0, 0.0]]),
                        [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_project_psd_idempotent_and_psd(d, seed):
    rng = np.random.default_rng(seed)
    m = pl.sym(rng.standard_normal((d, d)))
    p = pl.project_psd(m)
    assert pl.is_psd(p, tol=1e-12)
    npt.assert_allclose(pl.project_psd(p), p, atol=1e-13)


def test_project_psd_keeps_psd_input(rng):
    a = rng.standard_normal((3, 3))
    m = a @ a.T
    npt.assert_allclose(pl.project_psd(m), m, atol=1e-12)


def test_loewner_examples():
    assert pl.loewner_leq(np.zeros((3, 3)), np.eye(3))
    assert not pl.loewner_leq(np.eye(3), np.zeros((3, 3)))
    assert pl.loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 4.0]))


def test_loewner_dimension_mismatch():
    with pytest.raises(ValueError):
        pl.loewner_leq(np.eye(2), np.eye(3))


def test_sqrtm_psd(rng):
    a = rng.standard_normal((4, 4))
    m = a @ a.T
    root = pl.sqrtm_psd(m)
    npt.assert_allclose(root @ root, m, rtol=1e-10, atol=1e-10)
    npt.assert_allclose(root, root.T)


def test_sqrtm_psd_singular():
    m = np.diag([4.0, 0.0])
    npt.assert_allclose(pl.sqrtm_psd(m), np.diag([2.0, 0.0]), atol=1e-12)
