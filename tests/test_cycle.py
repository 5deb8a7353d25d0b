import numpy as np
import pytest

from cyclotope import (
    CapExceeded,
    DimensionTooSmall,
    ScaledIntMatrix,
    SymmetricCycle,
    Tope,
    cycle_vertex,
    gram_entry,
    inverse_gram_entry,
    inverse_gram_matrix,
    inverse_rows,
    separation_set,
    tope_matrix,
)
from cyclotope.cycle import DENSE_CAP, _inverse_entries, _matrix_entries


def test_cycle_t3_vertices():
    # the full 6-cycle at t=3, written out by hand
    expected = ["+++", "-++", "--+", "---", "+--", "++-"]
    cycle = SymmetricCycle(3)
    assert [str(cycle.vertex(k)) for k in range(6)] == expected


def test_cycle_adjacency_edge():
    cycle = SymmetricCycle(3)
    assert len(separation_set(cycle.vertex(2), cycle.vertex(3))) == 1


def test_cycle_t4_antipode():
    cycle = SymmetricCycle(4)
    assert cycle.vertex(5) == -cycle.vertex(1)
    assert str(cycle.vertex(5)) == "+---"


def test_cycle_vertex_standalone_agrees():
    for t in (3, 5, 8):
        cycle = SymmetricCycle(t)
        for k in range(2 * t):
            assert np.array_equal(cycle.vertex(k).signs, cycle_vertex(t, k))


def test_cycle_derives_its_vertices_without_storing_them():
    # Checked first: a cycle that stored its 2 * 10^6 vertices at t = 10^6
    # would need 2 * 10^12 bytes.
    assert SymmetricCycle.__slots__ == ("_t",)
    t = 10**6
    cycle = SymmetricCycle(t)
    assert len(cycle) == 2 * t
    for k in (0, t - 1, t, 2 * t - 1):
        assert np.array_equal(cycle.vertex(k).signs, cycle_vertex(t, k))


def test_cycle_iteration_and_vertices_walk_the_cycle():
    cycle = SymmetricCycle(7)
    walk = [cycle.vertex(k) for k in range(14)]
    assert list(cycle) == list(cycle) == walk  # each iteration starts afresh


def test_cycles_are_equal_and_hash_equal_exactly_when_their_t_agree():
    assert SymmetricCycle(5) == SymmetricCycle(5) and not SymmetricCycle(5) != SymmetricCycle(5)
    assert hash(SymmetricCycle(5)) == hash(SymmetricCycle(np.int64(5)))
    assert SymmetricCycle(5) != SymmetricCycle(6)
    assert len({SymmetricCycle(t) for t in (5, 5, 6, 5, 6)}) == 2
    assert SymmetricCycle(5).__eq__(5) is NotImplemented
    assert SymmetricCycle(3) != Tope.positive(3) and SymmetricCycle(3) != 3


def test_cycle_dimension_is_the_one_given():
    assert SymmetricCycle(np.int64(7)).t == 7
    assert type(SymmetricCycle(np.int64(7)).t) is int


def test_cycle_vertex_index_bounds():
    cycle = SymmetricCycle(4)
    with pytest.raises(IndexError):
        cycle.vertex(8)
    with pytest.raises(IndexError):
        cycle.vertex(-1)


def test_cycle_is_closed_walk():
    for t in (3, 4, 7):
        cycle = SymmetricCycle(t)
        n = 2 * t
        for k in range(n):
            step = separation_set(cycle.vertex(k), cycle.vertex((k + 1) % n))
            assert len(step) == 1


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        SymmetricCycle(2)
    with pytest.raises(DimensionTooSmall):
        tope_matrix(1)


def test_inverse_rows_t3():
    inv = inverse_rows(3)
    assert inv.denom == 2
    assert inv.entries.tolist() == [[1, -1, 0], [0, 1, -1], [1, 0, 1]]


def test_inverse_rows_t4_last_row():
    assert inverse_rows(4).entries[3].tolist() == [1, 0, 0, 1]


def test_matrix_inverse_identity():
    for t in range(3, 65):
        m = tope_matrix(t)
        inv = inverse_rows(t)
        assert m.denom == 1
        ident2 = 2 * np.eye(t, dtype=np.int64)
        assert np.array_equal(m.entries @ inv.entries, ident2)
        assert np.array_equal(inv.entries @ m.entries, ident2)


def test_matrix_rows_are_cycle_vertices():
    for t in (3, 6):
        m = tope_matrix(t)
        for i in range(t):
            assert np.array_equal(m.entries[i], cycle_vertex(t, i).astype(np.int64))


def test_gram_entry_examples():
    assert gram_entry(5, 2, 2) == 5
    assert gram_entry(5, 1, 3) == 1
    assert gram_entry(4, 1, 4) == -2


def test_gram_entry_matches_inner_products():
    for t in range(3, 17):
        m = tope_matrix(t).entries
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                assert gram_entry(t, i, j) == int(m[i - 1] @ m[j - 1])


def test_gram_entry_bounds():
    with pytest.raises(IndexError):
        gram_entry(4, 0, 1)
    with pytest.raises(IndexError):
        gram_entry(4, 1, 5)


def test_inverse_gram_examples():
    assert inverse_gram_entry(5, 3, 3) == 2
    assert inverse_gram_entry(5, 1, 5) == 1
    assert inverse_gram_entry(5, 1, 3) == 0


def test_inverse_gram_entry_matches_row_products():
    # scaled by 4: diagonal 2, adjacent -1, the (1,t) corner +1, zero elsewhere
    for t in range(3, 17):
        half = inverse_rows(t).entries
        product = half @ half.T
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                assert inverse_gram_entry(t, i, j) == int(product[i - 1, j - 1])
                assert inverse_gram_entry(t, i, j) == inverse_gram_entry(t, j, i)


def test_inverse_gram_matrix_denominator():
    ig = inverse_gram_matrix(5)
    assert ig.denom == 4
    assert np.array_equal(ig.entries, ig.entries.T)
    assert ig.entries[0].tolist() == [2, -1, 0, 0, 1]


def test_inverse_gram_matrix_is_the_row_product():
    for t in range(3, 41):
        half = inverse_rows(t).entries
        assert np.array_equal(inverse_gram_matrix(t).entries, half @ half.T)


def test_matrix_entries_are_built_per_call():
    for build in (_matrix_entries, _inverse_entries):
        assert build(5) is not build(5)
        assert np.array_equal(build(5), build(5))


@pytest.mark.parametrize("build", [tope_matrix, inverse_rows, inverse_gram_matrix])
def test_dense_matrices_are_capped(build):
    # A 4096 x 4096 int64 matrix takes 128 MiB; one more row is refused
    # before anything is allocated.
    assert DENSE_CAP == 4096
    with pytest.raises(CapExceeded, match=f"capped at t = {DENSE_CAP}"):
        build(DENSE_CAP + 1)


class TestScaledIntMatrix:
    def test_rejects_bad_denom(self):
        with pytest.raises(ValueError):
            ScaledIntMatrix(np.eye(3, dtype=np.int64), 3)

    def test_entries_read_only(self):
        m = tope_matrix(3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 7

    def test_matmul_reduces_denominator(self):
        m = tope_matrix(4)
        inv = inverse_rows(4)
        product = m @ inv
        # entries 2I with denom 2 reduce to I with denom 1
        assert product.denom == 1
        assert np.array_equal(product.entries, np.eye(4, dtype=np.int64))

    def test_matmul_and_equality_take_only_a_matrix(self):
        m = tope_matrix(3)
        assert m.__matmul__(m.entries) is NotImplemented
        assert m.__eq__(m.entries) is NotImplemented
        with pytest.raises(TypeError):
            m @ [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert (m == object()) is False and m != m.entries.tolist()

    def test_repr_names_the_shape_and_denominator(self):
        assert repr(inverse_gram_matrix(4)) == "ScaledIntMatrix(shape=(4, 4), denom=4)"
        assert repr(ScaledIntMatrix([[1, 2, 3]])) == "ScaledIntMatrix(shape=(1, 3), denom=1)"

    def test_matmul_rejects_unrepresentable_denominator(self):
        omega = inverse_gram_matrix(4)
        with pytest.raises(ValueError):
            omega @ omega  # reduces only to denominator 8, which is not representable

    def test_hash_by_value(self):
        matrices = {tope_matrix(5), inverse_rows(5), inverse_gram_matrix(5)}
        assert len(matrices) == 3
        assert ScaledIntMatrix(tope_matrix(5).entries) in matrices
        identity = ScaledIntMatrix(np.eye(4, dtype=np.int64))
        assert hash(tope_matrix(4) @ inverse_rows(4)) == hash(identity)
        with pytest.raises(TypeError):
            ScaledIntMatrix(np.eye(4))
        assert inverse_rows(5) not in {ScaledIntMatrix(inverse_rows(5).entries, 1)}

    @pytest.mark.parametrize("entries", [
        [[1.5, 2], [0, 1]],
        np.array([[1.9, 0], [0, 1]]),
        [[1, True], [0, 1]],
        np.eye(2, dtype=bool),
        np.array([[1, 0], [0, 1]], dtype=object),
    ])
    def test_float_bool_or_object_entries_raise_type_error(self, entries):
        with pytest.raises(TypeError):
            ScaledIntMatrix(entries)

    @pytest.mark.parametrize("denom", [True, 2.0])
    def test_denominator_is_read_as_an_integer(self, denom):
        with pytest.raises(TypeError):
            ScaledIntMatrix([[1, 0], [0, 1]], denom)

    @pytest.mark.parametrize("entries", [
        [[2**63, 0], [0, 1]],
        [[-(2**63) - 1, 0], [0, 1]],
        [[2**70] * 70] * 2,
        np.array([[2**64 - 1]], dtype=np.uint64),
    ])
    def test_an_entry_beyond_int64_raises_value_error(self, entries):
        with pytest.raises(ValueError, match="must lie in"):
            ScaledIntMatrix(entries)

    @pytest.mark.parametrize("entries", [[1, 2, 3], np.arange(3)])
    def test_one_dimensional_entries_raise_value_error(self, entries):
        with pytest.raises(ValueError) as excinfo:
            ScaledIntMatrix(entries)
        assert str(excinfo.value) == "entries must be a 2-D array"

    def test_entries_are_copied_exactly(self):
        given = np.array([[-(2**63), 2**63 - 1], [0, 1]], dtype=np.int64)
        m = ScaledIntMatrix(given, 4)
        given[1, 1] = 7
        assert m.entries.tolist() == [[-(2**63), 2**63 - 1], [0, 1]] and m.denom == 4
        assert ScaledIntMatrix([[np.int8(3), 2], [0, 1]]).entries.dtype == np.int64

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tope_matrix(3) @ tope_matrix(4)
