from fractions import Fraction
from math import factorial

import pytest

from derlie.reptheory import (
    NotARepresentation,
    class_size,
    decompose,
    irr_character,
    irr_dim,
    partition_count,
    partitions,
    stabilization_onset,
    z_order,
)

F = Fraction


def test_partitions_of_zero():
    assert partitions(0) == [()]


def test_partitions_of_three_order():
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]


def test_partition_count_eight():
    assert len(partitions(8)) == 22


def test_partition_count_without_listing():
    assert [partition_count(n) for n in range(16)] == [
        len(partitions(n)) for n in range(16)]
    assert partition_count(100) == 190569292


def test_trivial_character_is_one():
    for n in range(1, 6):
        for mu in partitions(n):
            assert irr_character((n,), mu) == 1


def test_sign_character():
    for n in range(2, 6):
        mu = (2,) + (1,) * (n - 2)
        assert irr_character((1,) * n, mu) == -1


def test_standard_character_of_sigma3():
    assert irr_character((2, 1), (3,)) == -1
    assert irr_character((2, 1), (1, 1, 1)) == 2
    assert irr_character((2, 1), (2, 1)) == 0


def test_sigma4_table_row():
    # the (2,2) row of the classical table
    values = {mu: irr_character((2, 2), mu) for mu in partitions(4)}
    assert values == {(4,): 0, (3, 1): -1, (2, 2): 2, (2, 1, 1): 0,
                      (1, 1, 1, 1): 2}


def test_irr_dims():
    assert irr_dim((3,)) == 1
    assert irr_dim((1, 1)) == 1
    assert irr_dim((2, 1)) == 2
    assert irr_dim((3, 2)) == 5
    assert irr_dim((2, 2, 1)) == 5


def test_character_orthogonality_up_to_seven():
    for n in range(1, 8):
        parts = partitions(n)
        for i, lam in enumerate(parts):
            for rho in parts[i:]:
                total = F(0)
                for mu in parts:
                    total += F(irr_character(lam, mu) *
                               irr_character(rho, mu), z_order(mu))
                assert total == (1 if lam == rho else 0), (lam, rho)


def test_sum_of_squared_dims():
    for n in range(1, 8):
        assert sum(irr_dim(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def test_decompose_permutation_rep_of_sigma2():
    chi = {(1, 1): F(2), (2,): F(0)}
    dec = decompose(chi)
    assert dec == {(2,): 1, (1, 1): 1}
    # n is read from the keys, whatever their order
    assert decompose({(2,): F(0), (1, 1): F(2)}) == dec


def test_decompose_zero():
    chi = {(1, 1): F(0), (2,): F(0)}
    assert decompose(chi) == {}


def test_decompose_regular_rep_of_sigma3():
    chi = {(1, 1, 1): F(6), (2, 1): F(0), (3,): F(0)}
    dec = decompose(chi)
    assert dec == {lam: irr_dim(lam) for lam in partitions(3)}


def test_decompose_rejects_fractional():
    chi = {(1, 1): F(1), (2,): F(0)}
    with pytest.raises(NotARepresentation, match=r"^multiplicity of \(2,\) "
                       r"is 1/2; the class function is not the character"):
        decompose(chi)


def test_decompose_rejects_negative():
    chi = {(1, 1): F(2), (2,): F(-4)}
    with pytest.raises(NotARepresentation,
                       match=r"^multiplicity of \(2,\) is -1; "):
        decompose(chi)


def test_stabilization_onset_logic():
    rows = {1: {(): 1}, 2: {(): 2}, 3: {(): 2}, 4: {(): 2}}
    assert stabilization_onset((1, 2, 3, 4), rows) == 2
    rows = {1: {(): 1}, 2: {(): 2}}
    assert stabilization_onset((1, 2), rows) is None  # window would be 1 row
    rows = {1: {}, 2: {}, 3: {}}
    assert stabilization_onset((1, 2, 3), rows) == 1
    rows = {1: {(): 1}, 2: {(): 1}, 3: {(): 2}}
    assert stabilization_onset((1, 2, 3), rows) is None
    # zero multiplicities count as absent
    rows = {1: {(): 1, (1,): 0}, 2: {(): 1}}
    assert stabilization_onset((1, 2), rows) == 1
