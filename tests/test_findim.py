import random

import pytest

from nccw.errors import ShapeMismatch, SizeOverflow
from nccw.exacthom import FGAbelianGroup
from nccw.findim import (
    FinDimAlgebra,
    MultMorphism,
    compose,
    theory_groups,
    validate_morphism,
)

from conftest import dense_product, random_valid_morphism


class TestFinDimAlgebra:
    def test_linear_dimension(self):
        assert FinDimAlgebra([2, 3]).linear_dimension == 13
        assert FinDimAlgebra([]).linear_dimension == 0
        assert FinDimAlgebra([1, 1]).linear_dimension == 2

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            FinDimAlgebra([0])
        with pytest.raises(ValueError):
            FinDimAlgebra([2, -1])

    def test_zero_algebra(self):
        z = FinDimAlgebra([])
        assert z.is_zero and z.block_count == 0


class TestValidateMorphism:
    def test_unital_embedding(self):
        f = MultMorphism(FinDimAlgebra([1, 1]), FinDimAlgebra([2]), [[2, 0]])
        validate_morphism(f)
        assert f.unital

    def test_size_overflow(self):
        with pytest.raises(SizeOverflow) as err:
            MultMorphism(FinDimAlgebra([1, 1]), FinDimAlgebra([2]), [[3, 0]])
        assert err.value.block == 0

    def test_identity(self):
        a = FinDimAlgebra([2])
        f = MultMorphism(a, a, [[1]])
        validate_morphism(f)
        assert f.unital

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            MultMorphism(FinDimAlgebra([1, 1]), FinDimAlgebra([2]), [[1]])

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ShapeMismatch):
            MultMorphism(FinDimAlgebra([1]), FinDimAlgebra([3]), [[-1]])

    def test_nonunital(self):
        f = MultMorphism(FinDimAlgebra([1]), FinDimAlgebra([3]), [[2]])
        assert not f.unital

    def test_identity_accepted_on_random_algebras(self):
        rng = random.Random(2)
        for _ in range(20):
            a = FinDimAlgebra([rng.randint(1, 4) for _ in range(rng.randint(0, 4))])
            f = MultMorphism.identity_on(a)
            validate_morphism(f)
            assert f.unital


class TestCompose:
    def test_identity_neutral(self):
        f = random_valid_morphism(random.Random(4))
        left = compose(MultMorphism.identity_on(f.dst), f)
        right = compose(f, MultMorphism.identity_on(f.src))
        assert left.mult == f.mult and right.mult == f.mult

    def test_matrix_product(self):
        one = FinDimAlgebra([1])
        two = FinDimAlgebra([1, 1])
        big = FinDimAlgebra([2])
        f = MultMorphism(one, two, [[1], [1]])
        g = MultMorphism(two, big, [[1, 1]])
        assert compose(g, f).mult.tolist() == [[2]]

    def test_zero_absorbs(self):
        f = random_valid_morphism(random.Random(8))
        z = MultMorphism.zero(f.dst, FinDimAlgebra([1]))
        assert compose(z, f).mult.is_zero

    def test_domain_mismatch(self):
        f = MultMorphism(FinDimAlgebra([1]), FinDimAlgebra([1]), [[1]])
        g = MultMorphism(FinDimAlgebra([1, 1]), FinDimAlgebra([2]), [[1, 1]])
        with pytest.raises(ShapeMismatch):
            compose(g, f)

    def test_functoriality_on_random_pairs(self):
        rng = random.Random(12)
        for _ in range(40):
            f = random_valid_morphism(rng)
            t = f.dst.block_count
            mult = [
                [rng.randint(0, 2) for _ in range(t)] for _ in range(rng.randint(1, 3))
            ]
            sizes = [
                max(sum(mult[j][i] * f.dst.sizes[i] for i in range(t)), 1)
                for j in range(len(mult))
            ]
            g = MultMorphism(f.dst, FinDimAlgebra(sizes), mult)
            gf = dense_product(g.mult.tolist(), f.mult.tolist(), f.src.block_count)
            assert compose(g, f).mult.tolist() == gf


class TestTheoryGroups:
    def test_k_of_two_blocks(self):
        even, odd = theory_groups(FinDimAlgebra([2, 3]), "K")
        assert even == FGAbelianGroup.free(2) and odd.is_trivial

    def test_hp_of_one_block(self):
        even, odd = theory_groups(FinDimAlgebra([1]), "HP")
        assert even == FGAbelianGroup.free(1) and odd.is_trivial

    def test_zero_algebra(self):
        even, odd = theory_groups(FinDimAlgebra([]), "K")
        assert even.is_trivial and odd.is_trivial

    def test_rank_additive_under_concatenation(self):
        rng = random.Random(6)
        for _ in range(20):
            a = FinDimAlgebra([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
            b = FinDimAlgebra([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
            ab = FinDimAlgebra(a.sizes + b.sizes)
            assert (
                theory_groups(ab, "K")[0].free_rank
                == theory_groups(a, "K")[0].free_rank + theory_groups(b, "K")[0].free_rank
            )

    def test_unknown_theory(self):
        with pytest.raises(ValueError):
            theory_groups(FinDimAlgebra([1]), "KK")


class TestK0Map:
    # K0 of a multiplicity morphism is its multiplicity matrix
    def test_copy_of_multiplicities(self):
        f = MultMorphism(FinDimAlgebra([1, 1]), FinDimAlgebra([2]), [[2, 0]])
        assert f.mult.tolist() == [[2, 0]]

    def test_identity(self):
        a = FinDimAlgebra([2, 5])
        assert MultMorphism.identity_on(a).mult.tolist() == [[1, 0], [0, 1]]
