import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nccw import exacthom as eh
from nccw.errors import ComplexViolation, ShapeMismatch
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    cohomology_with_coefficients,
    determinant,
    intmat,
    presented_subquotient,
    smith_normal_form,
    zeros,
)

from conftest import (
    coefficient_cohomology_oracle,
    cohomology_oracle,
    dense_product,
    random_cochain_complex,
    random_int_matrix,
)


def snf_postconditions(m):
    u, d, v = smith_normal_form(m)
    umv = dense_product(dense_product(u.tolist(), m.tolist(), m.shape[1]), v.tolist(), v.shape[1])
    assert umv == d.tolist()
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    return d


class TestSmithNormalForm:
    def test_hand_elimination_example(self):
        d = snf_postconditions(intmat([[2, -2]]))
        assert d.tolist() == [[2, 0]]

    def test_zero_matrix(self):
        u, d, v = smith_normal_form(zeros(2, 3))
        assert d.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert u.tolist() == [[1, 0], [0, 1]]
        assert v.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_already_in_normal_form(self):
        _, d, _ = smith_normal_form(intmat([[1, 0], [0, 3]]))
        assert d.tolist() == [[1, 0], [0, 3]]

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            u, d, v = smith_normal_form(zeros(*shape))
            assert d.shape == shape

    def test_random_postconditions(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 9)
            snf_postconditions(m)

    def test_bigger_entries_stay_exact(self):
        m = intmat([[10**20, 2], [3, 10**18]])
        snf_postconditions(m)

    def test_kernel_basis_spans_kernel(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            kb = eh.kernel_basis(m)
            product = dense_product(m.tolist(), kb.tolist(), kb.shape[1])
            assert all(x == 0 for row in product for x in row)
            assert eh.matrix_rank(kb) == kb.shape[1]
            assert kb.shape[1] == m.shape[1] - eh.matrix_rank(m)


@given(st.integers(), st.integers().filter(bool))
@example(7, -2)
@example(-7, -2)
@example(5, -10)
@example(-5, 10)
def test_nearest_quotient_leaves_the_least_remainder(x, p):
    # divmod rounds toward -infinity, so a negative pivot is where a sign
    # slip would show
    r = x - eh._nearest_quotient(x, p) * p
    assert 2 * abs(r) <= abs(p)


class TestCokernelEnumerationOracle:
    """Brute-force isomorphism check for small finite cokernels.

    Membership in the column lattice is decided with Cramer's rule alone
    (Bareiss determinants), never SNF.  The quotient is enumerated over a
    fundamental box, and the counts of elements killed by each k pin the
    group by the structure theorem.
    """

    @staticmethod
    def _in_lattice(m, x, det_m):
        # Cramer: y = M^{-1} x is integral iff det(M with column j
        # replaced by x) is divisible by det(M) for every j
        n = m.shape[0]
        for j in range(n):
            mod = [row[:j] + [x[i]] + row[j + 1 :] for i, row in enumerate(m.tolist())]
            if determinant(intmat(mod, shape=(n, n))) % det_m != 0:
                return False
        return True

    def _enumerate_annihilator_counts(self, m):
        n = m.shape[0]
        order = abs(determinant(m))
        assert order > 0
        # N * Z^n lies in the lattice, so [0, N)^n contains representatives
        points = []
        idx = [0] * n
        while True:
            points.append(tuple(idx))
            for i in range(n):
                idx[i] += 1
                if idx[i] < order:
                    break
                idx[i] = 0
            else:
                break
        classes = []
        for vec in points:
            for rep in classes:
                if self._in_lattice(m, [a - b for a, b in zip(vec, rep)], order):
                    break
            else:
                classes.append(vec)
        assert len(classes) == order
        counts = {}
        for k in range(1, order + 1):
            if order % k == 0:
                counts[k] = sum(
                    1 for rep in classes if self._in_lattice(m, [k * a for a in rep], order)
                )
        return counts

    def test_random_square_nonsingular(self):
        rng = random.Random(37)
        done = 0
        while done < 15:
            n = rng.randint(1, 2)
            m = random_int_matrix(rng, n, n, 3)
            det = abs(determinant(m))
            if det == 0 or det > 12:
                continue
            got = eh.cokernel_group(m)
            assert got.free_rank == 0
            assert got.torsion_order() == det
            counts = self._enumerate_annihilator_counts(m)
            for k, observed in counts.items():
                predicted = 1
                for d in got.torsion:
                    predicted *= __import__("math").gcd(k, d)
                assert observed == predicted, (m.tolist(), k)
            done += 1


class TestDeterminant:
    def test_known_values(self):
        assert determinant(intmat([[2, 1], [1, 1]])) == 1
        assert determinant(intmat([[2, 0], [0, 3]])) == 6
        assert determinant(eh.identity(0)) == 1
        assert determinant(intmat([[1, 2], [2, 4]])) == 0

    def test_non_square_refused(self):
        with pytest.raises(ShapeMismatch, match="square"):
            determinant(intmat([[1, 2]]))

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_int_matrix(rng, n, n)
            b = random_int_matrix(rng, n, n)
            ab = intmat(dense_product(a.tolist(), b.tolist(), n), shape=(n, n))
            assert determinant(ab) == determinant(a) * determinant(b)


class TestFGAbelianGroup:
    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbelianGroup(-1, ())

    def test_from_cyclic_orders(self):
        assert FGAbelianGroup.from_cyclic_orders([2, 3]) == FGAbelianGroup.cyclic(6)
        assert FGAbelianGroup.from_cyclic_orders([4, 2]) == FGAbelianGroup(0, (2, 4))
        assert FGAbelianGroup.from_cyclic_orders([0, 0, 1]) == FGAbelianGroup.free(2)
        assert FGAbelianGroup.from_cyclic_orders([6, 4]) == FGAbelianGroup(0, (2, 12))

    def test_direct_sum(self):
        g = FGAbelianGroup(1, (2,)).direct_sum(FGAbelianGroup(0, (3,)))
        assert g == FGAbelianGroup(1, (6,))

    def test_render(self):
        assert FGAbelianGroup.trivial().render() == "0"
        assert FGAbelianGroup.free(1).render() == "Z"
        assert FGAbelianGroup.free(3).render() == "Z^3"
        assert FGAbelianGroup(2, (2, 6)).render() == "Z^2 (+) Z/2 (+) Z/6"
        assert FGAbelianGroup.free(1).render("Q") == "Q"


class TestCochainComplex:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            CochainComplex("Z", [1, 1], [intmat([[1, 1]])])
        with pytest.raises(ShapeMismatch, match="one differential per adjacent degree pair"):
            CochainComplex("Z", [1, 1], [])

    def test_ring_and_ranks_validated(self):
        with pytest.raises(ValueError, match="unknown ring 'R'"):
            CochainComplex("R", [1], [])
        with pytest.raises(ValueError, match="ranks must be a nonempty list"):
            CochainComplex("Z", [], [])

    def test_dd_zero_enforced(self):
        with pytest.raises(ComplexViolation) as err:
            CochainComplex("Z", [1, 1, 1], [intmat([[1]]), intmat([[1]])])
        assert err.value.degree == 0


class TestCohomology:
    """``all_cohomology`` against hand-computed groups and against
    ``conftest.cohomology_oracle``, which reads sympy's invariant factors
    of the unreduced maps."""

    def test_rp2_at_2(self, rp2):
        from nccw.cellmodel import cochain_complex

        c = cochain_complex(rp2, "K")
        groups = all_cohomology(c)
        assert groups[2] == FGAbelianGroup.cyclic(2)
        assert groups == cohomology_oracle(c)

    def test_circle_at_1(self):
        c = CochainComplex("Z", [1, 1], [intmat([[0]])])
        assert all_cohomology(c) == [FGAbelianGroup.free(1)] * 2 == cohomology_oracle(c)

    def test_dimension_drop_at_1(self):
        c = CochainComplex("Z", [2, 1], [intmat([[2, -2]])])
        groups = all_cohomology(c)
        assert groups == [FGAbelianGroup.free(1), FGAbelianGroup.cyclic(2)]
        assert groups == cohomology_oracle(c)

    def test_rational_drops_torsion(self):
        c = CochainComplex("Q", [2, 1], [intmat([[2, -2]])])
        groups = all_cohomology(c)
        assert groups == [FGAbelianGroup.free(1), FGAbelianGroup.trivial()]
        assert groups == cohomology_oracle(c)

    def test_shuffle_oracle(self):
        """Conjugating every degree by a random permutation must not change
        any canonical form (the quotient is computed through a second,
        independently randomized SNF run)."""
        rng = random.Random(23)
        for _ in range(40):
            c = random_cochain_complex(rng)
            perms = []
            for p in range(c.top_degree + 1):
                order = list(range(c.rank(p)))
                rng.shuffle(order)
                mat = [[0] * c.rank(p) for _ in range(c.rank(p))]
                for i, j in enumerate(order):
                    mat[i][j] = rng.choice([-1, 1])
                perms.append(intmat(mat, shape=(c.rank(p), c.rank(p))))
            # signed permutation matrices are orthogonal: inverse = transpose
            inv = [m.T for m in perms]
            shuffled = CochainComplex(
                c.ring,
                c.ranks,
                [perms[p + 1] @ c.differential(p) @ inv[p] for p in range(c.top_degree)],
            )
            assert all_cohomology(c) == all_cohomology(shuffled) == cohomology_oracle(c)

    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(30):
            c = random_cochain_complex(rng)
            for p, group in enumerate(all_cohomology(c)):
                free = (
                    c.rank(p)
                    - eh.matrix_rank(c.differential(p))
                    - eh.matrix_rank(c.differential(p - 1))
                )
                assert group.free_rank == free

    def test_euler_characteristic_identity(self):
        rng = random.Random(9)
        for _ in range(30):
            c = random_cochain_complex(rng)
            lhs = sum((-1) ** p * c.rank(p) for p in range(c.top_degree + 1))
            rhs = sum((-1) ** p * g.free_rank for p, g in enumerate(all_cohomology(c)))
            assert lhs == rhs


class TestCoefficients:
    def test_circle_with_z2(self):
        c = CochainComplex("Z", [1, 1], [intmat([[0]])])
        got = cohomology_with_coefficients(c, FGAbelianGroup.free(2), all_cohomology(c))
        assert got == [FGAbelianGroup.free(2), FGAbelianGroup.free(2)]

    def test_trivial_coefficients(self):
        rng = random.Random(1)
        c = random_cochain_complex(rng)
        got = cohomology_with_coefficients(c, FGAbelianGroup.trivial(), all_cohomology(c))
        assert all(g.is_trivial for g in got)

    def test_rp2_with_mod_two(self, rp2):
        from nccw.cellmodel import cochain_complex

        c = cochain_complex(rp2, "K")
        got = cohomology_with_coefficients(c, FGAbelianGroup.cyclic(2), all_cohomology(c))
        assert got == [FGAbelianGroup.cyclic(2)] * 3

    def test_against_tor_tensor_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            c = random_cochain_complex(rng, max_k=3, max_rank=3)
            g = FGAbelianGroup.from_cyclic_orders(
                [rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
            )
            got = cohomology_with_coefficients(c, g, all_cohomology(c))
            assert got == coefficient_cohomology_oracle(c, g)


class TestPresentedSubquotient:
    def test_matches_plain_cohomology(self):
        rng = random.Random(17)
        for _ in range(30):
            c = random_cochain_complex(rng)
            expected = cohomology_oracle(c)
            for p in range(c.top_degree + 1):
                got = presented_subquotient(
                    [0] * c.rank(p),
                    c.differential(p),
                    [0] * c.rank(p + 1),
                    c.differential(p - 1),
                )
                assert got == expected[p]

    def test_torsion_source(self):
        # multiplication by 2 from Z/2 into Z/4 has trivial kernel
        got = presented_subquotient([2], intmat([[2]]), [4], zeros(1, 0))
        assert got.is_trivial

    def test_torsion_quotient(self):
        # Z mod the image of multiplication by 6
        got = presented_subquotient([0], zeros(0, 1), [], intmat([[6]]))
        assert got == FGAbelianGroup.cyclic(6)

    @pytest.mark.parametrize(
        "out_map, out_orders, in_map, message",
        [
            ([[1, 1]], [0], None, "outgoing map has wrong number of columns"),
            (None, [], [[1], [1]], "incoming map has wrong number of rows"),
            # the identity of Z has no kernel for the image of 1 to lie in
            ([[1]], [0], [[1]], "image does not lie inside the kernel$"),
            # doubling into Z/4 has kernel 2Z, which does not hold 1
            ([[2]], [4], [[1]], "image does not lie inside the kernel lattice"),
        ],
    )
    def test_inconsistent_maps_refused(self, out_map, out_orders, in_map, message):
        # None in the table marks a zero map
        out_map = zeros(len(out_orders), 1) if out_map is None else intmat(out_map)
        in_map = zeros(1, 0) if in_map is None else intmat(in_map)
        with pytest.raises(ShapeMismatch, match=message):
            presented_subquotient([0], out_map, out_orders, in_map)
