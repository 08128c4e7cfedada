import itertools

import pytest

from trifference.constructions import (
    AffineLine,
    affine_plane,
    fpf_permutation,
    one_bounded,
    recursive_construction,
    triple_construction,
)
from trifference.core import Code, Codeword, NotTrifferentError, verify_trifferent


class TestOneBounded:
    def test_smallest_instances(self):
        assert [w.string for w in one_bounded(1)] == ["2"]
        assert sorted(w.string for w in one_bounded(2)) == ["02", "12", "20", "21"]

    def test_sizes_and_layer(self):
        for n in (2, 3, 7, 19):
            c = one_bounded(n)
            assert len(c) == 2 * n
            assert c.r_bound == 1
            assert verify_trifferent(c).ok

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            one_bounded(0)


class TestAffinePlane:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_incidence_counts(self, q):
        plane = affine_plane(q)
        assert len(plane.points) == q * q
        assert len(plane.lines) == q * q + q
        assert len(plane.flags) == q**3 + q**2
        for ln in plane.lines:
            assert len(plane.line_points[ln]) == q
        for p in plane.points:
            assert len(plane.lines_through(p)) == q + 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_two_lines_share_at_most_one_point(self, q):
        plane = affine_plane(q)
        for la, lb in itertools.combinations(plane.lines, 2):
            common = set(plane.line_points[la]) & set(plane.line_points[lb])
            assert len(common) <= 1

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_sigma_is_fixed_point_free_bijection(self, q):
        plane = affine_plane(q)
        for ln in plane.lines:
            pts = plane.line_points[ln]
            perm = fpf_permutation(plane, ln)
            assert sorted(perm[p] for p in pts) == sorted(pts)
            for p in pts:
                assert perm[p] != p

    def test_q2_sigma_is_the_swap(self):
        plane = affine_plane(2)
        for ln in plane.lines:
            a, b = plane.line_points[ln]
            perm = fpf_permutation(plane, ln)
            assert perm[a] == b and perm[b] == a

    def test_seeded_sigma_still_fixed_point_free(self):
        plane = affine_plane(5, sigma_seed=99)
        for ln in plane.lines:
            perm = fpf_permutation(plane, ln)
            for p in plane.line_points[ln]:
                assert perm[p] != p
        again = affine_plane(5, sigma_seed=99)
        assert again.sigma == plane.sigma

    def test_foreign_line_rejected(self):
        plane = affine_plane(2)
        with pytest.raises(ValueError):
            fpf_permutation(plane, ("no", "such"))

    def test_a_line_is_not_a_point(self):
        # lines and points are both keyed by two integers
        plane = affine_plane(3)
        line = plane.lines[1]
        assert (line.m, line.c) in plane.points
        assert line != (line.m, line.c) and line == AffineLine(line.m, line.c)
        with pytest.raises(ValueError):
            fpf_permutation(plane, (line.m, line.c))
        with pytest.raises(AttributeError):
            line.c = 2

    def test_nonprime_order_rejected(self):
        for q in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                affine_plane(q)


class TestTripleConstruction:
    @pytest.mark.parametrize(
        "q,length,size", [(2, 9, 12), (3, 18, 36), (5, 45, 150)]
    )
    def test_shapes(self, q, length, size, triple_codes):
        c = triple_codes[q]
        assert c.n == length
        assert len(c) == size
        assert c.r_bound == 3

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_trifference(self, q, triple_codes):
        assert verify_trifferent(triple_codes[q]).ok

    def test_base_must_cover_the_flag_count(self):
        with pytest.raises(ValueError):
            triple_construction(3, one_bounded(5))  # 10 < 12 needed

    def test_base_must_sit_in_one_layer(self):
        mixed = Code(
            3,
            tuple(Codeword.from_string(s) for s in ("200", "220", "021", "002", "212", "111")),
        )
        with pytest.raises(ValueError):
            triple_construction(2, mixed)

    def test_base_must_be_trifferent(self):
        # the twelve words of length 3 with one 2, of which the first triple
        # that no coordinate separates is 002, 012 and 102
        layer = Code.from_strings("".join(w) for w in itertools.product("012", repeat=3) if w.count("2") == 1)
        with pytest.raises(NotTrifferentError, match=r"^base code is not trifferent \(witness \(0, 1, 4\)\)$"):
            triple_construction(2, layer)


class TestRecursive:
    def test_depth_zero_is_the_one_bounded_family(self):
        c = recursive_construction(0, 10)
        assert len(c) == 10
        assert c.r_bound == 1

    def test_depth_one_matches_the_q2_instance(self):
        c = recursive_construction(1, 12)
        assert (c.n, len(c), c.r_bound) == (9, 12, 3)
        assert verify_trifferent(c).ok

    def test_depth_two(self):
        c = recursive_construction(2, 12)
        assert c.r_bound == 9
        assert len(c) >= 12
        assert verify_trifferent(c).ok

    def test_meets_target_size(self):
        for t, target in ((0, 7), (1, 20), (1, 100)):
            c = recursive_construction(t, target)
            assert len(c) >= target
            assert c.r_bound == 3**t

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recursive_construction(-1, 5)
        with pytest.raises(ValueError):
            recursive_construction(0, 0)
