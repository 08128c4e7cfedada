import itertools
from collections import Counter

import pytest

from trifference import constructions
from trifference.constructions import (
    affine_plane,
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
        for seed in (None, 99):
            plane = affine_plane(q, sigma_seed=seed)
            assert len(plane) == q * q + q
            assert all(len(points) == len(images) == q for points, images in plane)
            on = Counter(p for points, _ in plane for p in points)
            assert sorted(on) == list(range(q * q))
            assert set(on.values()) == {q + 1}

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_two_lines_share_at_most_one_point(self, q):
        # equivalently, two points lie on exactly one line
        for seed in (None, 99):
            plane = affine_plane(q, sigma_seed=seed)
            pairs = Counter(pair for points, _ in plane for pair in itertools.combinations(sorted(points), 2))
            assert len(pairs) == q * q * (q * q - 1) // 2
            assert set(pairs.values()) == {1}

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_sigma_is_fixed_point_free_bijection(self, q):
        for seed in (None, 99):
            for points, images in affine_plane(q, sigma_seed=seed):
                assert sorted(images) == sorted(points)
                assert all(p != image for p, image in zip(points, images))

    def test_numbering(self):
        # point (x, y) is 3x + y; line 3m + c is y = mx + c, line 9 + c is x = c
        plane = affine_plane(3)
        assert plane[3 * 2 + 1][0] == [1, 3 * 1 + 0, 3 * 2 + 2]
        assert plane[9 + 2][0] == [6, 7, 8]
        assert [images for _, images in plane[:2]] == [[3, 6, 0], [4, 7, 1]]

    def test_q2_sigma_is_the_swap(self):
        for seed in (None, 99):
            for points, images in affine_plane(2, sigma_seed=seed):
                assert images == points[::-1]

    def test_seeded_sigma_still_fixed_point_free(self):
        plane = affine_plane(5, sigma_seed=99)
        assert [p for p, _ in plane] == [p for p, _ in affine_plane(5)]
        for points, images in plane:
            assert all(p != image for p, image in zip(points, images))
        assert affine_plane(5, sigma_seed=99) == plane
        assert affine_plane(5, sigma_seed=98) != plane

    def test_nonprime_order_rejected(self):
        for q in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError, match=f"^q must be prime, got {q}$"):
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

    @pytest.mark.parametrize("q,seed", [(q, seed) for q in (2, 3, 5) for seed in (None, 99)])
    def test_words_decode_to_flags(self, q, seed):
        # each word is s[p] + s[line] + s[sigma(p)] over the base words s:
        # point p = (x, y) = divmod(p, q) lies on line q*m + c when
        # y = m*x + c, and on line q*q + c when x = c
        base = one_bounded((q * q + q) // 2)
        index = {w: i for i, w in enumerate(base.strings())}
        flags = []
        for word in triple_construction(q, base, sigma_seed=seed).strings():
            p, line, image = (index[word[k : k + base.n]] for k in range(0, 3 * base.n, base.n))
            assert p != image
            m, c = divmod(line, q)
            for point in (p, image):
                x, y = divmod(point, q)
                assert point < q * q and (x == c if m == q else y == (m * x + c) % q)
            flags.append((p, line))
        assert len(flags) == len(set(flags)) == q**3 + q**2

    def test_nonprime_order_is_rejected_before_a_base_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(constructions, "one_bounded", lambda n: built.append(n))
        with pytest.raises(ValueError, match="^q must be prime, got 4$"):
            triple_construction(4)
        assert built == []

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
