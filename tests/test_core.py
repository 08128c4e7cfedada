import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifference.core import (
    _sampled_shifts,
    NOT_TRIFFERENT,
    Code,
    Codeword,
    NotTrifferentError,
    TriffParseError,
    add_codewords,
    count_A_r,
    format_triff,
    is_trifferent_triple,
    naive_trifferent_triple,
    parse_triff,
    project,
    best_project,
    prune,
    read_triff,
    shift,
    shift_density_sample,
    support_multiplicities,
    VerificationResult,
    verify_trifferent,
    write_triff,
)
from trifference.constructions import one_bounded, triple_construction


def cw(s: str) -> Codeword:
    return Codeword.from_string(s)


def code_of(*strings: str) -> Code:
    return Code(len(strings[0]), tuple(cw(s) for s in strings))


def ternary(x: int, n: int) -> str:
    """x written in base 3 with n digits."""
    digits = []
    for _ in range(n):
        x, d = divmod(x, 3)
        digits.append("012"[d])
    return "".join(reversed(digits))


# Symbols 0/1/2, as _sampled_shifts yields them, to the text "012".
SYMBOL_TEXT = bytes.maketrans(b"\x00\x01\x02", b"012")


class TestCodeword:
    def test_round_trip(self):
        # from_string keeps its input, also past 4300 symbols, where int()
        # and str() in base 10 refuse to convert
        long_words = ("1" * 4301, "21" * 2200 + "0", "0" * 5000 + "2", "1220" * 1500)
        for s in ("0", "2", "012", "2101", "0" * 64, "210" * 21, "1022" * 20, *long_words):
            w = cw(s)
            assert w.string == str(w) == s
            assert w.n == len(s)

    def test_symbols_and_two_locations(self):
        w = cw("0212")
        assert [w.symbol(i) for i in range(4)] == [0, 2, 1, 2]
        assert w.count_twos == 2
        assert w.two_locations() == (1, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 70).flatmap(
            lambda n: st.tuples(*[st.text("012", min_size=n, max_size=n)] * 2)
        )
    )
    def test_word_reads_agree_with_per_symbol_definitions(self, pair):
        s, t = pair
        x, v = cw(s), cw(t)
        assert [x.symbol(i) for i in range(x.n)] == ["012".index(c) for c in s]
        assert x.count_twos == sum(c == "2" for c in s)
        assert x.two_locations() == tuple(i for i in range(len(s)) if s[i] == "2")
        assert (x == v) == (s == t)
        assert x == cw(s) and hash(x) == hash(cw(s))
        total = [("012".index(a) + "012".index(b)) % 3 for a, b in zip(s, t)]
        assert add_codewords(x, v).string == "".join("012"[d] for d in total)

    def test_rejects_foreign_characters(self):
        with pytest.raises(ValueError):
            cw("01x")
        with pytest.raises(ValueError):
            cw("")

    def test_rejects_every_symbol_outside_012(self):
        # a bad symbol anywhere in the word, including ones that int() or
        # str.isdigit() would accept
        for s in ("3", "0 1", "01\n", "-1", "+01", "0٣", "1²", "0_1", "O12"):
            with pytest.raises(ValueError):
                cw(s)


class TestCode:
    def test_sorted_canonically(self):
        c = code_of("21", "02", "20", "12")
        assert [w.string for w in c] == ["02", "12", "20", "21"]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            code_of("01", "01")
        # one copy from a string, one built by addition
        with pytest.raises(ValueError, match="duplicate codeword 0212"):
            Code(4, (cw("0212"), add_codewords(cw("0101"), cw("0111"))))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Code(2, (cw("01"), cw("012")))

    def test_r_bound_derived(self):
        assert code_of("20", "02").r_bound == 1
        assert code_of("20", "22").r_bound is None
        assert Code(3, ()).r_bound is None


def _certificate(n):
    from trifference.search import max_trifferent

    return max_trifferent(n)


# each record type: two builds from equal fields, and one from other fields
RECORDS = {
    "Codeword": (
        lambda: Codeword.from_string("0212"),
        lambda: add_codewords(cw("0101"), cw("0111")),
        lambda: Codeword.from_string("0211"),
    ),
    "Code": (
        lambda: code_of("20", "02"),
        lambda: Code(2, (add_codewords(cw("01"), cw("01")), cw("20"))),
        lambda: Code(2, (cw("20"), cw("02")), comments=("# other",)),
    ),
    "VerificationResult": (
        lambda: verify_trifferent(code_of("00", "01", "10")),
        lambda: VerificationResult(NOT_TRIFFERENT, (0, 1, 2)),
        lambda: verify_trifferent(code_of("00", "01")),
    ),
    "SearchCertificate": (
        lambda: _certificate(2),
        lambda: _certificate(2),
        lambda: _certificate(3),
    ),
    "ShiftSampleStats": (
        lambda: shift_density_sample(one_bounded(3), 1, trials=40, seed=2),
        lambda: shift_density_sample(one_bounded(3), 1, trials=40, seed=2),
        lambda: shift_density_sample(one_bounded(3), 1, trials=40, seed=3),
    ),
}


@pytest.mark.parametrize("builders", RECORDS.values(), ids=RECORDS.keys())
def test_records_compare_by_value_and_are_immutable(builders):
    first, same, other = (build() for build in builders)
    assert first == same and hash(first) == hash(same)
    assert first != other
    field = "n" if hasattr(first, "n") else "status"
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(other, field))
    with pytest.raises(AttributeError):
        first.extra = 1
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert first == same


class TestTripleCheck:
    def test_single_coordinate(self):
        assert is_trifferent_triple(cw("0"), cw("1"), cw("2"))

    def test_missing_symbol(self):
        assert not is_trifferent_triple(cw("00"), cw("11"), cw("01"))

    def test_diagonal(self):
        assert is_trifferent_triple(cw("00"), cw("11"), cw("22"))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            is_trifferent_triple(cw("0"), cw("0"), cw("1"))
        with pytest.raises(ValueError):
            is_trifferent_triple(cw("00"), cw("11"), cw("2"))

    def test_agrees_with_symbol_scan(self):
        # same verdicts from the column lookup and the pairwise symbol scan
        rng = random.Random(411)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            space = 3**n
            for _ in range(300):
                if space < 30:
                    a, b, c = rng.sample(range(space), 3)
                    trip = [ternary(x, n) for x in (a, b, c)]
                else:
                    trip = ["".join(rng.choices("012", k=n)) for _ in range(3)]
                    if len(set(trip)) < 3:
                        continue
                x, y, z = (cw(s) for s in trip)
                assert is_trifferent_triple(x, y, z) == naive_trifferent_triple(x, y, z)

    def test_agreement_sweep_all_lengths(self):
        # 10^4 triples at every length up to 64; symbols drawn in bulk as
        # random bytes mod 3 (86:85:85, near enough uniform here), and
        # triples with a repeated word dropped
        trials = 10**4
        gen = random.Random(2214)
        mod3 = bytes(b"012"[i % 3] for i in range(256))
        for n in range(1, 65):
            if 3**n <= 27:
                rng = random.Random(n)
                words = [cw(ternary(x, n)) for x in range(3**n)]
                triples = [rng.sample(words, 3) for _ in range(trials)]
                kept = trials
            else:
                flat = gen.randbytes(3 * n * trials).translate(mod3).decode()
                words = (flat[i : i + n] for i in range(0, len(flat), n))
                distinct = [t for t in zip(words, words, words) if t[0] != t[1] != t[2] != t[0]]
                kept = len(distinct)
                triples = (map(cw, t) for t in distinct)
            assert kept >= trials // 2
            for x, y, z in triples:
                assert is_trifferent_triple(x, y, z) == naive_trifferent_triple(x, y, z)


class TestVerify:
    def test_small_codes_vacuous(self):
        assert verify_trifferent(Code(4, ())).ok
        assert verify_trifferent(code_of("012", "210")).ok

    def test_one_bounded_family(self):
        assert verify_trifferent(one_bounded(3)).ok

    def test_full_square_fails_with_lex_smallest_witness(self):
        words = [f"{a}{b}" for a in "012" for b in "012"]
        res = verify_trifferent(code_of(*words))
        assert not res.ok
        assert res.witness == (0, 1, 3)  # 00, 01, 10

    def test_witness_stable_across_workers(self):
        words = [f"{a}{b}" for a in "012" for b in "012"]
        c = code_of(*words)
        assert verify_trifferent(c, workers=3).witness == verify_trifferent(c).witness
        big = one_bounded(20)
        assert verify_trifferent(big, workers=2).ok


class TestShift:
    def test_zero_shift_is_identity(self):
        c = one_bounded(4)
        assert shift(c, cw("0000")).codewords == c.codewords

    def test_shift_preserves_size_and_property(self):
        c = one_bounded(2)
        s = shift(c, cw("11"))
        assert len(s) == len(c)
        assert verify_trifferent(s).ok

    def test_random_shifts_preserve_status(self):
        rng = random.Random(7)
        bad = code_of("00", "01", "10")
        for c in (one_bounded(3), bad):
            for _ in range(20):
                v = cw("".join(rng.choices("012", k=c.n)))
                assert verify_trifferent(shift(c, v)).ok == verify_trifferent(c).ok

    def test_addition_is_coordinatewise_mod_3(self):
        assert add_codewords(cw("012"), cw("111")).string == "120"
        assert add_codewords(cw("222"), cw("222")).string == "111"


class TestLayerCounts:
    def test_values(self):
        assert count_A_r(3, 0) == 8
        assert count_A_r(3, 1) == 12
        assert count_A_r(4, 2) == 24

    def test_enumeration_agrees(self):
        n = 4
        by_twos = [0] * (n + 1)
        for x in range(3**n):
            s = ternary(x, n)
            by_twos[s.count("2")] += 1
        for r in range(n + 1):
            assert count_A_r(n, r) == by_twos[r]


class TestShiftDensity:
    def test_single_codeword(self):
        c = code_of("120")
        st = shift_density_sample(c, r=1, exhaustive=True)
        assert st.expectation == Fraction(count_A_r(3, 1), 27)
        assert st.mean_fraction == st.expectation
        assert st.max_count <= 1

    def test_exhaustive_equals_expectation(self):
        st = shift_density_sample(one_bounded(4), r=1, exhaustive=True)
        assert st.mean_fraction == st.expectation == Fraction(32 * 8, 81)

    def test_sampling_needs_seed(self):
        with pytest.raises(ValueError):
            shift_density_sample(one_bounded(3), r=1, trials=10)

    def test_sampling_reproducible(self):
        a = shift_density_sample(one_bounded(3), r=1, trials=500, seed=3)
        b = shift_density_sample(one_bounded(3), r=1, trials=500, seed=3)
        assert a == b

    def test_rejects_non_trifferent_input(self):
        with pytest.raises(NotTrifferentError, match=r"^input is not trifferent \(witness \(0, 1, 2\)\)$"):
            shift_density_sample(code_of("00", "01", "10"), r=1, exhaustive=True)

    @pytest.mark.parametrize(
        "code, r, mode, max_count, mean",
        [
            # CI's command on the q = 3 triple code
            (lambda: triple_construction(3, one_bounded(6)), 1, (3000, 5), 4, Fraction(121, 600)),
            (lambda: triple_construction(7, one_bounded(28)), 40, (3000, 11), 28, Fraction(139, 150)),
            # 3^9 shifts cross the 3^7-row blocks of the exhaustive mode
            (lambda: one_bounded(9), 0, None, 2, Fraction(1024, 2187)),
            (lambda: one_bounded(9), 1, None, 18, Fraction(512, 243)),
            (lambda: one_bounded(9), 2, None, 14, Fraction(1024, 243)),
            (lambda: one_bounded(9), 3, None, 14, Fraction(3584, 729)),
            (lambda: Code(4, ()), 1, None, 0, Fraction(0)),
            (lambda: Code(4, ()), 2, (10, 1), 0, Fraction(0)),
            (lambda: code_of("2101"), 2, None, 1, Fraction(8, 27)),
            (lambda: code_of("2101"), 1, (100, 2), 1, Fraction(1, 2)),
        ],
        ids=["t3", "q7", "ob9-r0", "ob9-r1", "ob9-r2", "ob9-r3", "empty", "empty-sampled", "one", "one-sampled"],
    )
    def test_pinned_counts(self, code, r, mode, max_count, mean):
        # captured from the float32 matrix products of an earlier version
        if mode is None:
            stats = shift_density_sample(code(), r, exhaustive=True)
            assert stats.mean_fraction == stats.expectation
        else:
            stats = shift_density_sample(code(), r, trials=mode[0], seed=mode[1])
        assert (stats.max_count, stats.mean_fraction) == (max_count, mean)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 140), st.data())
def test_shift_counts_match_shifting_each_word(n, data):
    # a reference count per shift, one codeword at a time, on the symbols
    # random.choices draws; lengths cross every field width up to 9 bits
    chosen = data.draw(st.lists(st.sampled_from(one_bounded(n).strings()), unique=True, max_size=12))
    code = Code.from_strings(chosen, n)
    r = data.draw(st.integers(0, n))
    seed = data.draw(st.integers(0, 2**64))
    trials = data.draw(st.integers(1, 300))
    rng = random.Random(seed)
    counts = []
    for _ in range(trials):
        v = cw("".join(rng.choices("012", k=n)))
        counts.append(sum(add_codewords(x, v).count_twos == r for x in code))
    stats = shift_density_sample(code, r, trials=trials, seed=seed)
    assert (stats.max_count, stats.mean_fraction) == (max(counts), Fraction(sum(counts), trials))


class TestSampledShifts:
    @pytest.mark.parametrize("seed", [0, 11, 2**70 + 5])
    @pytest.mark.parametrize("n", [1, 7, 84])
    def test_same_stream_as_choices(self, seed, n):
        # trials at and either side of the 128-row draw, and of the
        # 1024-row blocks an earlier version counted in
        for trials in (127, 128, 129, 1023, 1024, 1025, 2500):
            bulk, single = random.Random(seed), random.Random(seed)
            got = list(_sampled_shifts(n, trials, bulk))
            assert [len(rows) for rows in got] == [
                min(128, trials - done) * n for done in range(0, trials, 128)
            ]
            want = "".join(single.choices("012", k=trials * n))
            assert b"".join(got).translate(SYMBOL_TEXT).decode() == want
            assert bulk.getstate() == single.getstate()

    def test_float_product_rounds_as_random_does(self):
        # N = (2**54 - 1) / 3 gives random() * 3.0 == 2.0 exactly, where the
        # integer form (3 * N) >> 53 says 1
        N = (2**54 - 1) // 3
        assert math.floor(N * 2.0**-53 * 3.0) == 2 and (3 * N) >> 53 == 1
        assert next(_sampled_shifts(3, 2, forced_draws(N))) == bytes([2] * 6)

    @pytest.mark.parametrize(
        "N, symbol",
        [
            ((0x55 << 45) - 1, 0),  # the top of byte 0x54
            (0x55 << 45, 0),
            (2**53 // 3, 0),  # just below 1/3
            (2**53 // 3 + 1, 1),  # just above 1/3
            ((0x56 << 45) - 1, 1),
            (0xAA << 45, 1),
            ((2**54 - 1) // 3 - 1, 1),  # just below 2/3
            ((2**54 - 1) // 3 + 1, 2),  # just above 2/3
            ((0xAB << 45) - 1, 2),
            (0xAB << 45, 2),  # the bottom of byte 0xAB
        ],
    )
    def test_top_bytes_that_straddle_a_third(self, N, symbol):
        # byte 0x55 holds 1/3 and byte 0xAA holds 2/3
        want = "".join(forced_draws(N).choices("012", k=6))
        assert want == str(symbol) * 6
        assert next(_sampled_shifts(2, 3, forced_draws(N))) == bytes([symbol] * 6)


def forced_draws(N: int) -> random.Random:
    """A generator whose every random() is N * 2**-53, in either form of draw."""
    a, b = (N >> 26) << 5, (N & (2**26 - 1)) << 6

    class Forced(random.Random):
        def getrandbits(self, k):
            return int.from_bytes((a | b << 32).to_bytes(8, "little") * (k // 64), "little")

        def random(self):
            return ((a >> 5) * 67108864.0 + (b >> 6)) * 2.0**-53

    return Forced()


class TestPrune:
    def test_alphabet_code(self):
        chain = prune(code_of("0", "1", "2"))
        assert [len(c) for c in chain] == [3, 2]
        # ties in the count pick the smallest symbol, removing the 0 word
        assert [w.string for w in chain[-1]] == ["1", "2"]

    def test_singleton_never_shrinks(self):
        chain = prune(code_of("2101"))
        assert [len(c) for c in chain] == [1] * 5

    def test_family_ends_at_two(self):
        chain = prune(one_bounded(3))
        assert len(chain) == 4
        assert len(chain[-1]) <= 2

    def test_retention_per_step(self):
        for base in (one_bounded(5), triple_construction(2, one_bounded(3))):
            chain = prune(base)
            for before, after in zip(chain, chain[1:]):
                assert len(after) >= len(before) - len(before) // 3


class TestProject:
    def test_two_codeword_example(self):
        p = project(code_of("220", "202"), 0)
        assert [w.string for w in p] == ["02", "20"]
        assert p.r_bound == 1
        assert verify_trifferent(p).ok

    def test_requires_a_two_layer(self):
        with pytest.raises(ValueError):
            project(code_of("000", "111"), 0)
        with pytest.raises(ValueError):
            project(code_of("20", "02"), 5)

    def test_restricted_sizes_sum_to_two_incidences(self):
        c = triple_construction(2, one_bounded(3))
        total = sum(
            sum(1 for w in c if w.symbol(i) == 2) for i in range(c.n)
        )
        assert total == c.r_bound * len(c)

    def test_best_coordinate_meets_average(self):
        c = triple_construction(2, one_bounded(3))
        i = best_project(c)
        p = project(c, i)
        assert len(p) * c.n >= c.r_bound * len(c)  # best >= average
        assert p.r_bound == c.r_bound - 1
        assert verify_trifferent(p).ok


class TestSupportMultiplicity:
    def test_at_most_two_per_support(self):
        for c in (one_bounded(6), triple_construction(2, one_bounded(3))):
            assert max(support_multiplicities(c).values()) <= 2

    def test_counts(self):
        mults = support_multiplicities(code_of("220", "202", "221"))
        assert mults[(0, 1)] == 2
        assert mults[(0, 2)] == 1


class TestTriffFormat:
    def test_golden_output(self):
        c = Code(2, (cw("20"), cw("02")), comments=("# sample",))
        assert format_triff(c) == "n=2\nr=1\n# sample\n02\n20\n"

    def test_round_trip(self, tmp_path):
        c = triple_construction(2, one_bounded(3))
        path = tmp_path / "t.triff"
        write_triff(c, path)
        back = read_triff(path)
        assert back.codewords == c.codewords
        assert back.comments == c.comments
        assert back.r_bound == c.r_bound

    def test_parse_errors_carry_line_numbers(self):
        cases = [
            ("", 1),
            ("n=2\n01\n0", 3),  # missing trailing newline
            ("m=2\n", 1),
            ("n=2\n012\n", 2),
            ("n=2\n0x\n", 2),
            ("n=2\n01\n01\n", 3),
            ("n=2\n01\n\n10\n", 3),
            ("n=2\n01\nr=1\n", 3),
            ("n=2\nr=1\n01\n", 3),  # declared r contradicts the codeword
            # digits other than ASCII ones, which int() rejects or reads as 3
            ("n=\u00b2\n01\n", 1),
            ("n=\u0663\n012\n", 1),
            ("n=2\nr=\u00b2\n02\n", 2),
        ]
        for text, lineno in cases:
            with pytest.raises(TriffParseError) as err:
                parse_triff(text)
            assert err.value.lineno == lineno

    def test_comments_survive(self):
        c = parse_triff("n=2\n# a\n02\n# b\n20\n")
        assert c.comments == ("# a", "# b")


@st.composite
def triff_codes(draw, min_words=0):
    """Codes with comments, half of them with every word holding r twos."""
    n = draw(st.integers(1, 10))
    r = draw(st.none() | st.integers(0, n))
    if r is None:
        word = st.text("012", min_size=n, max_size=n)
    else:
        word = st.builds(
            lambda bits, order: "".join(
                "2" if i in order[:r] else b for i, b in enumerate(bits)
            ),
            st.text("01", min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    words = draw(st.lists(word, unique=True, min_size=min_words, max_size=12))
    comments = draw(
        st.lists(st.text(st.characters(blacklist_characters="\n"), max_size=8), max_size=3)
    )
    return Code.from_strings(words, n, comments=["#" + c for c in comments])


@settings(max_examples=200, deadline=None)
@given(triff_codes())
def test_triff_round_trip(code):
    text = format_triff(code)
    assert parse_triff(text) == code
    assert format_triff(parse_triff(text)) == text


@settings(max_examples=200, deadline=None)
@given(
    triff_codes(min_words=1),
    st.sampled_from(["bad symbol", "wrong length", "duplicate word", "late r="]),
    st.data(),
)
def test_one_corrupted_line_is_reported_at_its_line_number(code, fault, data):
    lines = format_triff(code).split("\n")[:-1]
    first_word = len(lines) - len(code)
    k = data.draw(st.integers(first_word, len(lines) - 1))  # a codeword line
    word = lines[k]
    if fault == "bad symbol":
        at = data.draw(st.integers(0, code.n - 1))
        lines[k] = word[:at] + data.draw(st.sampled_from("3x ")) + word[at + 1 :]
    elif fault == "wrong length":
        lines[k] = data.draw(st.sampled_from([word[:-1], word + "0"]))
    else:
        k += 1  # the bad line follows the codeword line
        lines.insert(k, word if fault == "duplicate word" else f"r={word.count('2')}")
    with pytest.raises(TriffParseError) as err:
        parse_triff("\n".join(lines) + "\n")
    assert err.value.lineno == k + 1
