import hashlib
import json
import math

import pytest

from trifference.bounds import (
    bound_report,
    crossover_n0,
    deficit,
    deficit_upper,
    elias_bound,
    elias_bound_log2,
    kurz_bound,
    kurz_bound_log2,
    rate,
    rho_b,
    r3_transfer_log2,
    tb_upper,
    tb_upper_detail,
    transfer_bound,
    transfer_bound_log2,
    zarankiewicz_bound,
    zarankiewicz_edge_bound,
)
from trifference.constructions import one_bounded, triple_construction
from trifference.core import Code, Codeword

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def z_reference(u, v, s, t):
    one = mp.mpf(1)
    return (
        mp.power(t - 1, one / s) * (u - s + 1) * mp.power(v, 1 - one / s)
        + (s - 1) * v
    )


class TestZarankiewicz:
    def test_degree_bound_degenerate_case(self):
        assert zarankiewicz_bound(4, 4, 1, 2) == 4.0

    def test_tight_left_side(self):
        # u = s collapses the first factor to (t-1)^(1/s) * v^(1-1/s)
        for s, v, t in ((2, 9, 5), (3, 20, 9)):
            expect = (t - 1) ** (1 / s) * v ** (1 - 1 / s) + (s - 1) * v
            assert zarankiewicz_bound(s, v, s, t) == pytest.approx(expect, rel=1e-15)

    def test_pinned_reference_value(self):
        # 2 * 7 * 9^(2/3) + 18, worked out to 20 digits ahead of time
        assert zarankiewicz_bound(9, 9, 3, 9) == pytest.approx(
            78.574481952911152058, rel=1e-9
        )

    def test_edge_bound_is_strictly_below(self):
        assert zarankiewicz_edge_bound(4, 4, 1, 2) == 3
        v = zarankiewicz_bound(9, 9, 3, 9)
        e = zarankiewicz_edge_bound(9, 9, 3, 9)
        assert e < v <= e + 1

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            zarankiewicz_bound(2, 5, 3, 9)
        with pytest.raises(ValueError):
            zarankiewicz_bound(3, 0, 3, 9)

    def test_monotone_in_each_argument(self):
        base = (10, 12, 3, 9)
        v0 = zarankiewicz_bound(*base)
        assert zarankiewicz_bound(11, 12, 3, 9) >= v0
        assert zarankiewicz_bound(10, 13, 3, 9) >= v0
        assert zarankiewicz_bound(10, 12, 3, 10) >= v0
        # decreasing in s where the main term dominates the (s-1)*v offset
        by_s = [zarankiewicz_bound(50, 20, s, 100) for s in (2, 3, 4)]
        assert by_s == sorted(by_s, reverse=True)


class TestClassicBounds:
    def test_elias_values(self):
        assert elias_bound(1) == 3.0
        assert elias_bound(4) == 10.125

    def test_elias_log_form_matches(self):
        for n in (1, 4, 10, 50, 200):
            assert 2.0 ** elias_bound_log2(n) == pytest.approx(
                elias_bound(n), rel=1e-12
            )

    def test_kurz_window(self):
        assert kurz_bound(9) is None
        assert kurz_bound_log2(9) is None
        assert kurz_bound(10) == pytest.approx(0.6937 * 1.5**10, rel=1e-15)
        assert kurz_bound(10) < elias_bound(10)

    def test_huge_lengths_stay_finite_in_log_form(self):
        assert elias_bound_log2(10**9) == pytest.approx(
            1 + 10**9 * (math.log2(3) - 1), rel=1e-15
        )


class TestLayerUpper:
    def test_binary_layer_is_two(self):
        for n in (1, 2, 10, 10**6):
            assert tb_upper(n, 0) == 2.0

    def test_single_two_layer(self):
        assert tb_upper(1, 1) == 1.0
        assert tb_upper(5, 1) == 10.0

    def test_r2_branches(self):
        assert tb_upper_detail(4, 2) == (2.0 * 6, "trivial")
        value, branch = tb_upper_detail(100, 2)
        assert branch == "kst"
        assert value == 4.0 * zarankiewicz_bound(50, 50, 3, 9)

    def test_r3_branches(self):
        assert tb_upper_detail(4, 3)[1] == "trivial"
        assert tb_upper_detail(10**6, 3)[1] == "kst"

    def test_million_length_pin(self):
        # 4 * z(500000, 500000, 3, 9), recomputed at high precision
        ref = 4 * z_reference(500000, 500000, 3, 9)
        assert tb_upper(10**6, 2) == pytest.approx(float(ref), rel=1e-9)
        assert tb_upper(10**6, 2) <= 2.521 * (10**6) ** (5 / 3)

    def test_unsupported_r(self):
        with pytest.raises(ValueError):
            tb_upper(10, 4)


def tb_upper_detail_two_branches(n, r):
    """tb_upper_detail as written before r = 2 and r = 3 shared one rule."""
    if n < 1:
        raise ValueError("n must be positive")
    if r == 0:
        return 2.0, "exact"
    if r == 1:
        return (1.0, "exact") if n == 1 else (2.0 * n, "exact")
    if r == 2:
        if n < 2:
            return 0.0, "empty"
        trivial = 2.0 * math.comb(n, 2)
        half = math.ceil(n / 2)
        if half >= 3:
            kst = 4.0 * zarankiewicz_bound(half, n - half, 3, 9)
            if kst < trivial:
                return kst, "kst"
        return trivial, "trivial"
    if r == 3:
        if n < 3:
            return 0.0, "empty"
        trivial = 2.0 * math.comb(n, 3)
        if n >= 5:
            kst = 2.0 * zarankiewicz_bound(n, math.comb(n, 2), 5, 2**21)
            if kst < trivial:
                return kst, "kst"
        return trivial, "trivial"
    raise ValueError(f"tb_upper supports r in {{0, 1, 2, 3}}, got r={r}")


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_one_layer_rule_matches_the_two_branch_reference(r):
    for n in sorted({*range(1, 2001), *(10**k for k in range(13))}):
        assert tb_upper_detail(n, r) == tb_upper_detail_two_branches(n, r), n


@pytest.mark.parametrize("n, r", [(10, 4), (10, -1), (0, 2), (0, 4)])
def test_one_layer_rule_raises_as_the_reference_does(n, r):
    with pytest.raises(ValueError) as reference:
        tb_upper_detail_two_branches(n, r)
    with pytest.raises(ValueError) as one_rule:
        tb_upper_detail(n, r)
    assert str(one_rule.value) == str(reference.value)


class TestDensityAndTransfer:
    def test_binary_density(self):
        for n in (1, 5, 30):
            assert rho_b(n, 0, 2) == math.ldexp(1.0, 1 - n)

    def test_single_two_density(self):
        for n in (2, 5, 30):
            assert rho_b(n, 1, 2 * n) == math.ldexp(1.0, 2 - n)

    def test_exact_small_layer_density(self, exact_layers):
        tb42 = exact_layers[(4, 2)]
        assert rho_b(4, 2, tb42) == math.ldexp(tb42 / 6, -2)

    def test_transfer_reproduces_the_pruning_bound(self):
        for n in range(1, 65):
            assert transfer_bound(n, 0, 2) == elias_bound(n)

    def test_transfer_single_two_layer(self):
        for n in (2, 6, 20):
            assert transfer_bound(n, 1, 2 * n) == pytest.approx(
                4 * 1.5**n, rel=1e-12
            )

    def test_transfer_full_layer(self):
        assert transfer_bound(3, 3, 1) == 27.0

    def test_log_form_matches(self):
        for n, r, tb in ((5, 1, 10), (40, 2, 100), (64, 3, 1000)):
            assert 2.0 ** transfer_bound_log2(n, r, tb) == pytest.approx(
                transfer_bound(n, r, tb), rel=1e-12
            )

    def test_transfer_fits_a_double_up_to_646(self):
        # 3^646 < 2^1024 < 3^647: the exact product up to there, as before
        for n, r, tb in ((646, 0, 2), (646, 1, 1292), (645, 3, 1e6), (600, 2, 1e5)):
            assert transfer_bound(n, r, tb) == rho_b(n, r, tb) * float(3**n)

    @pytest.mark.parametrize("n", [647, 10**9])
    def test_transfer_overflows_past_646_without_building_3_to_the_n(self, n):
        # at 10^9, building 3^n first would take minutes
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            transfer_bound(n, 1, 2 * n)
        with pytest.raises(ValueError, match="positive and finite"):
            transfer_bound(n, 1, math.inf)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            transfer_bound(3, 4, 1)
        with pytest.raises(ValueError):
            rho_b(3, 1, 0)

    @pytest.mark.parametrize("tb", [math.nan, math.inf, -math.inf])
    def test_rejects_a_layer_bound_that_is_not_finite(self, tb):
        for fn in (rho_b, transfer_bound, transfer_bound_log2):
            with pytest.raises(ValueError, match="positive and finite"):
                fn(5, 1, tb)
        with pytest.raises(ValueError, match="positive and finite"):
            deficit(5, 2, tb)


class TestDeficit:
    def test_formula(self):
        est = deficit(9, 2, 12.0)
        assert est.delta == pytest.approx(2 - math.log(12) / math.log(9))
        assert est.delta_kind == "exact"

    def test_kind_flips_direction(self):
        assert deficit(9, 2, 12.0, tb_kind="lower").delta_kind == "upper"
        assert deficit(9, 2, 12.0, tb_kind="upper").delta_kind == "lower"

    def test_single_two_layer_vanishes(self):
        # with tb = 2n the deficit is -log 2 / log n, climbing to zero
        values = [deficit(n, 1, 2 * n).delta for n in (10, 100, 10**4, 10**6)]
        assert all(v < 0 for v in values)
        assert values == sorted(values)
        assert abs(values[-1]) < 0.06

    def test_upper_envelope(self):
        assert deficit_upper(1) == 0.0
        assert deficit_upper(3) == pytest.approx(1.5, rel=1e-12)
        assert deficit_upper(9) == pytest.approx(9 - 9 ** (1 - math.log(2) / math.log(3)))

    def test_upper_envelope_domain(self):
        for r in (2, 6, 12):
            with pytest.raises(ValueError):
                deficit_upper(r)

    def test_needs_nontrivial_length(self):
        with pytest.raises(ValueError):
            deficit(1, 1, 2.0)


class TestRate:
    def test_boundary(self):
        assert rate(Code(2, ())) is None
        assert rate(Code(2, (Codeword.from_string("02"),))) is None
        two = Code(2, tuple(Codeword.from_string(s) for s in ("02", "20")))
        assert rate(two) == 0.0

    def test_family_values(self):
        assert rate(one_bounded(4)) == pytest.approx(0.5)
        assert rate(triple_construction(2, one_bounded(3))) == pytest.approx(
            math.log2(6) / 9
        )


class TestReport:
    def test_exact_entry_wins_ties(self):
        report = bound_report(1, exact_tb={(1, 0): 2})
        assert report.best == "exact-r0-transfer"
        values = {e.name: e.value for e in report.entries}
        assert values["exact-r0-transfer"] == 3.0

    def test_moderate_length_contents(self):
        report = bound_report(10)
        names = [e.name for e in report.entries]
        assert names == ["elias", "kurz", "kst-r2-transfer", "kst-r3-transfer"]
        applicable = [e for e in report.entries if e.valid]
        best = min(applicable, key=lambda e: e.log2_value)
        assert report.best == best.name == "kurz"

    def test_huge_length_uses_log_values(self):
        report = bound_report(10**8)
        entries = {e.name: e for e in report.entries}
        assert entries["kst-r3-transfer"].value is None
        assert entries["kst-r3-transfer"].log2_value == pytest.approx(
            r3_transfer_log2(10**8)
        )
        assert (
            entries["kst-r3-transfer"].log2_value < entries["elias"].log2_value
        )
        # the r=2 chain carries a much smaller constant and leads until
        # astronomically large n, even though its n^(-1/3) decay is slower
        assert report.best == "kst-r2-transfer"
        assert (
            entries["kst-r2-transfer"].log2_value
            < entries["kst-r3-transfer"].log2_value
        )

    def test_crossover_recorded(self):
        assert crossover_n0() == 10**7
        assert bound_report(10).crossover == 10**7

    def test_json_round_trip(self):
        report = bound_report(12, exact_tb={(12, 1): 24}, codes={"fam": one_bounded(12)})
        blob = json.dumps(report.to_json(), sort_keys=True)
        back = json.loads(blob)
        assert back["schema"] == 1
        assert back["crossover_N0"] == 10**7
        assert back["rates"][0]["label"] == "fam"

    @pytest.mark.parametrize("n", [512, 513])
    def test_transfer_values_switch_to_the_log2_form_past_length_512(self, n):
        report = bound_report(n, exact_tb={(n, 2): 1000})
        entries = {e.name: e for e in report.entries}
        for name, r, tb in (
            ("kst-r2-transfer", 2, tb_upper(n, 2)),
            ("kst-r3-transfer", 3, tb_upper(n, 3)),
            ("exact-r2-transfer", 2, 1000),
        ):
            linear = transfer_bound(n, r, tb)
            from_log2 = 2.0 ** entries[name].log2_value
            assert linear != from_log2  # so the test sees which form was taken
            assert entries[name].value == (linear if n <= 512 else from_log2)

    def test_small_lengths_skip_empty_layers(self):
        report = bound_report(2)
        entries = {e.name: e for e in report.entries}
        assert entries["kst-r3-transfer"].valid is False
        assert entries["kst-r2-transfer"].valid is True


# sha256 prefixes of json.dumps(report.to_json(), sort_keys=True) + "\n" +
# repr(report), without a table and with REPORT_TABLE, as the hand-built
# entries of the previous bound_report printed them; at n = 1749 and 1750
# that code printed elias's 2*(3/2)^n as Infinity, and these pin the same
# reports with that value null.  At n = 1747-1749 a value read off a log2
# form in [1023, 1024) was null too, and these pin it as the number it is.
REPORT_DIGESTS = {
    1: ("fe72fa2ab9355d35", "2f039c8277e33de8"),
    2: ("cf08556e20a10b95", "bcad012a59a09214"),
    3: ("52bce92ec51172f0", "e88147d666cff947"),
    4: ("614595ab9923fbba", "c1ad845fedee3e91"),
    5: ("0507ed5544449ef8", "2adcdc1e706b140e"),
    6: ("e62f5cadc9ccf33c", "b666801cfed2c4a7"),
    10: ("310b30f6289fa606", "bf2e30175862a2ca"),
    12: ("ccd36fd284151595", "a6d2a750cb705882"),
    512: ("17d5aa126907641c", "a982eace4530134f"),
    513: ("8586120ed7d9351b", "3c32c18f8a7a3126"),
    646: ("610e1c7b19997d9a", "19d016e395e44049"),
    647: ("ae6ae96e94ac98f2", "f7782bed413a589d"),
    1000: ("5f4b030de3117234", "5b305c3d03bc1669"),
    1747: ("fca7bd8368dbfe22", "ba1201e78931c414"),
    1748: ("3ca3239c8bb94922", "7ca1fa0aa66475d5"),
    1749: ("abad4d44a24e67a7", "0b9e24c74bb6b4df"),
    1750: ("d8d9a73e736c093c", "9fd1b0990e90bfab"),
    1751: ("2aa8fca46b716266", "aaa1801544221f80"),
    10**6: ("8f0cf8cad84291b9", "5cc6587f21e6c69e"),
    10**7: ("ca883c0053e8eaca", "00e7d331feacabf7"),
    10**9: ("b99d44c779e7fd6f", "eb209de9a0e86ef3"),
    10**12: ("b7c921eb1cf8720d", "30d273b83c108d29"),
}


def report_table(n):
    """Exact entries for every layer r <= 3 (those above n are skipped) and for T(n)."""
    return {(n, 0): 2, (n, 1): 2 * n, (n, 2): n * n, (n, 3): n**3, (n, None): 3 * n}


@pytest.mark.parametrize("n", sorted(REPORT_DIGESTS))
def test_report_output_is_pinned(n):
    for table, digest in zip((None, report_table(n)), REPORT_DIGESTS[n]):
        report = bound_report(n, table)
        text = json.dumps(report.to_json(), sort_keys=True, allow_nan=False)
        text += "\n" + repr(report)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n", [1749, 1750])
def test_report_value_that_overflows_to_infinity_is_null(n):
    # 1.5**n still fits a double here, but 2 * 1.5**n comes out infinite
    assert math.isfinite(1.5**n) and math.isinf(2.0 * 1.5**n)
    elias = bound_report(n).entries[0]
    assert elias.name == "elias"
    assert elias.value is None
    assert elias.log2_value == elias_bound_log2(n)


def test_report_reads_values_up_to_the_largest_double_off_log2():
    # past length 512 a transfer's value is 2**log2; at n = 1748 that log2
    # lies in [1023, 1024), so the value still fits a double
    entries = {e.name: e for e in bound_report(1748).entries}
    transfer = entries["kst-r2-transfer"]
    assert 1023 < transfer.log2_value < 1024
    assert transfer.value == 2.0**transfer.log2_value
    assert entries["kst-r3-transfer"].value is None  # log2 above 1024
