"""Unit + property tests for the compression codecs.

Each codec's incremental accounting is checked against brute-force
recomputation over the same value stream, and the ORD-IND/ORD-DEP
classification (the paper's Section 4.2 backbone) is verified
behaviorally.
"""

import pytest
from hypothesis import given, strategies as st

from repro.catalog import Column, INT, char
from repro.compression import (
    CompressionMethod,
    GlobalDictionaryCodec,
    LocalDictionaryCodec,
    MinOfCodec,
    NullSuppressionCodec,
    PrefixCodec,
    RawCodec,
    RunLengthCodec,
    common_prefix_len,
    global_dictionary_overhead,
    make_codec,
    pointer_width,
    strip_value,
)
from repro.compression.local_dictionary import (
    DICT_OVERHEAD,
    _contribution,
)
from repro.errors import CompressionError

INT_COL = Column("i", INT)
CHAR_COL = Column("c", char(12))

bytes_values = st.lists(st.binary(min_size=0, max_size=10), min_size=0,
                        max_size=60)


class TestStripValue:
    def test_int_leading_zeros(self):
        raw = INT.encode(5)
        assert strip_value(raw, INT_COL) == b"\x05"

    def test_int_zero(self):
        assert strip_value(INT.encode(0), INT_COL) == b""

    def test_negative_keeps_sign_byte(self):
        stripped = strip_value(INT.encode(-5), INT_COL)
        decoded = int.from_bytes(
            b"\xff" * (8 - len(stripped)) + stripped, "big", signed=True
        )
        assert decoded == -5

    def test_char_trailing_padding(self):
        raw = CHAR_COL.dtype.encode("ab")
        assert strip_value(raw, CHAR_COL) == b"ab"

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_int_strip_decodable(self, v):
        stripped = strip_value(INT.encode(v), INT_COL)
        pad = b"\xff" if v < 0 else b"\x00"
        restored = pad * (8 - len(stripped)) + stripped
        assert int.from_bytes(restored, "big", signed=True) == v

    @given(st.integers(min_value=0, max_value=2**62))
    def test_strip_never_longer(self, v):
        assert len(strip_value(INT.encode(v), INT_COL)) <= 8


class TestNullSuppression:
    def test_size_formula(self):
        codec = NullSuppressionCodec(INT_COL)
        codec.add(b"ab")
        codec.add(b"")
        assert codec.size() == (1 + 2) + (1 + 0)

    def test_reset(self):
        codec = NullSuppressionCodec(INT_COL)
        codec.add(b"abc")
        codec.reset()
        assert codec.size() == 0
        assert codec.count == 0

    @given(bytes_values)
    def test_matches_bruteforce(self, values):
        codec = NullSuppressionCodec(INT_COL)
        for v in values:
            codec.add(v)
        assert codec.size() == sum(1 + len(v) for v in values)


class TestPrefix:
    def test_common_prefix_len(self):
        assert common_prefix_len(b"aaabc", b"aaacd") == 3
        assert common_prefix_len(b"", b"x") == 0
        assert common_prefix_len(b"same", b"same") == 4

    def test_paper_example(self):
        # {aaabc, aaacd, aaade} share "aaa".
        codec = PrefixCodec(CHAR_COL)
        for v in (b"aaabc", b"aaacd", b"aaade"):
            codec.add(v)
        # anchor(2+3) + 3 headers + suffixes 2+2+2
        assert codec.size() == 5 + 3 + 6

    def test_prefix_only_shrinks(self):
        codec = PrefixCodec(CHAR_COL)
        codec.add(b"abcdef")
        size_one = codec.size()
        codec.add(b"abczzz")
        assert codec._prefix == b"abc"
        assert codec.size() > size_one

    @given(bytes_values)
    def test_matches_bruteforce(self, values):
        codec = PrefixCodec(CHAR_COL)
        for v in values:
            codec.add(v)
        if not values:
            assert codec.size() == 0
            return
        prefix = values[0]
        for v in values[1:]:
            prefix = prefix[: common_prefix_len(prefix, v)]
        expected = (
            2 + len(prefix)
            + len(values)
            + sum(len(v) - len(prefix) for v in values)
        )
        assert codec.size() == expected


class TestLocalDictionary:
    def test_repeats_pay_off(self):
        codec = LocalDictionaryCodec(CHAR_COL)
        for _ in range(50):
            codec.add(b"REPEATED")
        # 50 plain copies would be 50 * 9; dictionary stores it once.
        assert codec.size() < 50 * 9

    def test_unique_values_not_dictionarized(self):
        codec = LocalDictionaryCodec(CHAR_COL)
        values = [bytes([i, i + 1]) for i in range(30)]
        for v in values:
            codec.add(v)
        assert codec.size() == DICT_OVERHEAD + sum(1 + 2 for _ in values)

    def test_distinct_on_page(self):
        codec = LocalDictionaryCodec(CHAR_COL)
        for v in (b"a", b"b", b"a"):
            codec.add(v)
        assert codec.distinct_on_page() == 2

    @given(bytes_values)
    def test_matches_bruteforce(self, values):
        codec = LocalDictionaryCodec(CHAR_COL)
        for v in values:
            codec.add(v)
        if not values:
            assert codec.size() == 0
            return
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        ptr = 1 if len(counts) <= 256 else 2
        expected = DICT_OVERHEAD + sum(
            _contribution(len(v), c, ptr) for v, c in counts.items()
        )
        assert codec.size() == expected

    def test_incremental_total_matches_rescan_at_every_row(self):
        """The incrementally-maintained size must equal a full
        O(distinct) rescan after *every* add, across the 1-byte to
        2-byte pointer-width transition at 256 distinct values —
        the transition is an O(1) total switch, not a recount."""
        import random

        def rescan_size(counts, ptr):
            if not counts:
                return 0
            return DICT_OVERHEAD + sum(
                _contribution(len(v), c, ptr) for v, c in counts.items()
            )

        rng = random.Random(20110829)
        codec = LocalDictionaryCodec(CHAR_COL)
        counts: dict = {}
        # 700 adds over ~400 distinct values: crosses the 256-distinct
        # boundary mid-sequence with plenty of repeats on both sides.
        for _ in range(700):
            value = bytes([rng.randrange(4), rng.randrange(100)])
            codec.add(value)
            counts[value] = counts.get(value, 0) + 1
            ptr = 1 if len(counts) <= 256 else 2
            assert codec.size() == rescan_size(counts, ptr)
        assert codec.distinct_on_page() > 256

    def test_reset_clears_both_width_totals(self):
        codec = LocalDictionaryCodec(CHAR_COL)
        for i in range(300):
            codec.add(bytes([i % 256, i // 256]))
        codec.reset()
        assert codec.size() == 0
        codec.add(b"ab")
        assert codec.size() == DICT_OVERHEAD + _contribution(2, 1, 1)


class TestRunLength:
    def test_runs(self):
        codec = RunLengthCodec(INT_COL)
        for v in (b"a", b"a", b"a", b"b", b"a"):
            codec.add(v)
        assert codec.run_count == 3

    def test_size(self):
        codec = RunLengthCodec(INT_COL)
        for v in (b"xy", b"xy", b"z"):
            codec.add(v)
        assert codec.size() == (1 + 2 + 2) + (1 + 1 + 2)

    @given(bytes_values)
    def test_runs_bruteforce(self, values):
        codec = RunLengthCodec(INT_COL)
        for v in values:
            codec.add(v)
        runs = 0
        last = object()
        for v in values:
            if v != last:
                runs += 1
                last = v
        assert codec.run_count == runs


class TestGlobalDictionary:
    def test_pointer_width(self):
        assert pointer_width(1) == 1
        assert pointer_width(256) == 1
        assert pointer_width(257) == 2
        assert pointer_width(65536) == 2
        assert pointer_width(65537) == 3

    def test_codec_size(self):
        codec = GlobalDictionaryCodec(INT_COL, n_distinct=300)
        for _ in range(10):
            codec.add(b"whatever")
        assert codec.size() == 10 * 2

    def test_dictionary_overhead(self):
        assert global_dictionary_overhead([b"ab", b"c"]) == 3 + 2


class TestComposites:
    def test_min_of_picks_smallest(self):
        codec = MinOfCodec(
            CHAR_COL, [NullSuppressionCodec(CHAR_COL), PrefixCodec(CHAR_COL)]
        )
        for _ in range(20):
            codec.add(b"shared-prefix-value")
        prefix = PrefixCodec(CHAR_COL)
        ns = NullSuppressionCodec(CHAR_COL)
        for _ in range(20):
            prefix.add(b"shared-prefix-value")
            ns.add(b"shared-prefix-value")
        assert codec.size() == min(prefix.size(), ns.size())

    def test_min_of_requires_parts(self):
        with pytest.raises(CompressionError):
            MinOfCodec(CHAR_COL, [])

    def test_raw_codec(self):
        codec = RawCodec(INT_COL)
        codec.add(b"x")
        codec.add(b"")
        assert codec.size() == 2 * 8


class TestFactory:
    @pytest.mark.parametrize("method", list(CompressionMethod))
    def test_make_codec(self, method):
        codec = make_codec(method, INT_COL, n_distinct=10)
        codec.add(b"ab")
        assert codec.size() >= 0

    def test_global_dict_needs_distinct(self):
        with pytest.raises(CompressionError):
            make_codec(CompressionMethod.GLOBAL_DICT, INT_COL)

    def test_classification(self):
        assert CompressionMethod.ROW.is_order_independent
        assert CompressionMethod.GLOBAL_DICT.is_order_independent
        assert CompressionMethod.PAGE.is_order_dependent
        assert CompressionMethod.RLE.is_order_dependent
        assert not CompressionMethod.NONE.is_compressed


class TestPageFusion:
    """The fused PageCodec promises byte-identity with the composite it
    replaced (see its docstring); this pins that equivalence."""

    @staticmethod
    def _composite():
        return MinOfCodec(CHAR_COL, [
            NullSuppressionCodec(CHAR_COL),
            PrefixCodec(CHAR_COL),
            LocalDictionaryCodec(CHAR_COL),
        ])

    @given(bytes_values)
    def test_page_codec_matches_composite(self, values):
        from repro.compression.packages import PageCodec

        fused = PageCodec(CHAR_COL)
        composite = self._composite()
        for value in values:
            assert fused.add(value) == composite.add(value)
        assert fused.size() == composite.size()
        assert fused.count == composite.count

    @given(bytes_values)
    def test_page_codec_reset_matches(self, values):
        from repro.compression.packages import PageCodec

        fused = PageCodec(CHAR_COL)
        composite = self._composite()
        for value in values:
            fused.add(value)
            composite.add(value)
        fused.reset()
        composite.reset()
        for value in values:
            assert fused.add(value) == composite.add(value)
        assert fused.size() == composite.size()

    def test_factory_builds_fused_page(self):
        from repro.compression.packages import PageCodec

        assert isinstance(
            make_codec(CompressionMethod.PAGE, CHAR_COL), PageCodec
        )


# ----------------------------------------------------------------------
# The bulk contract: extend(values) == the last add() of that run
# ----------------------------------------------------------------------
#: every codec, by the name its failure should print under
CODEC_FACTORIES = {
    "raw": lambda: RawCodec(CHAR_COL),
    "null-suppression": lambda: NullSuppressionCodec(CHAR_COL),
    "prefix": lambda: PrefixCodec(CHAR_COL),
    "local-dictionary": lambda: LocalDictionaryCodec(CHAR_COL),
    "min-of": TestPageFusion._composite,
    "page": lambda: make_codec(CompressionMethod.PAGE, CHAR_COL),
    "global-dictionary": lambda: GlobalDictionaryCodec(CHAR_COL, 300),
    "rle": lambda: RunLengthCodec(CHAR_COL),
    "delta": lambda: make_codec(CompressionMethod.DELTA, CHAR_COL),
    "bitpack": lambda: make_codec(CompressionMethod.BITPACK, CHAR_COL, 300),
}
ALL_CODECS = pytest.mark.parametrize("name", sorted(CODEC_FACTORIES))

#: value streams that repeat, share prefixes, lose them, go empty —
#: and, the short ones, pass 256 distinct values on one page
value_streams = st.one_of(
    st.lists(st.sampled_from(
        [b"", b"a", b"ab", b"abc", b"abd", b"b", b"shared/x", b"shared/y"]
    ), max_size=80),
    st.lists(st.binary(max_size=10), max_size=80),
    st.lists(st.binary(min_size=1, max_size=2), max_size=700),
)


@st.composite
def pieces(draw):
    """One value stream cut at arbitrary points; each piece is fed by
    ``extend`` (True) or value by value (False).  Empty pieces occur."""
    values = draw(value_streams)
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(values)), max_size=8
    )))
    bounds = [0, *cuts, len(values)]
    return [
        (values[lo:hi], draw(st.booleans()))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _observable(codec):
    state = {"size": codec.size(), "count": codec.count}
    for extra in ("distinct_on_page", "run_count"):
        value = getattr(codec, extra, None)
        if value is not None:
            state[extra] = value() if callable(value) else value
    return state


def _feed(codec, reference, chunks):
    """Feed ``chunks`` to ``codec`` as they say and to ``reference`` one
    ``add`` at a time; every return and all observable state agree."""
    for values, bulk in chunks:
        expected = reference.size()
        for value in values:
            expected = reference.add(value)
        if bulk:
            assert codec.extend(values) == expected
        else:
            for value in values:
                codec.add(value)
        assert _observable(codec) == _observable(reference)


class TestExtendContract:
    @ALL_CODECS
    @given(pieces())
    def test_any_split_equals_adds(self, name, chunks):
        _feed(CODEC_FACTORIES[name](), CODEC_FACTORIES[name](), chunks)

    @ALL_CODECS
    @given(pieces(), pieces())
    def test_across_reset(self, name, first_page, second_page):
        codec, reference = CODEC_FACTORIES[name](), CODEC_FACTORIES[name]()
        _feed(codec, reference, first_page)
        codec.reset()
        reference.reset()
        assert _observable(codec) == _observable(reference)
        _feed(codec, reference, second_page)

    @ALL_CODECS
    @pytest.mark.parametrize("cut", [0, 200, 256, 257])
    def test_pointer_switch_inside_a_chunk(self, name, cut):
        # The 257th distinct value on the page (where on-page pointers
        # widen to two bytes) lands in the middle of an extend.
        distinct = [bytes([1 + i // 200, 1 + i % 200]) for i in range(300)]
        values = distinct + distinct[:120]
        _feed(
            CODEC_FACTORIES[name](), CODEC_FACTORIES[name](),
            [(values[:cut], True), (values[cut:], True), (values, True)],
        )

    @ALL_CODECS
    def test_empty_extend_is_size(self, name):
        codec = CODEC_FACTORIES[name]()
        assert codec.extend([]) == codec.size() == 0
        codec.extend([b"ab", b"ab", b"c"])
        before = _observable(codec)
        assert codec.extend([]) == before["size"]
        assert _observable(codec) == before

    @ALL_CODECS
    @given(pieces())
    def test_size_is_non_decreasing_in_rows(self, name, chunks):
        # The property the page packer's exactness rests on: "close at
        # the first row that overflows" is "largest prefix that fits"
        # only if no row ever makes the page smaller.
        codec = CODEC_FACTORIES[name]()
        last = 0
        for values, bulk in chunks:
            if bulk:
                size = codec.extend(values)
                assert size >= last
                last = size
            else:
                for value in values:
                    size = codec.add(value)
                    assert size >= last
                    last = size
