"""Tests for the token type."""

from repro.kpn.tokens import COPY_STATS, Token


class TestToken:
    def test_stamped_sets_time(self):
        token = Token(value="x")
        stamped = token.stamped(5.0)
        assert stamped.stamp == 5.0
        assert token.stamp is None  # frozen original untouched

    def test_stamped_renumbers(self):
        token = Token(value="x", seqno=1)
        assert token.stamped(1.0, seqno=9).seqno == 9

    def test_stamped_reattributes(self):
        token = Token(value="x", origin="a")
        assert token.stamped(1.0, origin="b").origin == "b"
        assert token.stamped(1.0).origin == "a"

    def test_with_value(self):
        token = Token(value=1, seqno=4, size_bytes=10)
        out = token.with_value(2)
        assert out.value == 2
        assert out.seqno == 4
        assert out.size_bytes == 10

    def test_with_value_resizes(self):
        token = Token(value=1, size_bytes=10)
        assert token.with_value(2, size_bytes=99).size_bytes == 99

    def test_frozen(self):
        import dataclasses
        import pytest
        token = Token(value=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.value = 2


class TestZeroCopy:
    def test_view_shares_storage(self):
        payload = bytes(range(32))
        token = Token(value=payload, seqno=3, stamp=1.5, size_bytes=32,
                      origin="src")
        COPY_STATS.reset()
        sub = token.view(8, 16)
        assert type(sub.value) is memoryview
        assert sub.value.obj is payload  # no bytes moved
        assert sub.value == payload[8:16]
        assert sub.size_bytes == 8
        assert (sub.seqno, sub.stamp, sub.origin) == (3, 1.5, "src")
        assert COPY_STATS.views == 1
        assert COPY_STATS.copies == 0

    def test_view_is_readonly(self):
        import pytest
        token = Token(value=bytearray(b"abcdef"))
        sub = token.view(0, 3)
        assert sub.value.readonly
        with pytest.raises(TypeError):
            sub.value[0] = 0

    def test_view_of_view_shares_root_storage(self):
        payload = bytes(range(16))
        sub = Token(value=payload).view(4, 12).view(2, 6)
        assert sub.value.obj is payload
        assert sub.value == payload[6:10]

    def test_materialize_counts_the_one_copy(self):
        payload = bytes(range(16))
        sub = Token(value=payload).view(4, 12)
        COPY_STATS.reset()
        owned = sub.materialize()
        assert type(owned.value) is bytes
        assert owned.value == payload[4:12]
        assert COPY_STATS.copies == 1
        assert COPY_STATS.copied_bytes == 8

    def test_materialize_of_owned_payload_is_identity(self):
        token = Token(value=b"abc")
        COPY_STATS.reset()
        assert token.materialize() is token
        assert COPY_STATS.copies == 0

    def test_memoryview_payload_hashes_like_bytes(self):
        # Codec memo caches key on payload bytes; a zero-copy view must
        # hit the same cache entries as the owned bytes it views.
        payload = b"stripe-data"
        view = Token(value=payload).view().value
        assert hash(view) == hash(payload)
        assert {payload: "cached"}[view] == "cached"


class TestCopyStatsApi:
    def test_snapshot_is_a_plain_dict(self):
        COPY_STATS.reset()
        COPY_STATS.count_copy(10)
        snap = COPY_STATS.snapshot()
        assert snap == {"copies": 1, "copied_bytes": 10, "views": 0}
        # A snapshot is detached: later counting must not mutate it.
        COPY_STATS.count_copy(5)
        assert snap["copies"] == 1

    def test_delta_since_snapshot(self):
        COPY_STATS.reset()
        COPY_STATS.count_copy(100)
        before = COPY_STATS.snapshot()
        COPY_STATS.count_copy(32)
        COPY_STATS.views += 2
        assert COPY_STATS.delta(before) == {
            "copies": 1, "copied_bytes": 32, "views": 2
        }

    def test_reset_zeroes_everything(self):
        COPY_STATS.count_copy(1)
        COPY_STATS.reset()
        assert COPY_STATS.snapshot() == {
            "copies": 0, "copied_bytes": 0, "views": 0
        }
