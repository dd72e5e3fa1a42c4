"""Tests for the token type."""

from repro.kpn.tokens import Token


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

