"""Coin and binding data-model tests."""

import pytest

from repro.core.coin import CoinBinding, HeldCoin, OwnedCoinState
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from tests.conftest import mint_coin

P = PARAMS_TEST_512


@pytest.fixture(scope="module")
def broker_keypair():
    return KeyPair.generate(P)


@pytest.fixture(scope="module")
def coin_keypair():
    return KeyPair.generate(P)


class TestCoin:
    def test_build_and_verify(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 3, "alice", 42)
        assert coin.verify(broker_keypair.public)
        assert coin.coin_y == coin_keypair.public.y
        assert coin.value == 3
        assert coin.owner_address == "alice"
        assert coin.owner_y == 42
        assert not coin.is_ownerless

    def test_ownerless_coin(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 1, None, None, handle=b"h" * 32)
        assert coin.verify(broker_keypair.public)
        assert coin.is_ownerless
        assert coin.handle == b"h" * 32

    def test_wrong_broker_key_rejected(self, broker_keypair, coin_keypair):
        other = KeyPair.generate(P)
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 1, "a", 1)
        assert not coin.verify(other.public)

    def test_forged_coin_rejected(self, broker_keypair, coin_keypair):
        fake_broker = KeyPair.generate(P)
        coin = mint_coin(fake_broker, coin_keypair.public.y, 1, "a", 1)
        assert not coin.verify(broker_keypair.public)

    def test_zero_value_rejected(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 0, "a", 1)
        assert not coin.verify(broker_keypair.public)

    def test_coin_public_key(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 1, "a", 1)
        assert coin.coin_public_key(P).y == coin_keypair.public.y


class TestCoinBinding:
    def test_owner_signed_binding(self, broker_keypair, coin_keypair):
        binding = CoinBinding.build(coin_keypair, coin_keypair.public.y, 999, seq=5, exp_date=100.0)
        assert binding.verify(coin_keypair.public, broker_keypair.public)
        assert binding.holder_y == 999
        assert binding.seq == 5
        assert binding.exp_date == 100.0
        assert not binding.via_broker

    def test_broker_signed_binding(self, broker_keypair, coin_keypair):
        binding = CoinBinding.build(
            broker_keypair, coin_keypair.public.y, 999, seq=6, exp_date=100.0, via_broker=True
        )
        assert binding.verify(coin_keypair.public, broker_keypair.public)
        assert binding.via_broker

    def test_signer_flag_mismatch_rejected(self, broker_keypair, coin_keypair):
        # Owner-signed binding claiming to be broker-signed (and vice versa).
        owner_signed = CoinBinding.build(coin_keypair, coin_keypair.public.y, 1, 1, 10.0)
        flipped = CoinBinding(signed=owner_signed.signed, via_broker=True)
        assert not flipped.verify(coin_keypair.public, broker_keypair.public)

    def test_binding_for_other_coin_rejected(self, broker_keypair, coin_keypair):
        other = KeyPair.generate(P)
        binding = CoinBinding.build(other, other.public.y, 1, 1, 10.0)
        assert not binding.verify(coin_keypair.public, broker_keypair.public)

    def test_third_party_signature_rejected(self, broker_keypair, coin_keypair):
        mallory = KeyPair.generate(P)
        binding = CoinBinding.build(mallory, coin_keypair.public.y, 1, 1, 10.0)
        assert not binding.verify(coin_keypair.public, broker_keypair.public)


class TestWalletEntries:
    def test_held_coin_expiry(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 2, "a", 1)
        holder = KeyPair.generate(P)
        binding = CoinBinding.build(coin_keypair, coin.coin_y, holder.public.y, 1, exp_date=100.0)
        held = HeldCoin(coin=coin, holder_keypair=holder, binding=binding)
        assert held.value == 2
        assert not held.is_expired(now=50.0)
        assert held.is_expired(now=101.0)

    def test_owned_state_lifecycle(self, broker_keypair, coin_keypair):
        coin = mint_coin(broker_keypair, coin_keypair.public.y, 1, "a", 1)
        state = OwnedCoinState(coin=coin, coin_keypair=coin_keypair)
        assert not state.issued
        state.binding = CoinBinding.build(coin_keypair, coin.coin_y, 7, 1, 10.0)
        assert state.issued
        assert state.coin_y == coin.coin_y
