"""Direct tests of the protocol payload validators (`repro.core.protocol`)."""

import pytest

from repro.core.protocol import CoinSpec, HolderOperation, PurchaseRequest
from repro.messages.codec import decode, encode


def wire(coins, account="a"):
    """A purchase payload as the broker receives it (through the codec)."""
    return decode(encode({"kind": "whopay.purchase_request", "account": account, "coins": coins}))


class TestPurchaseRequest:
    def test_roundtrip(self):
        request = PurchaseRequest(account="alice", coins=(CoinSpec(123, 5),))
        assert PurchaseRequest.from_payload(request.to_payload()) == request
        assert PurchaseRequest.from_payload(decode(encode(request.to_payload()))) == request

    def test_anonymous_roundtrip(self):
        request = PurchaseRequest(account="a", coins=(CoinSpec(1, 1, b"h" * 32),))
        rebuilt = PurchaseRequest.from_payload(request.to_payload())
        assert rebuilt.coins[0].handle == b"h" * 32

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="not a purchase"):
            PurchaseRequest.from_payload({"kind": "other"})
        with pytest.raises(ValueError):
            PurchaseRequest.from_payload("not a dict")

    def test_rejects_bad_types(self):
        for bad_coins in ([["string", 1, None]], [[1, "1", None]], [[1, 1]], [1]):
            with pytest.raises(ValueError, match="malformed"):
                PurchaseRequest.from_payload(wire(bad_coins))

    @pytest.mark.parametrize(
        "coins, match",
        [
            ([], "at least one"),
            ([[1, 1, None], [1, 2, None]], "duplicate"),
            ([[1, 0, None]], "positive"),
            ([[1, 1, "h" * 32]], "handle"),
        ],
        ids=["empty", "duplicate-key", "nonpositive-value", "handle-not-bytes"],
    )
    def test_refusals(self, coins, match):
        with pytest.raises(ValueError, match=match):
            PurchaseRequest.from_payload(wire(coins))


class TestBatchPurchaseRequest:
    """A batch is the same PurchaseRequest carrying several coin specs."""

    def test_roundtrip(self):
        request = PurchaseRequest(account="alice", coins=(CoinSpec(1, 2), CoinSpec(3, 4, b"h" * 32)))
        rebuilt = PurchaseRequest.from_payload(decode(encode(request.to_payload())))
        assert rebuilt == request
        assert [(spec.coin_y, spec.value) for spec in rebuilt.coins] == [(1, 2), (3, 4)]

    def test_rejects_malformed_entries(self):
        good = [1, 2, None]
        for bad in ([3], [3, 0, None], ["x", 2, None], [3, 2, "h" * 32]):
            with pytest.raises(ValueError):
                PurchaseRequest.from_payload(wire([good, bad]))


class TestHolderOperation:
    def base(self, **overrides):
        fields = dict(
            op="deposit",
            coin_cert=b"cert",
            proof_binding=b"binding",
            proof_via_broker=False,
            payout_to="account",
        )
        fields.update(overrides)
        return HolderOperation(**fields)

    def test_deposit_roundtrip(self):
        operation = self.base()
        rebuilt = HolderOperation.from_payload(operation.to_payload())
        assert rebuilt == operation

    def test_transfer_requires_new_holder(self):
        payload = self.base().to_payload()
        payload["op"] = "transfer"
        payload["new_holder_y"] = None
        with pytest.raises(ValueError, match="new holder"):
            HolderOperation.from_payload(payload)

    def test_deposit_requires_payout(self):
        payload = self.base().to_payload()
        payload["payout_to"] = None
        with pytest.raises(ValueError, match="payout"):
            HolderOperation.from_payload(payload)

    def test_top_up_requires_delta_and_auth(self):
        payload = self.base(op="renewal").to_payload()
        payload["op"] = "top_up"
        with pytest.raises(ValueError, match="delta"):
            HolderOperation.from_payload(payload)
        payload["delta"] = 3
        with pytest.raises(ValueError, match="authorization"):
            HolderOperation.from_payload(payload)
        payload["funding_auth"] = b"auth"
        rebuilt = HolderOperation.from_payload(payload)
        assert rebuilt.delta == 3

    def test_unknown_op_rejected(self):
        payload = self.base().to_payload()
        payload["op"] = "mint"
        with pytest.raises(ValueError, match="unknown holder op"):
            HolderOperation.from_payload(payload)

    def test_renewal_needs_no_extras(self):
        operation = self.base(op="renewal", payout_to=None)
        rebuilt = HolderOperation.from_payload(operation.to_payload())
        assert rebuilt.op == "renewal"
        assert rebuilt.new_holder_y is None
