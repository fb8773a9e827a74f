# wp-lint: module=repro.core.peer
"""WP113 good fixture: the parser opens, a verify call dominates the trust."""


class GoodOwner:
    def __init__(self):
        self.on("fix.renew", self._handle_renew)

    def _handle_renew(self, src, data):
        request = protocol.open_holder_request(data, self.params, "fix.renew")
        if not self._verify_dual(request.envelope):
            raise VerificationFailed("bad signature")
        state = self.owned[request.coin.coin_y]
        state.relinquishments.append(data)
        self._wal_owned(state)
        return state.binding.encode()
