# wp-lint: module=repro.core.peer
"""WP113 bad fixture: a parsed holder request is still untrusted input."""


class BadOwner:
    def __init__(self):
        self.on("fix.renew", self._handle_renew)

    def _handle_renew(self, src, data):
        request = protocol.open_holder_request(data, self.params, "fix.renew")
        state = self.owned[request.coin.coin_y]
        state.relinquishments.append(data)  # line 12: journaled before any verify
        self._wal_owned(state)  # line 13
        if not self._verify_dual(request.envelope):
            raise VerificationFailed("bad signature")
        return state.binding.encode()
