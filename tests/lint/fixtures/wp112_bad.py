# wp-lint: module=repro.core.peer
"""WP112 bad fixture: replies escape before the covering journal write."""


class BadPeer:
    def purchase(self, coin):
        self.owned[coin.coin_y] = coin  # line 7: mutation, never journaled
        return coin

    def retire(self, coin_y):
        del self.wallet[coin_y]  # line 11: deletion, never journaled
        return True

    def one_armed(self, coin, flag):
        self.owned[coin.coin_y] = coin  # line 15: journaled on one path only
        if flag:
            self._wal_owned(coin)
        return coin

    def dead_journal(self, coin):
        self.owned[coin.coin_y] = coin  # line 21
        return coin
        self._wal_owned(coin)  # line 23: unreachable journal write

    def _next_seq(self, state):
        state.seq_floor += 1  # line 26: left pending for the caller
        return state.seq_floor

    def serve(self, state, payee, binding):
        self._next_seq(state)
        self.detection.publish(binding, self.address)  # line 31: egress
        self.peer_client.transfer_complete(payee, binding)  # line 32: egress
        self._wal_owned(state)
        return binding
