# wp-lint: module=repro.core.peer
"""WP112 good fixture: every reply is dominated by its journal write."""


class GoodPeer:
    def purchase(self, coin):
        self.owned[coin.coin_y] = coin
        self._wal_owned(coin)
        return coin

    def retire(self, coin_y):
        del self.wallet[coin_y]
        self._wal_del(coin_y)
        return True

    def both_arms(self, coin, flag):
        if flag:
            self.owned[coin.coin_y] = coin
            self._wal_owned(coin)
        else:
            del self.wallet[coin.coin_y]
            self._wal_del(coin.coin_y)
        return coin

    def crash_instead_of_reply(self, coin):
        # A raise is not a reply: the crash happens before any state is
        # acknowledged, which is exactly what recovery replays.
        self.owned[coin.coin_y] = coin
        raise RuntimeError("abort before reply")

    def helper_journals(self, coin):
        self.owned[coin.coin_y] = coin
        self._record(coin)
        return coin

    def _record(self, coin):
        self._wal_owned(coin)

    def journal_then_send(self, state, payee, binding):
        state.seq_floor += 1
        self._wal_owned(state)
        self.detection.publish(binding, self.address)
        self.peer_client.transfer_complete(payee, binding)
        state.binding = binding
        self._wal_owned(state)
        return binding
