# wp-lint: module=repro.core.broker
"""WP112 bad fixture: a staged binding published before its record is durable."""


class BadBroker:
    def _record_downtime_binding(self, coin, binding):
        self._stage({"type": "downtime_binding", "coin_y": coin.coin_y})  # line 7
        self.detection.publish(binding, self.address)  # line 8: egress after staging

    def _handle_downtime_transfer(self, src, data):
        binding = self._fresh_binding(data)
        self._record_downtime_binding(data, binding)
        return binding.encode()

    def _handle_downtime_renewal(self, src, data):
        binding = self._fresh_binding(data)
        self._record_staged(data)
        self.detection.publish(binding, self.address)  # line 18: the helper staged
        return binding.encode()

    def _record_staged(self, data):
        self._stage({"type": "downtime_binding", "coin_y": data})  # line 22
