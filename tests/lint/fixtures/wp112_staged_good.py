# wp-lint: module=repro.core.broker
"""WP112 good fixture: each binding is published before it is staged."""


class GoodBroker:
    def _record_downtime_binding(self, coin, binding):
        self.detection.publish(binding, self.address)
        self._stage({"type": "downtime_binding", "coin_y": coin.coin_y})

    def _handle_downtime_transfer(self, src, data):
        binding = self._fresh_binding(data)
        self._record_downtime_binding(data, binding)
        return binding.encode()

    def _handle_downtime_renewal(self, src, data):
        binding = self._fresh_binding(data)
        self.detection.publish(binding, self.address)
        self._record_staged(data)
        return binding.encode()

    def _record_staged(self, data):
        self._stage({"type": "downtime_binding", "coin_y": data})
