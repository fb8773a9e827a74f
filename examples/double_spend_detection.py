"""Fraud story: double spending caught in real time, culprit unmasked.

Demonstrates the Section 5.1 extension end to end on the real stack:

1. every binding update is published to the access-controlled Chord DHT;
2. holders subscribe and monitor their coins;
3. a malicious owner re-binds a coin behind the holder's back — the victim
   is alarmed the instant the forged binding hits the public list;
4. separately, a malicious *holder* spends then deposits a stale coin; the
   broker detects the collision at deposit time and the judge + audit trail
   convict exactly the right party (fairness: one opening, no collateral
   de-anonymization).

Run:  python examples/double_spend_detection.py
"""

import copy

from repro import PARAMS_TEST_512, PeerConfig, WhoPayNetwork
from repro.core.audit import adjudicate_double_deposit
from repro.core.coin import CoinBinding
from repro.core.errors import DoubleSpendDetected


def real_time_owner_fraud(net: WhoPayNetwork) -> None:
    print("== scenario 1: cheating OWNER, caught in real time ==")
    mallory = net.add_peer("mallory-owner", PeerConfig(balance=10))
    victim = net.add_peer("victim")
    accomplice = net.add_peer("accomplice")

    state = mallory.purchase(value=5)
    mallory.issue("victim", state.coin_y)
    print("mallory issued a 5-unit coin to victim; victim's holder key is on the public list")

    # Mallory forges a new binding giving "her" coin to an accomplice.
    forged = CoinBinding.build(
        state.coin_keypair,
        coin_y=state.coin_y,
        holder_y=accomplice.identity.public.y,
        seq=mallory.owned[state.coin_y].binding.seq + 1,
        exp_date=net.clock.now() + 86_400,
    )
    net.detection.publish(forged, mallory.address)
    print("mallory published a forged re-bind to the DHT…")

    alarm = victim.alarms[0]
    print(f"ALARM at victim: coin {alarm.coin_y:#x}"[:50] + "… re-bound away "
          f"(seq {alarm.observed_seq}) — detected BEFORE any deposit\n")


def deposit_time_holder_fraud(net: WhoPayNetwork) -> None:
    print("== scenario 2: cheating HOLDER, convicted from the audit trail ==")
    owner = net.add_peer("owner", PeerConfig(balance=10))
    cheat = net.add_peer("cheat")
    merchant = net.add_peer("merchant")

    state = owner.purchase(value=2)
    owner.issue("cheat", state.coin_y)
    stale = copy.deepcopy(cheat.wallet[state.coin_y])
    cheat.transfer("merchant", state.coin_y)
    print("cheat paid merchant with the coin…")
    cheat.wallet[state.coin_y] = stale
    cheat.deposit(state.coin_y)
    print("…then deposited the SAME coin using the stale proof (accepted — stale sig verifies)")

    try:
        merchant.deposit(state.coin_y)
    except DoubleSpendDetected as event:
        print("merchant's deposit collided: DoubleSpendDetected at the broker")
        verdict = adjudicate_double_deposit(
            event,
            owner.owned[state.coin_y].relinquishments,
            net.params,
            net.judge,
        )
        print(f"adjudication: role={verdict.role!r} culprit={verdict.culprit!r}")
        print(f"reason: {verdict.reason}")
        print(f"judge openings performed: {net.judge.openings_performed} (exactly the culprit's signature)")

        # Justice, final act: the convicted member is expelled from the
        # group; every future holder operation is impossible for them.
        net.judge.expel(verdict.culprit)
        print(f"\n{verdict.culprit!r} expelled from the group "
              f"(roster now {net.judge.member_count()} members); "
              "they can no longer spend, renew, or deposit any coin")


def main() -> None:
    net = WhoPayNetwork(params=PARAMS_TEST_512, enable_detection=True, dht_size=6)
    real_time_owner_fraud(net)
    deposit_time_holder_fraud(net)


if __name__ == "__main__":
    main()
