"""WhoPay: a scalable and anonymous payment system for P2P environments.

A complete, from-scratch reproduction of Wei, Chen, Smith & Vo (ICDCS 2006 /
UCB/CSD-5-1386): the full cryptographic protocol suite, every substrate it
depends on (signatures, group signatures, DHT, indirection overlay,
in-memory network), the baselines it compares against (PPay, centralized
anonymous transfer, layered coins, PayWord), and the operation-level
simulator that regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import PeerConfig, WhoPayNetwork, PARAMS_TEST_512

    net = WhoPayNetwork(params=PARAMS_TEST_512)
    alice = net.add_peer("alice", PeerConfig(balance=10))
    bob = net.add_peer("bob")
    coin = alice.purchase()          # coins are public keys
    alice.issue("bob", coin.coin_y)  # pay by (semi-anonymous) issue
    bob.deposit(coin.coin_y)         # cash out, anonymously

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    Broker,
    BrokerTopology,
    Clock,
    Coin,
    CoinBinding,
    HeldCoin,
    Judge,
    OwnedCoinState,
    Peer,
    PeerConfig,
    WhoPayNetwork,
)
from repro.crypto.params import PARAMS_1024_160, PARAMS_2048_256, PARAMS_TEST_512, DlogParams
from repro.sim import FastSimulation, SimConfig

__version__ = "1.0.0"

__all__ = [
    "WhoPayNetwork",
    "BrokerTopology",
    "PeerConfig",
    "Peer",
    "Broker",
    "Judge",
    "Clock",
    "Coin",
    "CoinBinding",
    "HeldCoin",
    "OwnedCoinState",
    "DlogParams",
    "PARAMS_TEST_512",
    "PARAMS_1024_160",
    "PARAMS_2048_256",
    "SimConfig",
    "FastSimulation",
    "__version__",
]
