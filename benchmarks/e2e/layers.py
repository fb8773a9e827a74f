"""Which public callables are traced, and how spans become per-layer metrics.

Layers are the ``src/repro`` packages on the measured path.  A span is named
``<layer>.<callable>``; a layer's self time is the self time of all its
spans, and ``<layer>.share`` is that over the traced wall of the timed
windows.  Because self times partition every root span, the shares of one
workload add up to 1 minus what the harness spent outside any span
(``trace.unattributed_share``).

Conventions:

* ``*.ms_per_op`` is a callable's *inclusive* time and ``*.self_ms_per_op``
  its self time, both per timed end-to-end operation;
* the codec sizing each message for the transport's byte counters is
  ``messages`` time (it is the codec doing the work), not ``net`` time;
* a ``Peer`` method's self time (``core.peer_api``) is Peer logic plus
  whatever it calls that is not wrapped here.
"""

from __future__ import annotations

import os

from tracer import Aggregate, Tracer

#: (name, unit, better) of every per-layer metric, in report order.  The
#: ``op.*`` rows are the Peer API layer seen from outside: per-operation
#: latency, taken from the *untraced* half of the traced run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("op.purchase.p50_ms", "ms", "lower"),
    ("op.issue.p50_ms", "ms", "lower"),
    ("op.transfer.p50_ms", "ms", "lower"),
    ("op.renew.p50_ms", "ms", "lower"),
    ("op.dt_transfer.p50_ms", "ms", "lower"),
    ("op.dt_renew.p50_ms", "ms", "lower"),
    ("op.sync.p50_ms", "ms", "lower"),
    ("op.deposit.p50_ms", "ms", "lower"),
    ("op.holder.p90_ms", "ms", "lower"),
    ("crypto.group_sign.calls_per_op", "count", "lower"),
    ("crypto.group_sign.ms_per_op", "ms", "lower"),
    ("crypto.group_verify.calls_per_op", "count", "lower"),
    ("crypto.group_verify.ms_per_op", "ms", "lower"),
    ("crypto.group_batch_verify.sigs_per_call", "count", "higher"),
    ("crypto.group_batch_verify.ms_per_op", "ms", "lower"),
    ("crypto.dsa_sign.calls_per_op", "count", "lower"),
    ("crypto.dsa_sign.ms_per_op", "ms", "lower"),
    ("crypto.dsa_verify.calls_per_op", "count", "lower"),
    ("crypto.dsa_verify.ms_per_op", "ms", "lower"),
    ("crypto.dsa_batch_verify.sigs_per_call", "count", "higher"),
    ("crypto.dsa_batch_verify.ms_per_op", "ms", "lower"),
    ("crypto.schnorr.ms_per_op", "ms", "lower"),
    ("crypto.keygen.calls_per_op", "count", "lower"),
    ("crypto.keygen.ms_per_op", "ms", "lower"),
    ("crypto.multi_exp.calls_per_op", "count", "lower"),
    ("crypto.mod_pow.calls_per_op", "count", "lower"),
    ("crypto.self_ms_per_op", "ms", "lower"),
    ("crypto.share", "ratio", "lower"),
    ("messages.encode.calls_per_op", "count", "lower"),
    ("messages.encode.ms_per_op", "ms", "lower"),
    ("messages.decode.calls_per_op", "count", "lower"),
    ("messages.decode.ms_per_op", "ms", "lower"),
    ("messages.seal.self_ms_per_op", "ms", "lower"),
    ("messages.self_ms_per_op", "ms", "lower"),
    ("messages.share", "ratio", "lower"),
    ("core.peer_api.self_ms_per_op", "ms", "lower"),
    ("core.peer_handle.calls_per_op", "count", "lower"),
    ("core.peer_handle.self_ms_per_op", "ms", "lower"),
    ("core.broker_handle.calls_per_op", "count", "lower"),
    ("core.broker_handle.self_ms_per_op", "ms", "lower"),
    ("core.xshard.calls_per_op", "count", "lower"),
    ("core.handoffs_per_op", "count", "lower"),
    ("core.share", "ratio", "lower"),
    ("store.append.calls_per_op", "count", "lower"),
    ("store.append.ms_per_op", "ms", "lower"),
    ("store.append_many.records_per_call", "count", "higher"),
    ("store.append_many.ms_per_op", "ms", "lower"),
    ("store.fsyncs_per_op", "count", "lower"),
    ("store.fsync.ms_per_op", "ms", "lower"),
    ("store.journal_bytes_per_op", "B", "lower"),
    ("store.recover.ms", "ms", "lower"),
    ("store.recover.records_per_s", "1/s", "higher"),
    ("store.share", "ratio", "lower"),
    ("net.rpc_call.calls_per_op", "count", "lower"),
    ("net.rpc.self_ms_per_op", "ms", "lower"),
    ("net.transport.messages_per_op", "count", "lower"),
    ("net.transport.bytes_per_op", "B", "lower"),
    ("net.transport.self_ms_per_op", "ms", "lower"),
    ("net.retries_per_op", "count", "lower"),
    ("net.share", "ratio", "lower"),
    ("pipeline.verify.ms_per_op", "ms", "lower"),
    ("pipeline.verify.jobs_per_call", "count", "higher"),
    ("pipeline.preverified_ratio", "ratio", "higher"),
    ("pipeline.engine.self_ms_per_op", "ms", "lower"),
    ("pipeline.loadgen.ms_per_op", "ms", "lower"),
    ("pipeline.nonces_pooled_per_op", "count", "lower"),
    ("pipeline.share", "ratio", "lower"),
    ("dht.publish.calls_per_op", "count", "lower"),
    ("dht.publish.ms_per_op", "ms", "lower"),
    ("dht.fetch.calls_per_op", "count", "lower"),
    ("dht.fetch.ms_per_op", "ms", "lower"),
    ("dht.messages_per_lookup", "count", "lower"),
    ("dht.share", "ratio", "lower"),
    ("sim.build_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.payments_made", "count", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.share", "ratio", "lower"),
    ("trace.host_slowdown", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

LAYERS = ("crypto", "messages", "core", "store", "net", "pipeline", "dht", "sim")


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' public callables (undone by ``tracer.uninstall``)."""
    from repro.core import protocol
    from repro.core.broker import Broker
    from repro.core.peer import Peer
    from repro.crypto import dsa, fastexp, group_signature, schnorr
    from repro.crypto.keys import KeyPair
    from repro.dht.binding_store import BindingStore
    from repro.messages import codec, envelope
    from repro.net.node import Node
    from repro.net.rpc import RpcClient
    from repro.net.transport import Transport
    from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
    from repro.sim.engine import FastSimulation
    from repro.store.journal import DurableStore
    from repro.store.recovery import RecoveryManager

    def items(position: int):
        return lambda args, _kwargs: len(args[position])

    # crypto
    tracer.wrap_function(group_signature, "group_sign", "crypto.group_sign")
    tracer.wrap_function(group_signature, "group_verify", "crypto.group_verify")
    tracer.wrap_function(group_signature, "group_batch_verify", "crypto.group_batch_verify", items(1))
    tracer.wrap_function(dsa, "dsa_sign", "crypto.dsa_sign")
    tracer.wrap_function(dsa, "dsa_sign_batch", "crypto.dsa_sign")
    tracer.wrap_function(dsa, "dsa_verify", "crypto.dsa_verify")
    tracer.wrap_function(dsa, "dsa_batch_verify", "crypto.dsa_batch_verify", items(0))
    tracer.wrap_method(dsa.DsaNoncePool, "ensure", "crypto.nonce_pool")
    for name in ("schnorr_prove", "schnorr_verify", "schnorr_batch_verify"):
        tracer.wrap_function(schnorr, name, "crypto.schnorr")
    tracer.wrap_method(KeyPair, "generate", "crypto.keygen")
    tracer.wrap_function(fastexp, "is_member", "crypto.is_member")
    tracer.count_function(fastexp, "mod_pow", "crypto.mod_pow")
    tracer.count_function(fastexp, "multi_exp", "crypto.multi_exp")

    # messages
    tracer.wrap_function(codec, "encode", "messages.encode")
    tracer.wrap_function(codec, "decode", "messages.decode")
    tracer.wrap_function(envelope, "seal", "messages.seal")
    tracer.wrap_function(envelope, "group_seal", "messages.seal")

    # core: the Peer API is the outermost layer; Broker.handle and the
    # inherited Node.handle are the two server sides.
    for method in ("purchase", "issue", "transfer", "transfer_via_broker", "renew",
                   "rejoin", "sync_with_broker", "deposit"):
        tracer.wrap_method(Peer, method, f"core.peer_api.{method}")

    def broker_side(args: tuple, _kwargs: dict) -> str:
        return "core.xshard" if args[1] == protocol.XSHARD_PREPARE else "core.broker_handle"

    def node_side(args: tuple, _kwargs: dict) -> str | None:
        if isinstance(args[0], Broker):
            return None  # Broker.handle calls up into Node.handle: one span
        return "core.peer_handle" if isinstance(args[0], Peer) else "dht.node_handle"

    tracer.wrap_method(Broker, "handle", broker_side)
    tracer.wrap_method(Node, "handle", node_side)

    # store
    tracer.wrap_method(DurableStore, "append", "store.append")
    tracer.wrap_method(DurableStore, "append_many", "store.append_many", items(1))
    tracer.wrap_function(os, "fsync", "store.fsync")
    tracer.wrap_method(RecoveryManager, "recover_broker", "store.recover")

    # net
    tracer.wrap_method(RpcClient, "call", "net.rpc_call")
    tracer.wrap_method(
        Transport,
        "request",
        lambda args, _kwargs: "net.transport.dht" if args[3].startswith("chord.") else "net.transport",
    )

    # pipeline
    tracer.wrap_method(VerificationPool, "verify", "pipeline.verify", items(1))
    tracer.wrap_method(ThroughputEngine, "run", "pipeline.engine")
    tracer.wrap_method(LoadGenerator, "make_round", "pipeline.loadgen")

    # dht
    tracer.wrap_method(BindingStore, "publish", "dht.publish")
    tracer.wrap_method(BindingStore, "fetch", "dht.fetch")

    # sim: opaque from outside — one span around the whole run.
    tracer.wrap_method(FastSimulation, "run", "sim.run")


def _group(summary: dict[str, Aggregate], *prefixes: str) -> Aggregate:
    """Totals of every span whose name is, or starts with, one of ``prefixes``."""
    out = Aggregate()
    for name, agg in summary.items():
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes):
            out.calls += agg.calls
            out.total += agg.total
            out.self_time += agg.self_time
            out.weight += agg.weight
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    timed_roots: tuple[str, ...],
    ops: int,
    traced_wall: float,
    slowdown: float,
    counters: dict[str, float],
) -> dict[str, float]:
    """Every metric of one traced pass that is read off the spans.

    ``timed_roots`` name the root spans that make up the timed windows,
    ``ops`` and ``traced_wall`` are the operations and the timed seconds of
    the pass, ``slowdown`` is how slow the host ran during it (``ms`` values
    are divided by it: see hostspeed.py; shares need no correction), and
    ``counters`` are the deltas of the program's own counters over it.
    """
    timed = tracer.summarize(timed_roots)
    counts = tracer.count_totals(timed_roots)
    everything = tracer.summarize()

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def ms_per_op(seconds: float) -> float:
        return _ratio(seconds * 1e3 / slowdown, ops)

    out: dict[str, float] = {}
    for name in ("group_sign", "group_verify", "dsa_sign", "dsa_verify"):
        agg = _group(timed, f"crypto.{name}")
        out[f"crypto.{name}.calls_per_op"] = per_op(agg.calls)
        out[f"crypto.{name}.ms_per_op"] = ms_per_op(agg.total)
    for name in ("group_batch_verify", "dsa_batch_verify"):
        agg = _group(timed, f"crypto.{name}")
        out[f"crypto.{name}.sigs_per_call"] = _ratio(agg.weight, agg.calls)
        out[f"crypto.{name}.ms_per_op"] = ms_per_op(agg.total)
    out["crypto.schnorr.ms_per_op"] = ms_per_op(_group(timed, "crypto.schnorr").total)
    keygen = _group(timed, "crypto.keygen")
    out["crypto.keygen.calls_per_op"] = per_op(keygen.calls)
    out["crypto.keygen.ms_per_op"] = ms_per_op(keygen.total)
    out["crypto.multi_exp.calls_per_op"] = per_op(counts.get("crypto.multi_exp", 0))
    out["crypto.mod_pow.calls_per_op"] = per_op(counts.get("crypto.mod_pow", 0))

    for name in ("encode", "decode"):
        agg = _group(timed, f"messages.{name}")
        out[f"messages.{name}.calls_per_op"] = per_op(agg.calls)
        out[f"messages.{name}.ms_per_op"] = ms_per_op(agg.total)
    out["messages.seal.self_ms_per_op"] = ms_per_op(_group(timed, "messages.seal").self_time)

    out["core.peer_api.self_ms_per_op"] = ms_per_op(_group(timed, "core.peer_api").self_time)
    for name in ("peer_handle", "broker_handle"):
        agg = _group(timed, f"core.{name}")
        out[f"core.{name}.calls_per_op"] = per_op(agg.calls)
        out[f"core.{name}.self_ms_per_op"] = ms_per_op(agg.self_time)
    out["core.xshard.calls_per_op"] = per_op(_group(timed, "core.xshard").calls)
    out["core.handoffs_per_op"] = per_op(counters.get("handoffs", 0))

    append = _group(timed, "store.append")
    out["store.append.calls_per_op"] = per_op(append.calls)
    out["store.append.ms_per_op"] = ms_per_op(append.total)
    append_many = _group(timed, "store.append_many")
    out["store.append_many.records_per_call"] = _ratio(append_many.weight, append_many.calls)
    out["store.append_many.ms_per_op"] = ms_per_op(append_many.total)
    fsync = _group(timed, "store.fsync")
    out["store.fsyncs_per_op"] = per_op(fsync.calls)
    out["store.fsync.ms_per_op"] = ms_per_op(fsync.total)
    out["store.journal_bytes_per_op"] = per_op(counters.get("journal_bytes", 0))

    out["net.rpc_call.calls_per_op"] = per_op(_group(timed, "net.rpc_call").calls)
    out["net.rpc.self_ms_per_op"] = ms_per_op(_group(timed, "net.rpc_call").self_time)
    out["net.transport.messages_per_op"] = per_op(counters.get("messages", 0))
    out["net.transport.bytes_per_op"] = per_op(counters.get("bytes", 0))
    out["net.transport.self_ms_per_op"] = ms_per_op(_group(timed, "net.transport").self_time)
    out["net.retries_per_op"] = per_op(counters.get("retries", 0))

    verify = _group(timed, "pipeline.verify")
    out["pipeline.verify.ms_per_op"] = ms_per_op(verify.total)
    out["pipeline.verify.jobs_per_call"] = _ratio(verify.weight, verify.calls)
    out["pipeline.preverified_ratio"] = _ratio(
        counters.get("preverified", 0), counters.get("pool_jobs", 0)
    )
    out["pipeline.engine.self_ms_per_op"] = ms_per_op(_group(timed, "pipeline.engine").self_time)
    # Client-side signing runs outside the timed window, under its own root.
    out["pipeline.loadgen.ms_per_op"] = ms_per_op(_group(everything, "pipeline.loadgen").total)
    out["pipeline.nonces_pooled_per_op"] = per_op(counters.get("nonces_pooled", 0))

    publish = _group(timed, "dht.publish")
    fetch = _group(timed, "dht.fetch")
    out["dht.publish.calls_per_op"] = per_op(publish.calls)
    out["dht.publish.ms_per_op"] = ms_per_op(publish.total)
    out["dht.fetch.calls_per_op"] = per_op(fetch.calls)
    out["dht.fetch.ms_per_op"] = ms_per_op(fetch.total)
    # One request and one reply per traced transport call on a chord.* kind.
    out["dht.messages_per_lookup"] = _ratio(
        2 * _group(timed, "net.transport.dht").calls, publish.calls + fetch.calls
    )

    attributed = 0.0
    for layer in LAYERS:
        self_time = _group(timed, layer).self_time
        attributed += self_time
        out[f"{layer}.share"] = _ratio(self_time, traced_wall)
        if layer in ("crypto", "messages"):
            out[f"{layer}.self_ms_per_op"] = ms_per_op(self_time)
    out["trace.unattributed_share"] = 1.0 - _ratio(attributed, traced_wall) if traced_wall else 0.0
    return out
