"""The layer ledger: which public calls are timed, and what is reported.

``PATCH_TABLE`` names every call the traced run wraps; ``PER_LAYER``
names every per-layer metric and where its value comes from.  Both are
data: a later commit that deletes a class makes the row *missing* (its
metrics read 0 and the row is listed in ``bench.missing_layers``), not
an error.  Module paths are the program's own, so a metric name starts
with the module it measures.
"""

from __future__ import annotations

from spans import Target


def _written(args, _result):
    return len(args[2])  # Filesystem.write(self, handle, data)


def _updated_knodes(_args, batch):
    return batch.subtree.n_updated_keys


def _parity_rows(_args, rows):
    return len(rows)  # parity() -> one row per parity packet


def _parity_rows_stacked(_args, blocks):
    return sum(len(rows) for rows in blocks)  # parity_blocks() -> per block


_T = Target

PATCH_TABLE = (
    # intake
    _T("service.daemon.intake", "repro.service.daemon",
       "RekeyDaemon.submit_join", fold=True),
    _T("service.daemon.intake", "repro.service.daemon",
       "RekeyDaemon.submit_leave", fold=True),
    _T("core.server.request", "repro.core.server",
       "GroupKeyServer.request_join", fold=True),
    _T("core.server.request", "repro.core.server",
       "GroupKeyServer.request_leave", fold=True),
    # the interval
    _T("service.daemon.run_interval", "repro.service.daemon",
       "RekeyDaemon.run_interval"),
    _T("service.members.register", "repro.service.members",
       "MemberFleet.register", fold=True),
    _T("service.members.evict", "repro.service.members",
       "MemberFleet.evict", fold=True),
    # persistence: WAL, the storage seam under it, snapshots
    _T("service.wal.append", "repro.service.wal",
       "WriteAheadLog.append", fold=True),
    _T("service.wal.compact", "repro.service.wal", "WriteAheadLog.compact"),
    _T("chaos.seams.fsync", "repro.chaos.seams",
       "Filesystem.fsync", fold=True),
    _T("chaos.seams.fsync", "repro.chaos.seams",
       "Filesystem.fsync_dir", fold=True),
    _T("chaos.seams.write", "repro.chaos.seams", "Filesystem.write",
       fold=True, probe_name="chaos.seams.write_bytes", probe=_written),
    _T("chaos.seams.replace", "repro.chaos.seams",
       "Filesystem.replace", fold=True),
    _T("keytree.persistence.save", "repro.keytree.persistence",
       "save_server"),
    # key-server CPU: marking, keygen, assignment, encrypt, sign
    _T("keytree.marking.apply", "repro.keytree.marking",
       "MarkingAlgorithm.apply",
       probe_name="keytree.marking.updated_knodes", probe=_updated_knodes),
    _T("keytree.marking.needs", "repro.keytree.marking",
       "BatchResult.needs_by_user"),
    _T("keytree.marking.needs", "repro.fastpath.marking",
       "ArrayBatchResult.needs_by_user"),
    _T("crypto.keys.keygen", "repro.crypto.keys",
       "KeyFactory.new_key", fold=True),
    _T("rekey.assignment.assign", "repro.rekey.assignment",
       "UserOrientedKeyAssignment.assign"),
    _T("rekey.message.build", "repro.rekey.message",
       "RekeyMessageBuilder.build"),
    _T("crypto.cipher.encrypt", "repro.crypto.cipher",
       "XorStreamCipher.encrypt_key", fold=True),
    _T("crypto.signer.sign", "repro.crypto.signer", "SignatureScheme.sign"),
    # FEC
    _T("fec.rse.encode", "repro.fec.rse", "_RSECoderBase.parity",
       probe_name="fec.rse.parity_packets", probe=_parity_rows),
    # (the base class's parity_blocks is a loop over parity(); wrapping
    # it too would count its rows twice)
    _T("fec.rse.encode", "repro.fec.rse", "RSECoder.parity_blocks",
       probe_name="fec.rse.parity_packets", probe=_parity_rows_stacked),
    _T("fec.rse.encode", "repro.fec.gf256", "gf_encode_stacked"),
    _T("fec.rse.decode", "repro.fec.rse", "_RSECoderBase.decode",
       fold=True),
    # delivery: backends, the session, the scheduler, absorption
    _T("service.transports.deliver", "repro.service.transports",
       "SessionDelivery.deliver"),
    _T("service.transports.deliver", "repro.service.transports",
       "DirectDelivery.deliver"),
    _T("transport.session.run", "repro.transport.session",
       "RekeySession.run"),
    _T("transport.server.plan_round", "repro.transport.server",
       "ServerTransport.plan_round"),
    _T("fastpath.absorb.relocate", "repro.fastpath.absorb",
       "FleetAbsorber.relocate_fleet"),
    _T("fastpath.absorb.absorb", "repro.fastpath.absorb",
       "FleetAbsorber.absorb", fold=True),
    _T("core.member.absorb", "repro.core.member",
       "GroupMember.absorb_encryptions", fold=True),
    _T("core.member.absorb", "repro.core.member",
       "GroupMember.process_enc_packet", fold=True),
    _T("crypto.cipher.decrypt", "repro.crypto.cipher",
       "XorStreamCipher.decrypt_key", fold=True),
    # wire plane
    _T("wire.codec.encode", "repro.wire.codec", "encode_frame", fold=True),
    _T("wire.codec.decode", "repro.wire.codec", "decode_frame", fold=True),
    _T("wire.delivery.deliver", "repro.wire.delivery",
       "WireDelivery.deliver"),
    _T("wire.server.deliver_wall", "repro.wire.server",
       "WireServer.deliver"),
    # tenancy
    _T("tenancy.daemon.tick", "repro.tenancy.daemon",
       "MultiGroupDaemon.tick"),
    _T("tenancy.scheduler.plan", "repro.tenancy.scheduler",
       "DeadlineScheduler.due", fold=True),
    _T("tenancy.scheduler.plan", "repro.tenancy.scheduler",
       "DeadlineScheduler.plan"),
    _T("tenancy.scheduler.plan", "repro.tenancy.scheduler",
       "estimate_cost", fold=True),
    _T("tenancy.quotas.admit", "repro.tenancy.quotas",
       "AdmissionController.admit", fold=True),
)

#: span families whose summed self time the acceptance criteria quote
FAMILIES = {
    "delivery": (
        "service.transports.", "transport.", "fastpath.absorb.",
        "core.member.", "fec.rse.", "crypto.cipher.decrypt",
    ),
    "persistence": (
        "service.wal.", "chaos.seams.", "keytree.persistence.",
    ),
    "wire": ("wire.",),
}


def _self_ms(span, better="lower"):
    return ("ms", better, ("self_ms", span))


def _calls(span):
    return ("count", "lower", ("calls", span))


def _probe(name):
    return ("count", "lower", ("probe", name))


def _run(key, unit="count", better="lower"):
    return (unit, better, ("run", key))


def _bench(key, unit="ratio"):
    return (unit, "lower", ("bench", key))


#: name -> (unit, better, source).  ``self_ms`` = mean self time per
#: unit of the span; ``calls`` / ``probe`` = mean per unit; ``run`` = a
#: figure the workload reads off the program's own return values;
#: ``bench`` = the harness's trust figures.
PER_LAYER = {
    "service.daemon.intake_ms": _self_ms("service.daemon.intake"),
    "core.server.request_ms": _self_ms("core.server.request"),
    "service.daemon.run_interval_self_ms": _self_ms(
        "service.daemon.run_interval"
    ),
    "service.daemon.interval_ms_p90": _run("interval_ms_p90", "ms"),
    "service.members.register_ms": _self_ms("service.members.register"),
    "service.members.evict_ms": _self_ms("service.members.evict"),
    "service.members.registrations": _calls("service.members.register"),
    "service.members.former_members": _run("former_members"),
    "service.wal.append_ms": _self_ms("service.wal.append"),
    "service.wal.appends": _calls("service.wal.append"),
    "service.wal.compact_ms": _self_ms("service.wal.compact"),
    "chaos.seams.fsync_ms": _self_ms("chaos.seams.fsync"),
    "chaos.seams.fsyncs": _calls("chaos.seams.fsync"),
    "chaos.seams.write_ms": _self_ms("chaos.seams.write"),
    "chaos.seams.write_bytes": _probe("chaos.seams.write_bytes"),
    "chaos.seams.replace_ms": _self_ms("chaos.seams.replace"),
    "chaos.seams.replaces": _calls("chaos.seams.replace"),
    "keytree.persistence.save_ms": _self_ms("keytree.persistence.save"),
    "keytree.persistence.snapshot_bytes": _run("snapshot_bytes"),
    "keytree.marking.apply_ms": _self_ms("keytree.marking.apply"),
    "keytree.marking.needs_ms": _self_ms("keytree.marking.needs"),
    "keytree.marking.updated_knodes": _probe(
        "keytree.marking.updated_knodes"
    ),
    "crypto.keys.keygen_ms": _self_ms("crypto.keys.keygen"),
    "crypto.keys.keys_generated": _calls("crypto.keys.keygen"),
    "rekey.assignment.assign_ms": _self_ms("rekey.assignment.assign"),
    "rekey.assignment.enc_packets": _run("enc_packets"),
    "rekey.message.build_self_ms": _self_ms("rekey.message.build"),
    "crypto.cipher.encrypt_ms": _self_ms("crypto.cipher.encrypt"),
    "crypto.cipher.encryptions": _calls("crypto.cipher.encrypt"),
    "crypto.cipher.encryptions_per_request": _run(
        "encryptions_per_request", "ratio"
    ),
    "crypto.signer.sign_ms": _self_ms("crypto.signer.sign"),
    "fec.rse.encode_ms": _self_ms("fec.rse.encode"),
    "fec.rse.parity_packets": _probe("fec.rse.parity_packets"),
    "fec.rse.decode_ms": _self_ms("fec.rse.decode"),
    "fec.rse.decodes": _calls("fec.rse.decode"),
    "transport.session.run_ms": _self_ms("transport.session.run"),
    "transport.session.rounds": _run("rounds"),
    "transport.session.first_round_nacks": _run("first_round_nacks"),
    "transport.session.recovery_rounds_mean": _run("recovery_rounds_mean"),
    "transport.session.unicast_share": _run("unicast_share", "ratio"),
    "transport.session.in_deadline_share": _run(
        "in_deadline_share", "ratio", "higher"
    ),
    "transport.server.plan_round_ms": _self_ms(
        "transport.server.plan_round"
    ),
    "fastpath.absorb.relocate_ms": _self_ms("fastpath.absorb.relocate"),
    "fastpath.absorb.absorb_ms": _self_ms("fastpath.absorb.absorb"),
    "fastpath.absorb.absorbs": _calls("fastpath.absorb.absorb"),
    "core.member.absorb_ms": _self_ms("core.member.absorb"),
    "crypto.cipher.decrypt_ms": _self_ms("crypto.cipher.decrypt"),
    "crypto.cipher.decryptions": _calls("crypto.cipher.decrypt"),
    "service.transports.deliver_self_ms": _self_ms(
        "service.transports.deliver"
    ),
    "wire.codec.encode_ms": _self_ms("wire.codec.encode"),
    "wire.codec.decode_ms": _self_ms("wire.codec.decode"),
    "wire.codec.frames_encoded": _calls("wire.codec.encode"),
    "wire.codec.frames_decoded": _calls("wire.codec.decode"),
    "wire.delivery.deliver_ms": _self_ms("wire.delivery.deliver"),
    "wire.server.deliver_wall_ms": ("ms", "lower", (
        "wall_ms", "wire.server.deliver_wall"
    )),
    "wire.server.datagrams_sent": _run("datagrams_sent"),
    "wire.server.data_dropped": _run("data_dropped"),
    "wire.server.feedback_retries": _run("feedback_retries"),
    "wire.server.announce_retries": _run("announce_retries"),
    "wire.server.rounds": _run("wire_rounds"),
    "tenancy.daemon.tick_self_ms": _self_ms("tenancy.daemon.tick"),
    "tenancy.scheduler.plan_ms": _self_ms("tenancy.scheduler.plan"),
    "tenancy.scheduler.ran": _run("ran"),
    "tenancy.scheduler.deferred": _run("deferred"),
    "tenancy.quotas.admit_ms": _self_ms("tenancy.quotas.admit"),
    "tenancy.quotas.shed": _run("shed"),
    "bench.trace_overhead_share": _bench("trace_overhead_share"),
    "bench.unattributed_share": _bench("unattributed_share"),
    "bench.ledger_gap_share": _bench("ledger_gap_share"),
    "bench.missing_layers": _bench("missing_layers", "count"),
}


def family_self_s(totals, prefixes):
    """Summed self time of every span whose name starts with a prefix."""
    return sum(
        entry["self_s"]
        for name, entry in totals.items()
        if name.startswith(prefixes)
    )


def layer_values(totals, probes, units, run_counts, bench):
    """Every ``PER_LAYER`` metric as a number (0 where the layer did
    not run on this workload or no longer exists)."""
    out = {}
    for name, (_unit, _better, (kind, key)) in PER_LAYER.items():
        if kind == "self_ms":
            value = totals.get(key, {}).get("self_s", 0.0) * 1e3 / units
        elif kind == "wall_ms":
            value = totals.get(key, {}).get("total_s", 0.0) * 1e3 / units
        elif kind == "calls":
            value = totals.get(key, {}).get("count", 0) / units
        elif kind == "probe":
            value = probes.get(key, 0) / units
        elif kind == "run":
            value = run_counts.get(key, 0)
        else:
            value = bench.get(key, 0)
        out[name] = value
    return out
