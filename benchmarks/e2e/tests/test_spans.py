"""Span arithmetic and the wrap/restore discipline."""

import asyncio
import threading
import types

import spans


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def _by_name(recorder):
    return {span[1]: span for span in recorder.spans}


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def leaf():
        clock.tick(3.0)

    def hot():
        clock.tick(0.5)

    leaf_w = recorder.wrap(leaf, "leaf")
    hot_w = recorder.wrap(hot, "hot", fold=True)

    def parent():
        clock.tick(1.0)
        leaf_w()
        hot_w()
        hot_w()
        clock.tick(2.0)

    with recorder.span("root"):
        recorder.wrap(parent, "parent")()
        clock.tick(4.0)

    by_name = _by_name(recorder)
    _id, _name, start, end, parent_id, _tid, self_s = by_name["parent"]
    assert end - start == 7.0  # 1 + 3 + 0.5 + 0.5 + 2
    assert self_s == 3.0  # folded children subtract too
    assert parent_id == by_name["root"][0]
    assert by_name["leaf"][4] == by_name["parent"][0]
    assert by_name["leaf"][6] == 3.0
    assert by_name["root"][6] == 4.0
    totals = recorder.totals()
    assert totals["hot"] == {"count": 2, "total_s": 1.0, "self_s": 1.0}
    # the ledger adds up: self times sum to the root's duration
    assert sum(entry["self_s"] for entry in totals.values()) == 11.0


def test_folded_parent_is_reduced_by_its_children():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    inner = recorder.wrap(lambda: clock.tick(2.0), "inner", fold=True)

    def outer():
        clock.tick(1.0)
        inner()

    recorder.wrap(outer, "outer", fold=True)()
    totals = recorder.totals()
    assert totals["outer"] == {"count": 1, "total_s": 3.0, "self_s": 1.0}
    assert totals["inner"]["self_s"] == 2.0


def test_self_time_is_never_negative():
    class Backwards(FakeClock):
        """A child that appears longer than its parent (clock skew)."""

        def __init__(self):
            super().__init__()
            self.reads = iter([0.0, 0.0, 5.0, 1.0])

        def __call__(self):
            return next(self.reads)

    recorder = spans.SpanRecorder(clock=Backwards())
    child = recorder.wrap(lambda: None, "child")
    recorder.wrap(child, "parent")()
    assert all(span[6] >= 0.0 for span in recorder.spans)
    assert _by_name(recorder)["parent"][6] == 0.0


def test_children_on_another_thread_do_not_subtract():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    other = recorder.wrap(lambda: clock.tick(5.0), "other")

    def parent():
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrap(parent, "parent")()
    by_name = _by_name(recorder)
    assert by_name["parent"][6] == 5.0  # all of its wall time is its own
    assert by_name["other"][4] == -1  # a root on its own thread
    assert by_name["other"][5] != by_name["parent"][5]


def test_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def boom():
        clock.tick(1.0)
        raise ValueError("expected")

    wrapped = recorder.wrap(boom, "boom", fold=True)
    with recorder.span("root"):
        for _ in range(3):
            try:
                wrapped()
            except ValueError:
                pass
        clock.tick(1.0)
    assert recorder.totals()["boom"]["count"] == 3
    assert _by_name(recorder)["root"][6] == 1.0


def test_coroutines_get_a_wall_accumulator_only():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    async def serve():
        clock.tick(2.0)
        return "done"

    wrapped = recorder.wrap(serve, "serve")
    assert asyncio.run(wrapped()) == "done"
    assert recorder.spans == []
    assert recorder.totals()["serve"] == {
        "count": 1, "total_s": 2.0, "self_s": 0.0,
    }


def test_probe_counts_at_the_boundary():
    recorder = spans.SpanRecorder()
    wrapped = recorder.wrap(
        lambda data: data.upper(), "write", fold=True,
        probe_name="bytes", probe=lambda args, result: len(args[0]),
    )
    assert wrapped("abc") == "ABC"
    wrapped("de")
    assert recorder.probes == {"bytes": 5}


def _snapshot(table):
    """Every attribute the table can touch, before patching."""
    seen = []
    for target in table:
        resolved = spans._resolve(target)
        if resolved is None:
            continue
        owner, attribute, original = resolved
        if isinstance(owner, type):
            sites = [(owner, attribute)]
        else:
            sites = spans._binding_sites(original)
        seen.extend((o, a, vars(o)[a]) for o, a in sites)
    return seen


def test_wrap_then_restore_leaves_every_attribute_identical():
    import layers
    import repro.tenancy  # noqa: F401  (so every row's module is loaded)
    import repro.wire.delivery  # noqa: F401

    before = _snapshot(layers.PATCH_TABLE)
    assert before
    patcher = spans.Patcher(spans.SpanRecorder(), layers.PATCH_TABLE)
    assert patcher.missing == []
    for _ in range(2):  # install/restore may alternate
        patcher.install()
        assert any(
            vars(owner)[attribute] is not original
            for owner, attribute, original in before
        )
        patcher.restore()
        for owner, attribute, original in before:
            assert vars(owner)[attribute] is original


def test_from_imports_are_rebound_and_restored():
    import repro.wire.client
    import repro.wire.codec
    import repro.wire.server

    original = repro.wire.codec.decode_frame
    table = [spans.Target("x", "repro.wire.codec", "decode_frame", fold=True)]
    with spans.Patcher(spans.SpanRecorder(), table):
        wrapper = repro.wire.codec.decode_frame
        assert wrapper is not original
        assert repro.wire.server.decode_frame is wrapper
        assert repro.wire.client.decode_frame is wrapper
    for module in (repro.wire.codec, repro.wire.server, repro.wire.client):
        assert module.decode_frame is original


def test_deleted_names_are_listed_not_fatal():
    table = [
        spans.Target("a", "repro.no_such_module", "f"),
        spans.Target("b", "repro.core.server", "NoSuchClass.method"),
        spans.Target("c", "repro.core.server", "GroupKeyServer.no_such"),
        spans.Target("d", "repro.core.server", "GroupKeyServer.rekey"),
    ]
    patcher = spans.Patcher(spans.SpanRecorder(), table)
    assert patcher.missing == [
        "repro.no_such_module:f",
        "repro.core.server:NoSuchClass.method",
        "repro.core.server:GroupKeyServer.no_such",
    ]
    from repro.core.server import GroupKeyServer

    original = vars(GroupKeyServer)["rekey"]
    with patcher:
        assert isinstance(vars(GroupKeyServer)["rekey"], types.FunctionType)
        assert vars(GroupKeyServer)["rekey"] is not original
    assert vars(GroupKeyServer)["rekey"] is original


def test_inherited_methods_are_patched_where_defined():
    from repro.fastpath.session import ArrayRekeySession
    from repro.transport.session import RekeySession

    table = [
        spans.Target("s", "repro.fastpath.session", "ArrayRekeySession.run")
    ]
    assert "run" not in vars(ArrayRekeySession)
    original = vars(RekeySession)["run"]
    with spans.Patcher(spans.SpanRecorder(), table):
        assert vars(RekeySession)["run"] is not original
        assert "run" not in vars(ArrayRekeySession)
    assert vars(RekeySession)["run"] is original
