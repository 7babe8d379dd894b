import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnsim import (
    Host,
    TraceError,
    TraceEvent,
    parse_config_text,
    parse_trace,
    run,
    trace_fingerprint,
    word_from_hex,
)
from ddnsim.host import Trace

from conftest import build_controller


def ev_w(cache_id, payload="0xABC", line=0):
    return TraceEvent("W", cache_id=cache_id, payload=word_from_hex(payload, 4, 3), line=line)


def ev_u(cache_id, payload="0x123", line=0):
    return TraceEvent("U", cache_id=cache_id, payload=word_from_hex(payload, 4, 3), line=line)


@pytest.fixture
def host(make_controller):
    return Host(make_controller("DdnRandom"), capacity=64, flush_idle_threshold=10)


# -- parsing ----------------------------------------------------------------


def test_parse_trace_grammar():
    text = "\n".join(
        [
            "# a comment",
            "",
            "W 5 0xABC",
            "T 3",
            "F",
            "U 5 0x123",
            "I 5",
            "D 5",
        ]
    )
    events = parse_trace(text, 4, 3)
    assert [e.kind for e in events] == ["W", "T", "F", "U", "I", "D"]
    assert events[0].payload == word_from_hex("0xABC", 4, 3)
    assert events[1].ticks == 3
    assert events[3].cache_id == 5
    assert events[0].line == 3


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("Q 1", "unknown event"),
        ("W 5", "needs <id> <hexpayload>"),
        ("W x 0xABC", "decimal integer"),
        ("W -1 0xABC", "decimal integer"),
        ("W 5 0xAB", "bits"),
        ("W 5 0xZZZ", "hex"),
        ("U 9 0x111", "before any W"),
        ("T x", "tick count"),
        ("T", "tick count"),
        ("F 1", "no arguments"),
        ("I", "needs <id>"),
    ],
)
def test_parse_trace_rejects_malformed_lines(line, fragment):
    with pytest.raises(TraceError) as err:
        parse_trace(f"# leading comment\n{line}\n", 4, 3)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_parse_trace_u_after_w_is_fine():
    events = parse_trace("W 9 0xABC\nU 9 0x111\n", 4, 3)
    assert [e.kind for e in events] == ["W", "U"]


def test_parse_trace_gives_every_event_of_an_id_one_int(tmp_path, capsys):
    """Every event of a written id carries the ``int`` its first ``W`` parsed,
    under any spelling of the id, so a run holds one object per id. A ``U``
    before any ``W`` is refused at its line, and so is an ``I`` of an id never
    written, which ends the CLI with exit 3 and the replay's message."""
    from ddnsim.cli import main

    text = "W 700 0x000ABC\nF\nU 0700 0x000DEF\nW 700 0x000FFF\nF\nD 00700\nI 900\n"
    events = parse_trace(text.removesuffix("I 900\n"), 8, 3)
    ids = [event.cache_id for event in events if event.kind != "F"]
    assert ids == [700, 700, 700, 700]
    assert all(cache_id is ids[0] for cache_id in ids)
    with pytest.raises(TraceError, match="^line 7: no valid flushed copy for cache id 900$"):
        parse_trace(text, 8, 3)
    with pytest.raises(TraceError, match="^line 2: U for cache id 700 before any W$"):
        parse_trace("F\nU 0700 0x000DEF\nW 700 0x000ABC\n", 8, 3)
    trace = tmp_path / "unwritten.trace"
    trace.write_text(text)
    assert main(["--trace", str(trace), "--seed", "1"]) == 3
    assert capsys.readouterr() == (
        "", "ddnsim: trace error: line 7: no valid flushed copy for cache id 900\n")


def test_trace_fingerprint_sees_events_not_layout():
    def fingerprint(text):
        return trace_fingerprint(parse_trace(text, 4, 3))

    base = fingerprint("W 1 0xABC\nF\nT 3\nU 1 0x123\nI 1\n")
    same_events = [
        "W 1 0xabc\nF\nT 3\nU 1 0X123\nI 1\n",  # hex case
        "  W  1\t0xABC \nF\n T 3\nU 1   0x123\nI 1",  # spacing
        "# header\n\nW 1 0xABC\n# flush\nF\n\nT 3\nU 1 0x123\n\nI 1\n",  # comments, blanks
    ]
    assert [fingerprint(text) for text in same_events] == [base] * len(same_events)
    other_events = [
        "W 1 0xABD\nF\nT 3\nU 1 0x123\nI 1\n",  # last cell 4 -> 5
        "W 2 0xABC\nF\nT 3\nU 2 0x123\nI 2\n",  # id
        "W 1 0xABC\nF\nT 4\nU 1 0x123\nI 1\n",  # T count
        "W 1 0xABC\nT 3\nF\nU 1 0x123\nI 1\n",  # order
    ]
    fingerprints = {fingerprint(text) for text in other_events}
    assert len(fingerprints) == len(other_events) and base not in fingerprints



# (kind, cache_id, payload hex, ticks, line) of each event of TRACE_TEXT
TRACE_TEXT = "# header\n\nW 5 0xABC\nW 6 0x001\n  \nT 3\nF\n# a\n# b\nU 5 0x123\nI 6\nD 5\nT 0\n"
TRACE_EVENTS = [("W", 5, "0xABC", None, 3), ("W", 6, "0x001", None, 4), ("T", None, None, 3, 6),
                ("F", None, None, None, 7), ("U", 5, "0x123", None, 10), ("I", 6, None, None, 11),
                ("D", 5, None, None, 12), ("T", None, None, 0, 13)]


def _fields(event):
    return event.kind, event.cache_id, event.payload, event.ticks, event.line


def _expected(rows):
    return [(kind, cid, None if hex_ is None else word_from_hex(hex_, 4, 3), ticks, line)
            for kind, cid, hex_, ticks, line in rows]


def test_a_trace_reads_like_the_list_of_its_events():
    """Int indexes, negative ones too, give the events a list would, slices
    give a ``Trace`` of the events the list's slice holds, and an index past
    either end is an ``IndexError``. Only the comment and blank lines break
    the line count, so the line map holds three pairs."""
    trace = parse_trace(TRACE_TEXT, 4, 3)
    expected = _expected(TRACE_EVENTS)
    assert len(trace) == len(expected) and [_fields(e) for e in trace] == expected
    assert trace.line_map == [(0, 3), (2, 6), (4, 10)]
    for index in range(-len(expected), len(expected)):
        assert _fields(trace[index]) == expected[index]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            trace[index]
    for part in (slice(None), slice(2, None), slice(None, -1), slice(-3, -1), slice(1, None, 3),
                 slice(6, 1, -2), slice(None, None, -1), slice(20, 30), slice(-20, 2)):
        sliced = trace[part]
        assert type(sliced) is Trace and [_fields(e) for e in sliced] == expected[part]
    assert trace[0].cache_id is trace[4].cache_id is trace[6].cache_id


def test_a_trace_rebuilt_from_its_events_replays_to_the_same_report():
    """Replaying the parsed columns, a ``Trace`` rebuilt from the events they
    read back as, the plain list of those events, or a one-pass iterator over
    them, which ``run`` converts once for all four policies, gives the same
    bytes."""
    cfg = parse_config_text("seed = 3\nt_secure = 20\nflush_idle_threshold = 2\n"
                            "cells_per_cache_slot = 4\n")
    writes = [f"W {i} 0x{37 * i:03X}\n" + "\n" * (i % 2) for i in range(30)]
    text = ("# idle flush, deletions, secure scrubs\n" + "".join(writes[:20])
            + "T 3\nI 0\nD 1\n# update\nU 2 0x123\nF\nI 3\nT 30\n\n"
            + "".join(writes[20:]) + "F\nD 20\nI 21\nT 5\n")
    trace = parse_trace(text, 4, 3)
    rebuilt = Trace(iter(trace))
    assert ((rebuilt.kinds, rebuilt.args, rebuilt.payloads, rebuilt.line_map)
            == (trace.kinds, trace.args, trace.payloads, trace.line_map))
    reports = [run(cfg, events) for events in (trace, rebuilt, list(trace), iter(trace))]
    assert len({(r.csv_text, r.jsonl_text) for r in reports}) == 1
    assert reports[0].jsonl_text.count("\n") > 40


@example(gaps=[0])
@example(gaps=[3, 0, 0])  # a first event after a leading comment block
@example(gaps=[0, 2, 0, 1])  # a first event on line 1
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_each_event_and_replay_error_names_its_line(gaps):
    """Before each event, ``gap`` comment, blank or space-only lines; one
    more event, an ``I`` of an id written but never flushed, fails in the
    replay. Each event reads back its own line, the line map holds a pair
    exactly where a gap breaks the count, and the error names the I's line."""
    fillers, lines, numbers = ["# note", "", "   "], [], []
    for i, gap in enumerate(gaps + [gaps[0]]):
        lines += [fillers[(i + k) % 3] for k in range(gap)]
        lines.append(f"W {i} 0x00{i % 8}" if i < len(gaps) else "I 0")
        numbers.append(len(lines))
    trace = parse_trace("\n".join(lines), 4, 3)
    assert [event.line for event in trace] == numbers
    assert [first for first, _ in trace.line_map] == [i for i, gap in enumerate(gaps + [gaps[0]])
                                                     if gap]
    host = Host(build_controller("MarkOnly"), capacity=64, flush_idle_threshold=10)
    with pytest.raises(TraceError, match=f"^line {numbers[-1]}: no valid flushed copy for "
                                         "cache id 0$"):
        host.run_trace(trace)


def test_trace_fingerprint_is_the_sha256_of_the_canonical_text():
    """One line per event, the payload as the hex of its cell levels."""
    events = parse_trace("W 1 0xABC\nF\nT 3\nU 1 0x123\nI 1\nD 1\n", 4, 3)
    canonical = "W 1 05020704\nF\nT 3\nU 1 00040403\nI 1\nD 1\n"
    assert trace_fingerprint(events) == hashlib.sha256(canonical.encode()).hexdigest()
    assert trace_fingerprint([]) == hashlib.sha256(b"").hexdigest()

# -- protocol ---------------------------------------------------------------


def test_flush_then_update_emits_exactly_one_request(host):
    deletions = host.controller.collector.deletions
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("F"))
    host.apply_event(ev_u(5))
    assert [d.cache_id for d in deletions] == [5]
    # the flushed copy is already invalid; a second update emits nothing
    host.apply_event(ev_u(5, "0x456"))
    assert len(deletions) == 1
    # but a re-flush arms it again
    host.apply_event(TraceEvent("F"))
    host.apply_event(ev_u(5, "0x789"))
    assert len(deletions) == 2


def test_update_without_flush_emits_nothing(host):
    host.apply_event(ev_w(5))
    host.apply_event(ev_u(5))
    assert host.controller.collector.deletions == []


def test_hand_built_update_of_an_unwritten_id_is_a_write(host):
    """parse_trace refuses such a U; the host takes it as a W of the id."""
    host.apply_event(ev_u(9, line=4))
    assert host.slots[9].payload == word_from_hex("0x123", 4, 3) and 9 in host._dirty
    host.apply_event(TraceEvent("F"))
    assert host.controller.device.cache_table.is_valid(9)
    assert host.controller.collector.deletions == []


def test_time_advances_without_dirty_slots(host):
    host.apply_event(TraceEvent("T", ticks=7))
    assert host.now == 7
    assert host.controller.collector.deletions == []


def test_flush_idle_inclusive_boundary(make_controller):
    # Secure mode, with no scrub due in the test, records each copy's flush tick.
    host = Host(make_controller("DdnRandom", t_secure=1000), capacity=64,
                flush_idle_threshold=10)
    table = host.controller.device.cache_table
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("T", ticks=9))
    assert table.slot(5) is None  # 9 < threshold 10
    host.apply_event(TraceEvent("T", ticks=1))
    assert table.slot(5) is not None and table.is_valid(5)
    assert host._resident[5] == 10
    assert 5 not in host._dirty


def test_clean_slots_never_reflushed(host):
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("F"))
    programs = host.controller.device.ledger.wr_us
    host.apply_event(TraceEvent("T", ticks=50))
    assert host.controller.device.ledger.wr_us == programs


def test_idle_flush_order_is_ascending(host):
    host.apply_event(ev_w(9))
    host.apply_event(ev_w(2, "0x222"))
    host.apply_event(TraceEvent("T", ticks=10))
    table = host.controller.device.cache_table
    assert [table.slot(2), table.slot(9)] == [0, 1]  # first-fit: 2 was flushed first


def test_flush_all_is_immediate(host):
    host.apply_event(ev_w(1))
    host.apply_event(ev_w(2, "0x222"))
    host.apply_event(TraceEvent("F"))
    assert host.controller.device.cache_table.is_valid(1) and host.controller.device.cache_table.is_valid(2)


def test_invalidate_and_deidentify_events(host):
    deletions = host.controller.collector.deletions
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("F"))
    host.apply_event(TraceEvent("I", cache_id=5))
    assert [d.cache_id for d in deletions] == [5]
    assert not host.controller.device.cache_table.is_valid(5)
    # DRAM copy is untouched by the NVM-side deletion
    assert host.slots[5].payload == word_from_hex("0xABC", 4, 3)
    host.apply_event(ev_w(6, "0x321"))
    host.apply_event(TraceEvent("F"))
    host.apply_event(TraceEvent("D", cache_id=6))
    assert [d.cache_id for d in deletions] == [5, 6]
    assert not host.controller.device.cache_table.is_valid(6)


def test_invalidate_requires_flushed_copy(host):
    host.apply_event(ev_w(5))
    with pytest.raises(TraceError, match="^line 2: no valid flushed copy for cache id 5$"):
        host.apply_event(TraceEvent("I", cache_id=5, line=2))
    with pytest.raises(TraceError, match="^line 3: no valid flushed copy for cache id 99$"):
        host.apply_event(TraceEvent("D", cache_id=99, line=3))


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"capacity": 0}, "dram_capacity must be >= 1, got 0"),
        ({"flush_idle_threshold": -1}, "flush_idle_threshold must be >= 0, got -1"),
    ],
)
def test_host_rejects_bad_settings(make_controller, settings, message):
    with pytest.raises(ValueError, match=message):
        Host(make_controller("MarkOnly"), **settings)


def test_double_invalidate_is_rejected(host):
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("F"))
    host.apply_event(TraceEvent("I", cache_id=5))
    with pytest.raises(TraceError, match="^line 9: no valid flushed copy for cache id 5$"):
        host.apply_event(TraceEvent("I", cache_id=5, line=9))


def test_capacity_eviction_flushes_dirty_lru(make_controller):
    host = Host(make_controller("MarkOnly"), capacity=2, flush_idle_threshold=10)
    host.apply_event(ev_w(1, "0x111"))
    host.apply_event(ev_w(2, "0x222"))
    host.apply_event(ev_w(3, "0x333"))
    assert len(host.slots) == 2
    assert 1 not in host.slots  # LRU tie broken by smallest id
    table = host.controller.device.cache_table
    assert table.slot(1) is not None and table.is_valid(1)
    # the evicted payload is still readable through the NVM copy
    assert host.controller.device.peek_slot(table.slot(1)) == word_from_hex("0x111", 4, 3)


def test_update_after_eviction_reinserts_and_invalidates(make_controller):
    host = Host(make_controller("MarkOnly"), capacity=1, flush_idle_threshold=10)
    host.apply_event(ev_w(1, "0x111"))
    host.apply_event(ev_w(2, "0x222"))  # evicts and flushes id 1
    host.apply_event(ev_u(1, "0x123"))
    assert [d.cache_id for d in host.controller.collector.deletions] == [1]
    assert host.slots[1].payload == word_from_hex("0x123", 4, 3)


def test_dram_is_authoritative(host):
    host.apply_event(ev_w(5, "0xAAA"))
    host.apply_event(TraceEvent("F"))
    host.apply_event(ev_u(5, "0xBBB"))
    assert host.slots[5].payload == word_from_hex("0xBBB", 4, 3)
    # the flushed copy went invalid, so DRAM holds the only live payload
    assert host.controller.device.cache_table._slot == {}


def test_secure_scrub_through_trace(make_controller):
    controller = make_controller("DdnRandom", t_secure=10)
    host = Host(controller, capacity=8, flush_idle_threshold=1)
    events = parse_trace("W 1 0x0AB\nF\nT 15\n", 4, 3)
    host.run_trace(events)
    assert not controller.device.cache_table.is_valid(1)
    (outcome,) = controller.collector.deletions
    assert outcome.tick == 10
    assert outcome.action == "secure-scrub"


def test_copies_deleted_by_u_i_or_d_leave_the_secure_queue(make_controller):
    host = Host(make_controller("DdnRandom", t_secure=10), flush_idle_threshold=1000)
    trace = "W 1 0x001\nW 2 0x002\nW 3 0x003\nW 4 0x004\nF\nU 1 0x005\nI 2\nD 3\nT 20\n"
    host.run_trace(parse_trace(trace, 4, 3))
    deletions = [(d.cache_id, d.tick, d.action) for d in host.controller.collector.deletions]
    assert deletions == [(1, 0, "ddn-overwrite"), (2, 0, "ddn-overwrite"),
                         (3, 0, "ddn-overwrite"), (4, 10, "secure-scrub")]
    assert host._resident == {}


def test_deletions_replay_identically(make_controller):
    text = "W 1 0x111\nW 2 0x222\nF\nU 1 0x123\nT 12\nU 2 0x456\nI 1\n"

    def deletions():
        host = Host(make_controller("DdnRandom", seed=3), capacity=8, flush_idle_threshold=5)
        host.run_trace(parse_trace(text, 4, 3))
        return [
            (d.cache_id, d.tick, d.action, d.cost, d.residual_cells)
            for d in host.controller.collector.deletions
        ]

    first = deletions()
    assert len(first) == 3
    assert first == deletions()
