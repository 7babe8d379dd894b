import hashlib

import pytest

from ddnsim import (
    Host,
    TraceError,
    TraceEvent,
    parse_trace,
    trace_fingerprint,
    word_from_hex,
)


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


def test_update_unknown_id_is_a_trace_error(host):
    with pytest.raises(TraceError):
        host.apply_event(ev_u(9, line=4))


def test_time_advances_without_dirty_slots(host):
    host.apply_event(TraceEvent("T", ticks=7))
    assert host.now == 7
    assert host.controller.collector.deletions == []


def test_flush_idle_inclusive_boundary(host):
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("T", ticks=9))
    assert host.controller.entry(5) is None  # 9 < threshold 10
    host.apply_event(TraceEvent("T", ticks=1))
    entry = host.controller.entry(5)
    assert entry is not None and entry.valid
    assert entry.written_at == 10
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
    assert host.flush_idle(host.now + 10) == [2, 9]


def test_flush_all_is_immediate(host):
    host.apply_event(ev_w(1))
    host.apply_event(ev_w(2, "0x222"))
    host.apply_event(TraceEvent("F"))
    assert host.controller.entry(1).valid and host.controller.entry(2).valid


def test_invalidate_and_deidentify_events(host):
    deletions = host.controller.collector.deletions
    host.apply_event(ev_w(5))
    host.apply_event(TraceEvent("F"))
    host.apply_event(TraceEvent("I", cache_id=5))
    assert [d.cache_id for d in deletions] == [5]
    assert not host.controller.entry(5).valid
    # DRAM copy is untouched by the NVM-side deletion
    assert host.slots[5].payload == word_from_hex("0xABC", 4, 3)
    host.apply_event(ev_w(6, "0x321"))
    host.apply_event(TraceEvent("F"))
    host.apply_event(TraceEvent("D", cache_id=6))
    assert [d.cache_id for d in deletions] == [5, 6]
    assert not host.controller.entry(6).valid


def test_invalidate_requires_flushed_copy(host):
    host.apply_event(ev_w(5))
    with pytest.raises(TraceError, match="^line 2: no flushed copy for cache id 5$"):
        host.apply_event(TraceEvent("I", cache_id=5, line=2))
    with pytest.raises(TraceError, match="^line 3: no flushed copy for cache id 99$"):
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
    with pytest.raises(TraceError):
        host.apply_event(TraceEvent("I", cache_id=5, line=9))


def test_capacity_eviction_flushes_dirty_lru(make_controller):
    host = Host(make_controller("MarkOnly"), capacity=2, flush_idle_threshold=10)
    host.apply_event(ev_w(1, "0x111"))
    host.apply_event(ev_w(2, "0x222"))
    host.apply_event(ev_w(3, "0x333"))
    assert len(host.slots) == 2
    assert 1 not in host.slots  # LRU tie broken by smallest id
    entry = host.controller.entry(1)
    assert entry is not None and entry.valid
    # the evicted payload is still readable through the NVM copy
    assert host.controller.device.peek_slot(entry.addr) == word_from_hex("0x111", 4, 3)


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
    assert not any(e.valid for e in host.controller.device.cache_table._entries.values())


def test_secure_scrub_through_trace(make_controller):
    controller = make_controller("DdnRandom", t_secure=10)
    host = Host(controller, capacity=8, flush_idle_threshold=1)
    events = parse_trace("W 1 0x0AB\nF\nT 15\n", 4, 3)
    host.run_trace(events)
    assert not controller.entry(1).valid
    (outcome,) = controller.collector.deletions
    assert outcome.tick == 10
    assert outcome.action == "secure-scrub"


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
