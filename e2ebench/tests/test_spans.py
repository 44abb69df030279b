"""Trace wrappers: installed around public callables, removed cleanly."""

import repro.xmlstream.parser as parser_module
import repro.xpush.machine as machine_module
from repro import XPushMachine, XPushOptions
from spans import Tracer


def test_spans_nest_and_wrappers_come_off():
    original = parser_module.parse_into
    original_method = vars(XPushMachine)["filter_stream"]
    # Without value precomputation every new text value asks the index.
    options = XPushOptions(top_down=True, precompute_values=False)
    machine = XPushMachine.from_xpath({"o1": "/a[b = 1]", "o2": "/a[c]"}, options)
    tracer = Tracer()
    tracer.install()
    try:
        assert parser_module.parse_into is not original
        assert machine_module.parse_into is parser_module.parse_into
        answers = machine.filter_stream("<a><b>1</b></a>")
    finally:
        tracer.uninstall()
    assert answers == [frozenset({"o1"})]
    assert parser_module.parse_into is original
    assert machine_module.parse_into is original
    assert vars(XPushMachine)["filter_stream"] is original_method

    by_name = {span[1]: span for span in tracer.spans}
    outer = by_name["xpush.filter_stream"]
    inner = by_name["xmlstream.parse_into"]
    assert inner[4] == outer[0]  # parse_into runs inside filter_stream
    keys = tracer.keys()
    # every span is keyed by the call into the library it served
    assert {keys[span[0]] for span in tracer.spans} == {outer[0]}
    assert keys[by_name["afa.index.lookup"][0]] == outer[0]
    totals = tracer.totals()
    entry = totals["xpush.filter_stream"]
    assert entry["calls"] == 1
    assert 0 <= entry["self"] <= entry["total"]
    assert entry["total"] - entry["self"] >= totals["xmlstream.parse_into"]["total"] * 0.999


def test_nothing_recorded_after_uninstall():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    XPushMachine.from_xpath({"o1": "/a"}).filter_stream("<a/>")
    assert tracer.spans == []
