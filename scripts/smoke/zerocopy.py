"""Zerocopy-smoke asserts: every wire byte moved as a loan (none copied)
and the span telemetry ledgers them. (The corrupt-grid half of the
variant has its own asserts in zerocopy_chaos.py.)"""

import json
import re


def wire_line(path):
    m = re.search(
        r"wire: loaned_bytes (\d+) copied_bytes (\d+)",
        open(path).read(),
    )
    assert m, f"{path}: no wire: ledger line in the bfs report"
    return int(m.group(1)), int(m.group(2))


loaned, copied = wire_line("zerocopy-report.txt")
assert loaned > 0 and copied == 0, \
    f"every wire byte crosses as a loan, got {loaned} B loaned / {copied} B copied"

lines = [json.loads(l) for l in open("zerocopy-1d.jsonl")]
header, spans = lines[0], lines[1:]
assert header["type"] == "header" and header["ranks"] == 4, header
for s in spans:
    assert "loaned" in s and s["loaned"] <= s["wire"], s
span_loaned = sum(
    s["loaned"] for s in spans
    if s["kind"] in ("Collective", "ExchangeStart")
)
assert span_loaned > 0, "no span carried loaned bytes"
print(f"report: {loaned} B loaned / {copied} B copied; "
      f"spans ledger {span_loaned} B loaned")
