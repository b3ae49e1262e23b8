"""Chaos-smoke asserts: every injected fault detected with a typed
root-cause report naming the injected rank — zero untyped-watchdog
escapes, zero cells where the fault never fired."""

import json

doc = json.load(open("chaos_smoke.json"))
cells = doc["cells"]
assert cells, "chaos sweep produced no cells"
assert doc["total_cells"] == len(cells)
escapes = [c for c in cells if not c["typed"]]
assert not escapes, f"untyped escapes: {escapes}"
unnamed = [c for c in cells if not c["named_rank"]]
assert not unnamed, f"reports missing the injected rank: {unnamed}"
assert doc["untyped_watchdogs"] == 0, doc
assert doc["completed"] == 0, "some faults never fired"
assert doc["typed_rate"] == 1.0, doc["typed_rate"]
# Panic and fail-stop must never fall through to the last-resort
# comm watchdog: panics carry their own payload, fail-stops
# are named by the verify watchdog.
for c in cells:
    if c["kind"] == "panic":
        assert c["detection"] == "injected-panic", c
    if c["kind"] == "failstop":
        assert c["detection"] in ("verify-watchdog", "injected-failstop"), c
    if c["kind"] == "corrupt":
        assert c["detection"] == "verify-corruption", c
    assert c["collective"], f"no collective named: {c}"
kinds = {c["kind"] for c in cells}
assert kinds == {"panic", "failstop", "delay", "corrupt"}, kinds
print(f"{len(cells)} cells, all typed, all named the injected rank")
