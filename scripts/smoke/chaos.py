"""Chaos-smoke asserts: every injected fault detected with a typed
root-cause report naming the injected rank — zero untyped-watchdog
escapes, zero cells where the fault never fired — on both sweeps: the
default 1D/2D grid and the 1D topdown/hybrid slice."""

import json

for path in ("chaos_smoke.json", "chaos_smoke_1d.json"):
    doc = json.load(open(path))
    cells = doc["cells"]
    assert cells, f"{path}: chaos sweep produced no cells"
    assert doc["total_cells"] == len(cells)
    escapes = [c for c in cells if not c["typed"]]
    assert not escapes, f"{path}: untyped escapes: {escapes}"
    unnamed = [c for c in cells if not c["named_rank"]]
    assert not unnamed, f"{path}: reports missing the injected rank: {unnamed}"
    assert doc["untyped_watchdogs"] == 0, doc
    assert doc["completed"] == 0, f"{path}: some faults never fired"
    assert doc["typed_rate"] == 1.0, doc["typed_rate"]
    # Panics carry their own payload; fail-stops are named by the
    # rendezvous watchdog's typed report; corruption by the checksums an
    # armed plan attaches.
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
    print(f"{path}: {len(cells)} cells, all typed, all named the injected rank")

directions = {c["direction"] for c in json.load(open("chaos_smoke_1d.json"))["cells"]}
assert directions == {"topdown", "hybrid"}, directions
