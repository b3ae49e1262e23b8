"""Overlap-smoke asserts: under `--overlap 2` every level of the trace
holds two ExchangeStart/ExchangeWait span pairs per rank — the chunk
count took effect, it was not silently downgraded to the one-chunk
exchange every run performs."""

import json

for name in ("overlap-1d.jsonl", "overlap-2d.jsonl"):
    lines = [json.loads(l) for l in open(name)]
    header, spans = lines[0], lines[1:]
    assert header["type"] == "header" and header["ranks"] == 4, header
    starts = [s for s in spans if s["kind"] == "ExchangeStart"]
    waits = [s for s in spans if s["kind"] == "ExchangeWait"]
    assert starts, f"{name}: no ExchangeStart spans — pipeline never ran"
    assert waits, f"{name}: no ExchangeWait spans — pipeline never ran"
    # Starts and waits pair up per rank, and every pair is ordered.
    for rank in range(header["ranks"]):
        s = sorted(x["start_ns"] for x in starts if x["rank"] == rank)
        w = sorted(x["start_ns"] for x in waits if x["rank"] == rank)
        assert len(s) == len(w) > 0, f"{name}: rank {rank} unpaired"
        levels = sum(1 for x in spans if x["kind"] == "Level" and x["rank"] == rank)
        assert len(s) == 2 * levels, \
            f"{name}: rank {rank} ran {len(s)} exchanges over {levels} levels, not 2 per level"
        assert all(a <= b for a, b in zip(s, w)), \
            f"{name}: rank {rank} wait before its start"
    print(f"{name}: {len(starts)} start/wait pairs across {header['ranks']} ranks")
