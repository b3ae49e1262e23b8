"""Direction-smoke asserts: per-level direction tags agree across ranks
and the alpha switch actually fired (at least one bottom-up level, each
carrying BitmapBroadcast/BottomUpScan spans)."""

import json

lines = [json.loads(l) for l in open("direction-1d.jsonl")]
header, spans = lines[0], lines[1:]
assert header["type"] == "header" and header["ranks"] == 4, header
dirs = [s for s in spans if s["kind"] == "Direction"]
assert dirs, "no Direction spans — the 1D level loop never ran"
# Every rank tags every level, and the tags agree across ranks:
# the decision is a pure function of allreduced global counts.
schedule = {}
per_rank = {r: {} for r in range(header["ranks"])}
for s in dirs:
    lvl, tag = s["level"], s["detail"]
    assert tag in (0, 1), s
    assert lvl not in per_rank[s["rank"]], f"duplicate tag: {s}"
    per_rank[s["rank"]][lvl] = tag
    assert schedule.setdefault(lvl, tag) == tag, \
        f"ranks disagree on level {lvl}"
for r, tags in per_rank.items():
    assert tags.keys() == schedule.keys(), f"rank {r} missed a level"
bottom_up = [lvl for lvl, tag in schedule.items() if tag == 1]
assert bottom_up, "the alpha switch never fired on R-MAT scale 12"
# Bottom-up levels carry the bitmap broadcast and the owner scan.
bcasts = {s["level"] for s in spans if s["kind"] == "BitmapBroadcast"}
scans = {s["level"] for s in spans if s["kind"] == "BottomUpScan"}
assert bcasts == set(bottom_up), (bcasts, bottom_up)
assert scans == set(bottom_up), (scans, bottom_up)
print(f"{len(schedule)} levels, bottom-up at {sorted(bottom_up)}, "
      f"tags agree across {header['ranks']} ranks")
