"""
Collapsing a 5-second label stream to one label per window
==========================================================

Profiling works on coarse windows (2, 5, or 10 minutes), each reduced
to a single label. Frequency alone would erase rare-but-important
activities: a sip of water takes seconds but matters more than the
half hour of sitting around it. A priority table lets those labels win
their window; pure frequency decides the rest, and ties go to the
activity whose first bout started last.
"""

from homeactivity import labelling

table = labelling.load_default_priorities()
print("default priorities (1 wins):")
for name, rank in table.items():
    print(f"  {rank}  {name}")

cases = [
    ["Walking Outside"] * 5,
    ["Sitting in Hall"] * 3 + ["Kitchen Activity", "Drinking Activity"],
    ["Sitting in Hall"] * 2 + ["Kitchen Activity"] * 2 + ["Walking Outside"],
]
print("\nfive 2-minute labels -> one 10-minute label:")
for labels in cases:
    label, method = labelling.label_window(labels, table)
    print(f"  {labels}\n    -> {label}  ({method})")

# The same reduction applied to a raw tick stream: windowize slices the
# timeline into spans and fills coverage holes with NoData.
timeline = [(i * 5_000, "Sitting in Hall") for i in range(48)]
timeline += [(600_000 + i * 5_000, "Drinking Activity") for i in range(6)]
timeline += [(630_000 + i * 5_000, "Sitting in Hall") for i in range(42)]
timeline += [(1_080_000 + i * 5_000, "Walking Outside") for i in range(24)]

print("\n2-minute windows over a sitting stretch with one sip in it:")
for w in labelling.windowize(timeline, 2, table):
    print(f"  [{w.start_ts:>7}, {w.end_ts:>7}) {w.label:<18} ({w.method})")
