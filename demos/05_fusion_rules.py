"""
From posture and place to a derived activity, with anomaly flags
================================================================

A posture alone says little: sitting in the hall while the TV is on is
watching TV; lying anywhere for five minutes straight is sleeping, and
sleeping in the kitchen is an anomaly worth reporting. This script
exercises the rule table, the sleep rewrite, and the flag report.
"""

from homeactivity import fusion

rules = fusion.load_default_rules()

print("the same posture in different contexts:")
for basic, room, appliances in [
    ("Sit", "Hall", frozenset()),
    ("Sit", "Hall", frozenset({"tv"})),
    ("Sit", "Kitchen", frozenset({"water_bottle"})),
    ("Jog", "Kitchen", frozenset()),
    ("Lie", "Worship", frozenset()),
]:
    d = rules.fuse(basic, room, appliances)
    extra = "" if d.flag == "Normal" else f"  [{d.flag}]"
    on = f" + {sorted(appliances)}" if appliances else ""
    print(f"  {basic:<5} in {room:<8}{on:<20} -> {d.name}{extra}")

# The classifier never says "Sleep"; lying still for at least five
# minutes of ticks is rewritten to Sleep before fusing. The fuse stage
# carries tick runs (first_ts, end_ts, basic): the ticks at first_ts,
# first_ts + tick_ms, ... before end_ts, so a run is relabelled whole.
tick_ms = 5000
basic_runs = [
    (0, 360_000, "Lie"),            # six minutes
    (360_000, 420_000, "Walk"),
    (420_000, 540_000, "Lie"),      # two minutes
]
with_sleep = fusion.derive_sleep(basic_runs)
print(f"\nsleep rewrite: first run -> {with_sleep[0][2]}, "
      f"short run at the end stays {with_sleep[-1][2]}")

# Fuse each run in the kitchen: one context from time 0 on, so each run
# is asked of the rule table once. Records are NamedTuples: _replace
# makes a changed copy.
derived = fusion.fuse_runs(basic_runs, [0], [("Kitchen", frozenset())], rules)
first = derived[0][2]
print(f"\nfirst run fused: {first.name} [{first.flag}]; "
      f"as Normal: {first._replace(flag='Normal')}")

# Expand to ticks and pull out the non-Normal runs.
ticks = fusion.ticks_of(derived, tick_ms)
print(f"\nflagged stretches in the kitchen ({len(ticks)} ticks):")
for start, end, flag in fusion.flag_stream(ticks, tick_ms=tick_ms):
    print(f"  [{start:>6}, {end:>6}) {flag}")
