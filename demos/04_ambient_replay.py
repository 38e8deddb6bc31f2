"""
Replaying an ambient event log into occupancy intervals
=======================================================

Motion sensors and appliance switches publish one JSON line per edge:
a topic like home/pir/Bedroom and a 0/1 payload. This script parses a
short log, turns the edges into half-open intervals, and resolves the
overlaps under the one-occupant assumption, so every instant maps to
exactly one room.
"""

from homeactivity import ambient, occupancy

LOG = """\
{"ts": 0, "topic": "home/pir/bedroom", "payload": "1"}
{"ts": 300000, "topic": "home/pir/kitchen", "payload": "1"}
{"ts": 302000, "topic": "home/pir/Bedroom", "payload": "0"}
{"ts": 420000, "topic": "home/relay/tv", "payload": "1"}
{"ts": 430000, "topic": "home/pir/hall", "payload": "1"}
{"ts": 432000, "topic": "home/pir/Kitchen", "payload": "0"}
{"ts": 900000, "topic": "home/relay/tv", "payload": "0"}
{"ts": 901000, "topic": "home/pir/Hall", "payload": "0"}
"""

events = [ambient.parse_event_line(line) for line in LOG.splitlines()]
print("parsed edges (locations come back in canonical case):")
for e in events[:3]:
    print(f"  {e.ts:>7} {e.topic} -> {int(e.state)}")

# Each (kind, location) pair runs its own 1-opens / 0-closes machine.
rooms = occupancy.detect_room_intervals(events)
print("\nraw room intervals:")
for iv in rooms:
    print(f"  {iv.location:<8} [{iv.start_ts:>7}, {iv.end_ts:>7})")

# The bedroom sensor stayed hot for 2 s after the kitchen one fired;
# the newest motion wins and the stale interval is cut short.
resolved = occupancy.resolve_single_person(rooms)
print("\nsingle-occupant timeline:")
for iv in resolved:
    cut = "  (cut short)" if iv.truncated else ""
    print(f"  {iv.location:<8} [{iv.start_ts:>7}, {iv.end_ts:>7}){cut}")

appliances = occupancy.appliance_intervals(events)
ts = 500_000
print(f"\nat t={ts}: room {occupancy.locate(resolved, ts)}, "
      f"appliances on {sorted(occupancy.active_at(appliances, ts))}")
print(f"at t=1000000: room {occupancy.locate(resolved, 1_000_000)} "
      "(nobody inside, so the default)")
