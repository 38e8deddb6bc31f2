"""
Day and week profiles: durations, bouts, and routines
=====================================================

Once every 2-minute window carries a label, a day collapses into
per-activity durations and bout counts, and seven consecutive days
into a week profile that shows which activities happen on which days.
This script builds two synthetic days and queries them.
"""

from homeactivity import labelling, profiles

SPAN = 120_000
DAY = 86_400_000
SIX_AM = 21_600_000


def make_day(day_start, plan):
    """plan: list of (label, windows) runs starting at 06:00."""
    windows = []
    t = day_start + SIX_AM
    for label, count in plan:
        for _ in range(count):
            windows.append(labelling.WindowLabel(t, t + SPAN, label, "frequency"))
            t += SPAN
    return windows


weekday = [("Sleeping in Bedroom", 10), ("Kitchen Activity", 5),
           ("Walking Outside", 15), ("Sitting in Hall", 20)]
weekend = [("Sleeping in Bedroom", 25), ("Kitchen Activity", 10),
           ("Watching TV Sitting", 15)]

day0 = profiles.day_profile(make_day(0, weekday))
print(f"{day0.day}: coverage {day0.coverage_ms // 60000} min")
for label, ms in sorted(day0.duration_ms.items(), key=lambda kv: -kv[1]):
    print(f"  {label:<20} {ms // 60000:>3} min in "
          f"{day0.bout_count[label]} bout(s), share {day0.share(label):.2f}")

# A bout is one maximal run; the bouts of the windows inside a clock
# range answer questions like "how long was the morning walk".
morning = [w for w in make_day(0, weekday) if SIX_AM + 30 * 60_000 <= w.start_ts < 8 * 3_600_000]
walks = [b for b in profiles.bouts(morning) if b.label == "Walking Outside"]
print(f"\nwalking between 06:30 and 08:00: {sum(b.duration_ms for b in walks) // 60000} min "
      f"in {len(walks)} bout(s)")

# Seven consecutive days make a week; occurrence marks which days saw
# each activity at all.
days = [
    profiles.day_profile(make_day(d * DAY, weekend if d >= 5 else weekday))
    for d in range(7)
]
week = profiles.week_profile(days)
print("\nweek occurrence grid (Thu 1970-01-01 through Wed):")
for label, grid in sorted(week.occurrence.items()):
    marks = "".join("x" if seen else "." for seen in grid)
    print(f"  {label:<20} {marks}")
