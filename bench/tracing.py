"""In-process tracing of one unit of work, from the benchmark's own files.

`Tracer.install()` replaces public functions on the program's modules
with wrappers; `uninstall()` puts the originals back. The program is not
edited. A wrapper either records a span (name, start, end, parent) or,
for calls made once per tick or per window, folds the call into a count
and a total. Spans stay in memory until the run ends. A span's self time
is its duration minus the time of the spans and folded calls inside it.

Only calls made through a module attribute are seen. `simulate` binds
its helpers by name at import, so the filter, segment and feature calls
that centroid calibration makes count as self time of
`simulate.calibrate_centroids`, and the `derive_sleep` call of
`simulate.generate_day` counts under it. Methods are patched on their
class, so `FusionRuleTable.fuse` is seen from every caller, the
simulator's ground truth included.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from homeactivity import (
    ambient,
    features,
    fusion,
    labelling,
    neural,
    occupancy,
    pipeline,
    profiles,
    simulate,
    timeseries,
)

STAGES = ("simulate", "filter", "features", "calibrate", "classify", "occupancy",
          "fuse", "label", "profile", "report")

# (object, attribute, role). Roles: "stage" and "span" record a span,
# "reader" and "writer" record a span plus the bytes of their first
# (path) argument, "fold" records a count and a total only.
TARGETS = [
    *((pipeline, f"stage_{s}", "stage") for s in STAGES if s != "calibrate"),
    (simulate, "calibrate_centroids", "stage"),
    (simulate, "generate_day", "span"),
    (simulate, "load_script", "reader"),
    (pipeline, "ticks_from_windows", "span"),
    (pipeline, "read_basic_windows", "reader"),
    (pipeline, "write_basic_windows", "writer"),
    (pipeline, "_model_format", "reader"),
    (timeseries, "load_inertial", "reader"),
    (timeseries, "write_inertial", "writer"),
    (timeseries, "interpolate_gaps", "span"),
    (timeseries, "butterworth_lowpass", "span"),
    (timeseries, "split_on_gaps", "span"),
    (timeseries, "segment", "span"),
    (features, "extract_all", "span"),
    (features, "write_features", "writer"),
    (features, "read_features", "reader"),
    (neural, "load_bundle", "reader"),
    (neural, "load_centroids", "reader"),
    (neural, "save_centroids", "writer"),
    (neural, "forward_bundle", "fold"),
    (neural.CentroidModel, "classify", "fold"),
    (ambient, "load_events", "reader"),
    (ambient, "write_events", "writer"),
    (occupancy, "detect_intervals", "span"),
    (occupancy, "resolve_single_person", "span"),
    (occupancy, "write_intervals", "writer"),
    (occupancy, "read_intervals", "reader"),
    (occupancy, "locate", "fold"),
    (occupancy, "active_at", "fold"),
    (fusion, "load_rules", "reader"),
    (fusion, "derive_sleep", "span"),
    (fusion, "write_derived", "writer"),
    (fusion, "read_derived", "reader"),
    (fusion.FusionRuleTable, "fuse", "fold"),
    (labelling, "load_priorities", "reader"),
    (labelling, "windowize", "span"),
    (labelling, "write_window_labels", "writer"),
    (labelling, "read_window_labels", "reader"),
    (profiles, "split_days", "span"),
    (profiles, "day_profile", "span"),
    (profiles, "write_report_json", "writer"),
]

# Layer -> (metrics, end-to-end metrics it should move, workloads it is
# mostly on / little on). The per-layer metrics in BENCHMARK.json are
# these, in this order.
LAYERS = {
    "pipeline": (
        [f"pipeline.{s}_s" for s in STAGES]
        + ["pipeline.parse_s", "pipeline.compute_s", "pipeline.format_s",
           "pipeline.bytes_read", "pipeline.bytes_written", "pipeline.reparsed_bytes"],
        "wall_s, peak_rss_mb", "all three workloads"),
    "timeseries": (
        ["timeseries.load_inertial_s", "timeseries.lines_parsed",
         "timeseries.write_inertial_s", "timeseries.lines_written",
         "timeseries.interpolate_gaps_s", "timeseries.butterworth_lowpass_s",
         "timeseries.segment_s", "timeseries.windows"],
        "wall_s, peak_rss_mb",
        "week_pipeline / bundle_classify reads only; context_week none"),
    "features": (
        ["features.extract_all_s", "features.us_per_window", "features.write_features_s",
         "features.read_features_s", "features.windows"],
        "wall_s", "week_pipeline / none elsewhere"),
    "neural": (
        ["neural.load_bundle_s", "neural.forward_bundle_s", "neural.ms_per_window",
         "neural.ms_per_window_in_memory", "neural.windows",
         "neural.centroid_classify_s"],
        "wall_s, setup_s", "bundle_classify / week_pipeline ~1%"),
    "simulate": (
        ["simulate.generate_day_s", "simulate.calibrate_centroids_s"],
        "wall_s", "week_pipeline"),
    "ambient": (
        ["ambient.load_events_s", "ambient.events"],
        "wall_s", "context_week (small)"),
    "occupancy": (
        ["occupancy.detect_intervals_s", "occupancy.intervals", "occupancy.lookup_s",
         "occupancy.lookups", "occupancy.intervals_scanned"],
        "wall_s", "context_week / week_pipeline ~1%"),
    "fusion": (
        ["fusion.rules_fuse_s", "fusion.ticks", "fusion.derive_sleep_s",
         "fusion.read_derived_s", "fusion.write_derived_s",
         "pipeline.ticks_from_windows_s"],
        "wall_s", "context_week / week_pipeline ~1%"),
    "labelling": (
        ["labelling.windowize_s", "labelling.windows", "labelling.read_window_labels_s",
         "labelling.write_window_labels_s"],
        "wall_s", "context_week"),
    "profiles": (
        ["profiles.day_profile_s", "profiles.days", "profiles.write_report_s"],
        "wall_s", "context_week"),
    "cli": (
        ["cli.import_s", "cli.invocations"],
        "setup_s; wall_s on context_week (5 imports)", "all"),
    "host": (
        ["machine.ref_s", "trace.overhead_s", "trace.remainder_s"],
        "none", "all"),
}

def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("us_per_window"):
        return "us"
    if "ms_per_window" in name:
        return "ms"
    return "count"


def per_layer_names() -> list[str]:
    return [m for metrics, _moves, _on in LAYERS.values() for m in metrics]


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


class Tracer:
    """Spans and folded counters of the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child time]
        self.stack = []
        self.folds = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.written = set()
        self._saved = []

    def install(self) -> None:
        for owner, attr, role in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if owner is neural.CentroidModel:
                name = "neural.centroid_classify"
            elif owner is fusion.FusionRuleTable:
                name = "fusion.rules_fuse"
            wrap = self._fold if role == "fold" else self._span
            setattr(owner, attr, wrap(name, role, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a root span of its own."""
        return self._span(name, "root", fn)(*args, **kwargs)

    def _span(self, name, role, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            path = args[0] if role in ("reader", "writer") and args else None
            before = _size(path) if role == "writer" else 0
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, parent, 0.0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
                if parent is not None:
                    spans[parent][4] += end - start
            if role == "reader":
                key = os.path.realpath(path)
                size = _size(path)
                counts["pipeline.bytes_read"] += size
                if key in self.written:
                    counts["pipeline.reparsed_bytes"] += size
            elif role == "writer":
                self.written.add(os.path.realpath(path))
                counts["pipeline.bytes_written"] += _size(path) - before
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _fold(self, name, _role, fn):
        spans, stack, folds, counts = self.spans, self.stack, self.folds, self.counts
        scanned = name in ("occupancy.locate", "occupancy.active_at")

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = folds[name]
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed
                if scanned:
                    counts["occupancy.intervals_scanned"] += len(args[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result) -> None:
        counts = self.counts
        if name == "timeseries.load_inertial":
            counts["timeseries.lines_parsed"] += sum(len(s) for s in result)
        elif name == "timeseries.write_inertial":
            counts["timeseries.lines_written"] += len(args[1])
        elif name == "timeseries.segment":
            counts["timeseries.windows"] += len(result)
        elif name == "features.extract_all":
            counts["features.windows"] += len(result[1])
        elif name == "ambient.load_events":
            counts["ambient.events"] += len(result)
        elif name == "occupancy.write_intervals":
            counts["occupancy.intervals"] += len(args[1])
        elif name == "pipeline.stage_fuse":
            counts["fusion.ticks"] += result["ticks"]
        elif name == "labelling.windowize":
            counts["labelling.windows"] += len(result)
        elif name == "profiles.day_profile":
            counts["profiles.days"] += 1

    def totals(self):
        """name -> (calls, total s, self s) over spans and folds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _parent, child in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        for name, (calls, total) in self.folds.items():
            out[name] = [calls, total, total]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (the host and cli
        metrics are added by the caller)."""
        roles = {f"{o.__name__.rsplit('.', 1)[-1]}.{a}": r for o, a, r in TARGETS}
        t = self.totals()

        def total(name):
            return t[name][1] if name in t else 0.0

        m = {f"pipeline.{s}_s": total(f"pipeline.stage_{s}") for s in STAGES}
        m["pipeline.calibrate_s"] = total("simulate.calibrate_centroids")
        parse = sum(v[2] for k, v in t.items() if roles.get(k) == "reader")
        fmt = sum(v[2] for k, v in t.items() if roles.get(k) == "writer")
        m["pipeline.parse_s"] = parse
        m["pipeline.format_s"] = fmt
        m["pipeline.compute_s"] = total("cli.main") - parse - fmt
        for key in ("pipeline.bytes_read", "pipeline.bytes_written",
                    "pipeline.reparsed_bytes", "timeseries.lines_parsed",
                    "timeseries.lines_written", "timeseries.windows", "features.windows",
                    "ambient.events", "occupancy.intervals", "occupancy.intervals_scanned",
                    "fusion.ticks", "labelling.windows", "profiles.days"):
            m[key] = self.counts.get(key, 0)
        for name in ("timeseries.load_inertial", "timeseries.write_inertial",
                     "timeseries.interpolate_gaps", "timeseries.butterworth_lowpass",
                     "timeseries.segment", "features.extract_all",
                     "features.write_features", "features.read_features",
                     "neural.load_bundle", "neural.centroid_classify",
                     "simulate.generate_day", "simulate.calibrate_centroids",
                     "ambient.load_events", "occupancy.detect_intervals",
                     "fusion.rules_fuse", "fusion.derive_sleep", "fusion.read_derived",
                     "fusion.write_derived", "pipeline.ticks_from_windows",
                     "labelling.windowize", "labelling.read_window_labels",
                     "labelling.write_window_labels", "profiles.day_profile"):
            m[f"{name}_s"] = total(name)
        m["profiles.write_report_s"] = total("profiles.write_report_json")
        windows = m["features.windows"]
        m["features.us_per_window"] = m["features.extract_all_s"] / windows * 1e6 if windows else 0.0
        forward = t.get("neural.forward_bundle", [0, 0.0, 0.0])
        m["neural.forward_bundle_s"] = forward[1]
        m["neural.windows"] = forward[0]
        m["neural.ms_per_window"] = forward[1] / forward[0] * 1e3 if forward[0] else 0.0
        lookups = [t.get(n, [0, 0.0, 0.0]) for n in ("occupancy.locate", "occupancy.active_at")]
        m["occupancy.lookups"] = sum(v[0] for v in lookups)
        m["occupancy.lookup_s"] = sum(v[1] for v in lookups)
        stage_names = {f"pipeline.stage_{s}" for s in STAGES} | {"simulate.calibrate_centroids"}
        covered = sum(end - start for name, start, end, parent, _c in self.spans
                      if name in stage_names and parent is not None
                      and self.spans[parent][0] == "cli.main")
        m["trace.remainder_s"] = total("cli.main") - covered
        return m
