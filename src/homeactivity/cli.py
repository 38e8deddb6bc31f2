"""Command-line entry point exposing every stage and the full pipeline.

Every option is declared once in OPTIONS and every command once in
COMMANDS; the parser, config-key validation, the echoed configuration
and dispatch all come from these two tables. A command with a runner
(`simulate`, `pipeline`) hands it the effective options, then its files;
any other command calls pipeline.stage_<command>(*files, **options), each
option under its OPTIONS name (`--max-gap-ms` is `max_gap_ms=`). No option
restates what the input fixes: `filter` takes the one sample rate of
every log and `classify` a bundle's window length. Option precedence is
flags over config file over built-in defaults; the effective configuration is
echoed to stderr at startup so runs are auditable. All outputs are
deterministic given the same configuration and seed. `pipeline` hands
every table it writes on to the stages that read it (see the pipeline
module), so it reads only its inputs: --script or --inertial, --events
and --model. Without --model it calibrates its centroid model in a
forked child process beside its first stages (simulate.Calibration), and
waits for it before classify.

`python -m homeactivity.cli` and the console script run `entry`, which
exits without the interpreter's last collections of the objects main()
left (gc.freeze); main() itself returns its exit code, for callers in
process.

The option defaults come from `defaults`, so importing this module loads
no NumPy: only the inertial commands (simulate, filter, segment,
features, classify, pipeline) import the numeric modules, when they run,
and the context commands (occupancy, fuse, label, profile, report) run
without them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple
from zoneinfo import ZoneInfo

from . import defaults, fusion, labelling, occupancy, pipeline, tables


class Option(NamedTuple):
    """One option: `--name-with-dashes` on the command line, `name` in a
    config file. A bool option is a flag that can only switch on."""

    type: type
    default: object
    help: str | None = None
    choices: tuple[str, ...] | None = None


OPTIONS = {
    "order": Option(int, defaults.DEFAULT_ORDER),
    "cutoff_hz": Option(float, defaults.DEFAULT_CUTOFF_HZ),
    "max_gap_ms": Option(int, defaults.DEFAULT_MAX_GAP_MS),
    "window_len": Option(int, defaults.DEFAULT_WINDOW_LEN),
    "overlap": Option(float, defaults.DEFAULT_OVERLAP),
    "span": Option(int, 2),
    "timezone": Option(str, "UTC"),
    "sigma": Option(str, "0", "gaussian sigma, scalar or x,y,z"),
    "dropout": Option(float, 0.0),
    "seed": Option(int, 0),
    "tick_ms": Option(int, fusion.DEFAULT_TICK_MS),
    "min_still_ms": Option(int, fusion.DEFAULT_MIN_STILL_MS),
    "days": Option(int, 1),
    "start_day_ms": Option(int, 0),
    "subject": Option(str, "sim"),
    "timeout_ms": Option(int, None),
    "format": Option(str, "json", choices=("json", "csv")),
    "gyro": Option(bool, False),
    "probs": Option(str, None, "also write per-class probabilities (bundle only)"),
    "model": Option(str, None, "centroid or weights JSON"),
    "rules": Option(str, None, "fusion rule CSV"),
    "priorities": Option(str, None, "priority CSV"),
    "script": Option(str, None, "simulate this daily script first"),
    "inertial": Option(str, None, "existing inertial log"),
    "events": Option(str, None, "existing ambient event log"),
}


def _parse_sigma(value: str) -> tuple[float, float, float]:
    parts = [float(p) for p in value.split(",")]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) == 3:
        return tuple(parts)
    raise ValueError(f"sigma must be one value or three, got {value!r}")


def _from_config(path, key: str, value):
    """Convert a config value as the flag converts the same text; a bool
    option takes only true or false, and null means unset."""
    opt = OPTIONS[key]
    if value is None or (opt.type is bool and isinstance(value, bool)):
        return value
    if opt.type is not bool and type(value) in (str, int, float):
        with contextlib.suppress(ValueError):
            converted = opt.type(str(value))
            if opt.choices is None or converted in opt.choices:
                return converted
    if opt.type is bool:
        expected = "true or false"
    else:
        expected = "one of " + ", ".join(opt.choices) if opt.choices else opt.type.__name__
    raise ValueError(f"{path}: {key}: expected {expected}, got {json.dumps(value)}")


def _effective(args: argparse.Namespace, keys) -> dict:
    config = {}
    if args.config:
        config = tables.read_json_object(args.config)
        unknown = set(config) - set(OPTIONS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        config = {k: _from_config(args.config, k, v) for k, v in config.items()}
    eff = {}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        eff[key] = OPTIONS[key].default if value is None else value
    return eff


def _noise(sigma: str, dropout: float, seed: int):
    from . import simulate

    return simulate.NoiseSpec(
        gaussian_sigma=_parse_sigma(sigma), dropout_prob=dropout, seed=seed)


def _with_tables(eff: dict) -> dict:
    """eff with each option that names an input replaced by the loaded object."""
    eff = dict(eff)
    if "rules" in eff:
        path = eff["rules"]
        eff["rules"] = fusion.load_rules(path) if path else fusion.load_default_rules()
    if "priorities" in eff:
        path = eff["priorities"]
        eff["priorities"] = (
            labelling.load_priorities(path) if path else labelling.load_default_priorities()
        )
    if eff.get("model"):
        eff["model"] = pipeline.load_model(eff["model"], eff.get("window_len"))
    if "timezone" in eff:
        try:
            eff["timezone"] = ZoneInfo(eff["timezone"])
        except (KeyError, ValueError):  # ZoneInfoNotFoundError is a KeyError
            raise ValueError(f"unknown time zone {eff['timezone']!r}") from None
    return eff


def _run(name: str, eff: dict, *files, **given) -> dict:
    """Command `name` over its files (see the module docstring), plus the
    keyword `handed` with which `pipeline` hands its tables on; returns
    what the stage returns. Stages are looked up at call time, so
    wrappers installed on their modules (as the benchmark's tracer does)
    see the call."""
    command = COMMANDS[name]
    if command.run:
        return command.run(eff, *files, **given)
    keys = command.options + command.own
    return getattr(pipeline, f"stage_{name}")(*files, **{key: eff[key] for key in keys},
                                              **given)


def _simulate(eff, script, out, **given) -> dict:
    out = Path(out)
    return pipeline.stage_simulate(
        script, out / "inertial.csv", out / "events.ndjson", out / "truth_derived.csv",
        _noise(eff["sigma"], eff["dropout"], eff["seed"]), eff["rules"], days=eff["days"],
        start_day_ms=eff["start_day_ms"], tick_ms=eff["tick_ms"], subject_id=eff["subject"],
        **given,
    )


def _run_pipeline(eff, out) -> None:
    """The stage commands chained over fixed file names in one directory.
    Each table is handed from the stage that writes it to the stages that
    read it, as it reads back (see the pipeline docstring); each inertial
    series is dropped once its last reader has run. Without --model, the
    centroid calibration begins in a child process once the options pass
    their checks, and runs beside the stages up to features; the run joins it
    after the first of them that it outlives, or waits for it before classify."""
    from . import neural, simulate, timeseries

    eff = {**{key: opt.default for key, opt in OPTIONS.items()}, **eff}
    # Each option is checked by the function that owns its rule, before
    # `out` is made and before the calibrator forks.
    spec = timeseries.FilterSpec(eff["order"], eff["cutoff_hz"])
    spec.design()
    noise = _noise(eff["sigma"], eff["dropout"], eff["seed"])
    timeseries.check_max_gap_ms(eff["max_gap_ms"])
    timeseries.window_hop(eff["window_len"], eff["overlap"])
    occupancy.detect_intervals([], timeout_ms=eff["timeout_ms"])
    fusion.check_tick_ms(eff["tick_ms"])
    fusion.check_min_still_ms(eff["min_still_ms"])
    labelling.windowize([], eff["span"])
    if not (eff["script"] or (eff["inertial"] and eff["events"])):
        raise pipeline.PipelineError("pipeline needs --script, or both --inertial and --events")
    out = Path(out)
    handed = {}  # path -> the script checked here, or a table this run wrote, as read back
    if eff["script"]:
        handed[eff["script"]] = pipeline.simulation_script(
            eff["script"], eff["days"], eff["start_day_ms"], eff["tick_ms"], eff["subject"])
    calibration = None if eff["model"] else simulate.Calibration(
        noise, spec, eff["window_len"], eff["overlap"])
    with calibration or contextlib.nullcontext():
        inertial, events = eff["inertial"], eff["events"]
        if eff["script"]:  # simulate makes `out` once the script passes its checks
            inertial, events = out / "inertial.csv", out / "events.ndjson"
            _run("simulate", eff, eff["script"], out, handed=handed)
        else:
            out.mkdir(parents=True, exist_ok=True)
        if calibration:  # a refused calibration ends the run at the next stage
            calibration.poll()
        _run("filter", eff, inertial, out / "filtered.csv", handed=handed)
        handed.pop(inertial, None)
        if calibration:
            calibration.poll()
        _run("features", eff, out / "filtered.csv", out / "features.csv", handed=handed)
        if calibration:
            eff["model"] = pipeline.stage_calibrate(calibration, out / "centroids.json")["model"]
    source = out / "filtered.csv"  # a bundle's windows
    if isinstance(eff["model"], neural.CentroidModel):
        handed.pop(source, None)
        source = out / "features.csv"
    _run("classify", eff, source, out / "basic_windows.csv", handed=handed)
    _run("occupancy", eff, events, out / "intervals.csv", handed=handed)
    _run("fuse", eff, out / "basic_windows.csv", out / "intervals.csv", out / "derived.csv",
         handed=handed)
    _run("label", eff, out / "derived.csv", out / "window_labels.csv", handed=handed)
    _run("profile", eff, out / "window_labels.csv", out / "report.json", handed=handed)


class Command(NamedTuple):
    help: str
    files: dict[str, str | None]  # dest of each required file flag -> help
    options: tuple[str, ...]  # OPTIONS keys, also taken by `pipeline`
    own: tuple[str, ...] = ()  # OPTIONS keys of this command alone
    run: Callable[..., object] | None = None  # see _run


IN_OUT = {"in_path": None, "out": None}

COMMANDS = {
    "simulate": Command(
        "run a daily script into sensor logs", {"script": None, "out": "output directory"},
        ("days", "start_day_ms", "sigma", "dropout", "seed", "rules", "tick_ms", "subject"),
        run=_simulate),
    "filter": Command(
        "gap-repair and low-pass an inertial log", IN_OUT,
        ("order", "cutoff_hz", "max_gap_ms")),
    "segment": Command("write the sliding-window plan", IN_OUT, ("window_len", "overlap")),
    "features": Command(
        "extract per-window feature vectors", IN_OUT, ("window_len", "overlap"), ("gyro",)),
    "classify": Command(
        "label windows with a model file",
        {"in_path": "feature file (centroids) or filtered log (bundle)", "out": None},
        ("model", "overlap"), ("probs",)),
    "occupancy": Command(
        "events to room/appliance intervals", {"events": None, "out": None}, ("timeout_ms",)),
    "fuse": Command(
        "windows + intervals to derived timeline",
        {"windows": "classified windows CSV", "intervals": None, "out": None},
        ("rules", "tick_ms", "min_still_ms")),
    "label": Command(
        "derived timeline to profiling windows", IN_OUT, ("span", "priorities")),
    "profile": Command("window labels to day/week JSON report", IN_OUT, ("timezone",)),
    "report": Command(
        "window labels to json or plot-ready csv", IN_OUT, ("timezone",), ("format",)),
}

# `pipeline` takes every command's options, but not their own.
COMMANDS["pipeline"] = Command(
    "chain every stage into a directory", {"out": "output directory"},
    ("script", "inertial", "events",
     *dict.fromkeys(key for command in COMMANDS.values() for key in command.options)),
    run=_run_pipeline,
)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command `only` alone; its
    usage line still lists every command."""
    parser = argparse.ArgumentParser(
        prog="homeactivity",
        description="Activity recognition pipeline over inertial and ambient sensor logs",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if only is None else (only,):
        command = COMMANDS[name]
        sub = subs.add_parser(name, help=command.help)
        for dest, help_text in command.files.items():
            flag = "--in" if dest == "in_path" else f"--{dest}"
            sub.add_argument(flag, dest=dest, required=True, help=help_text)
        sub.add_argument("--config", help="JSON file of option defaults")
        for key in command.options + command.own:
            opt = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if opt.type is bool:
                sub.add_argument(flag, action="store_const", const=True, help=opt.help)
            else:
                sub.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    command = COMMANDS[args.command]
    try:
        eff = _effective(args, command.options + command.own)
        doc = {"command": args.command, **eff}
        print(f"config: {json.dumps(doc, sort_keys=True)}", file=sys.stderr)
        _run(args.command, _with_tables(eff), *(getattr(args, dest) for dest in command.files))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """Exit with main()'s code. The objects left are frozen first, so the
    interpreter's collections at exit do not walk them; in development
    mode (-X dev) they are not, so that those collections still report an
    object left open."""
    code = main()
    if not sys.flags.dev_mode:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
