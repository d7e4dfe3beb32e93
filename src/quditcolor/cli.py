"""Command-line front end.

Subcommands: ``solve`` (run a batch, write JSON stats), ``sweep`` (increase
the color count until a conflict-free coloring appears), ``gradcheck``
(verify analytic gradients against finite differences on an instance), and
``info`` (print parsed graph statistics).

Exit codes: 0 success, 1 invalid configuration, failed check or a batch
in which every run diverged, 2 I/O or parse failure, 3 a worker process
died or raised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .energy import draw_couplings
from .gradient import CostWorkspace, check_gradient
from .graph import (FORMATS, GraphParseError, GraphWarning, load_graph,
                    read_utf8, select_fixed_node)
from .harness import (DivergedError, WorkerError, hp_to_dict, run_batch,
                      setting_value, stats_to_dict, sweep_colors,
                      write_trajectory_csv)
from .qudits import build_ops
from .solver import SETTING_TYPES, SETTINGS, Hyperparameters

WORKERS_ENV = "QUDITCOLOR_WORKERS"


class ConfigError(ValueError):
    """Raised for invalid configuration values or unknown keys."""


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return value in ("1", "true", "yes")


def _parse_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"expected {' or '.join(FORMATS)}, got {text!r}")
    return text


# a declared type -> the parser of a setting's text; any other stays text
_TEXT_PARSERS = {int: int, float: float, bool: _parse_bool}
# config-file key -> parser of its text; a setting's is its flag's type
_CONFIG_PARSERS = {
    "graph": str,
    "format": _parse_format,
    "workers": int,
    "out": str,
    "trajectories": str,
    "coloring": str,
    **{name: f.metadata["flag"].get("type",
                                    _TEXT_PARSERS.get(SETTING_TYPES[f.name], str))
       for name, f in SETTINGS.items()},
}


def _default_workers() -> int:
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV} must be a positive integer, got {text!r}") from None


# A "#" starts a comment at the start of a line or after whitespace, so a
# value such as a path may hold one.
_CONFIG_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` file with ``#`` comments."""
    try:
        text = read_utf8(path)
    except UnicodeError as exc:
        raise ConfigError(f"{path}:{exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CONFIG_COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def load_config(args: argparse.Namespace) -> dict:
    """The config file's values and the flags given (flags win), by
    config-file key; ``workers`` is ``$QUDITCOLOR_WORKERS`` (or 1) when
    neither gives it."""
    config = {}
    if getattr(args, "config", None):
        config.update(read_config_file(args.config))
    for key in _CONFIG_PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            config[key] = flag_value
    if "graph" not in config:
        raise ConfigError("an input graph is required (--graph)")
    if "workers" not in config:
        config["workers"] = _default_workers()
    if "colors" not in config:
        raise ConfigError("the number of colors is required (--colors)")
    if config["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {config['workers']}")
    return config


def _colors_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"colors must be an integer, got {text!r}") from None


def _settings_to_hp(given: dict) -> Hyperparameters:
    """The settings in ``given`` by name, each read by its declared parser
    (method qdlqa unless given); warns of each that the method ignores."""
    given = {"method": "qdlqa", **given}
    try:
        hp = Hyperparameters(**{
            f.name: (f.metadata["parse"] or (lambda v: v))(given[name])
            for name, f in SETTINGS.items() if name in given})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for name, f in SETTINGS.items():
        if f.metadata["ignored_by"] == hp.method and getattr(hp, f.name) != f.default:
            print(f"warning: {name} is ignored by method {hp.method}", file=sys.stderr)
    return hp


def _resolved_config_dict(config: dict, hp: Hyperparameters) -> dict:
    """The run's settings, instance (as an absolute path, so that the block
    reads back from any directory) and worker count under their config-file
    keys, in values that a config file reads back; ``format`` only if given."""
    return {**hp_to_dict(hp), "graph": os.path.abspath(config["graph"]),
            **{k: config[k] for k in ("format", "workers") if k in config}}


def _load_graph(path, fmt, fix_strategy):
    """Load an instance, printing each of its ``GraphWarning``s on stderr,
    and resolve its pinned node; returns the graph, its original node ids
    and the pinned node (None for none)."""
    if path is None:
        raise ConfigError("an input graph is required (--graph)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GraphWarning)
        graph, original_ids = load_graph(path, fmt)
    for warning in caught:
        print(f"warning: {path}: {warning.message}", file=sys.stderr)
    try:
        fixed = select_fixed_node(graph, fix_strategy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return graph, original_ids, fixed


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _warn_diverged(records) -> None:
    diverged = sum(r.diverged for r in records)
    if diverged:
        print(f"warning: {diverged} of {len(records)} runs diverged "
              "(non-finite cost)", file=sys.stderr)


def _write_coloring(path, coloring, original_ids) -> None:
    with open(path, "w") as fh:
        for node, color in enumerate(coloring):
            fh.write(f"{original_ids[node]} {int(color)}\n")


def _cmd_solve(args) -> int:
    config = load_config(args)
    hp = _settings_to_hp({**config, "colors": _colors_int(config["colors"])})
    graph, original_ids, _ = _load_graph(config["graph"], config.get("format"),
                                         hp.fix_strategy)
    stats = run_batch(graph, hp, workers=config["workers"],
                      record_trajectories="trajectories" in config)
    _warn_diverged(stats.records)
    _write_json(stats_to_dict(stats, graph, hp, _resolved_config_dict(config, hp)),
                config.get("out"))
    if config.get("trajectories"):
        write_trajectory_csv(config["trajectories"], stats.records, hp)
    if config.get("coloring"):
        best = min((r for r in stats.records if not r.diverged),
                   key=lambda r: r.best_energy)
        _write_coloring(config["coloring"], best.best_coloring, original_ids)
    if not args.quiet:
        print(f"best {stats.best_overall} in {stats.n_min}/{hp.n_runs} runs "
              f"(mean {stats.mean_best:.2f})", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args)
    for name in ("trajectories", "coloring"):
        if config.get(name):
            raise ConfigError(f"{name} is not supported by sweep")
    lo, sep, hi = config["colors"].partition(":")
    # --colors may be "LO:HI" for sweeps; a single value sweeps one point
    try:
        c_lo = int(lo)
        c_hi = int(hi) if sep else c_lo
    except ValueError:
        raise ConfigError(
            f"sweep expects --colors LO:HI, got {config['colors']!r}") from None
    if c_hi < c_lo:
        raise ConfigError("sweep range must be ascending")
    hp = _settings_to_hp({**config, "colors": c_lo})
    graph, _, _ = _load_graph(config["graph"], config.get("format"), hp.fix_strategy)
    result = sweep_colors(graph, hp, range(c_lo, c_hi + 1),
                          force_full=args.force_full, workers=config["workers"])
    _warn_diverged([r for s in result.batches.values() for r in s.records])
    payload = {
        "config": {**_resolved_config_dict(config, hp), "colors": config["colors"]},
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "chi_upper": result.chi_upper,
        "sweep": {str(c): {k: v for k, v in stats_to_dict(s, graph, hp).items()
                           if k not in ("config", "graph", "per_run")}
                  for c, s in result.batches.items()},
    }
    _write_json(payload, config.get("out"))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.colors is None:
        raise ConfigError("the number of colors is required (--colors)")
    colors = _colors_int(args.colors)
    if args.points < 1:
        raise ConfigError(f"points must be >= 1, got {args.points}")
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"tol must be finite and > 0, got {args.tol!r}")
    try:
        lx_offdiag = build_ops(colors)
        if args.t is not None and not math.isfinite(args.t):
            raise ValueError(f"t must be finite, got {args.t!r}")
        if args.t is not None and not 0.0 <= args.t <= 1.0:
            raise ValueError("t must be in [0, 1]")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the setting flags given are read and checked as solve reads them
    given = {k: v for k, v in vars(args).items() if v is not None}
    hp = _settings_to_hp({**given, "colors": colors})
    graph, _, fixed = _load_graph(args.graph, args.format, hp.fix_strategy)
    workspace = CostWorkspace(graph, lx_offdiag, fixed)
    n_free = graph.num_nodes - (fixed is not None)
    rng = np.random.default_rng(hp.master_seed)
    worst = 0.0
    flagged = 0
    for _ in range(args.points):
        t = float(rng.uniform(0.0, 1.0)) if args.t is None else args.t
        angles = rng.uniform(-np.pi, np.pi, size=(n_free, colors - 1))
        angles = np.pad(angles, ((0, 0), (0, 1)))  # the zero pad column
        if fixed is not None:  # the pinned node's row is all zeros
            angles = np.insert(angles, fixed, 0.0, axis=0)
        hvals = draw_couplings(graph, hp.h, [rng])[0]
        try:
            report = check_gradient(workspace, angles, t, hp.gamma, hvals,
                                    step=args.step, tol=args.tol)
        except ValueError as exc:  # a finite-difference step out of range
            raise ConfigError(str(exc)) from None
        worst = max(worst, report.max_rel_error)
        flagged += int(report.clamp_flags.sum())
        if not report.passed:
            print(f"FAIL at t={t:.4f}: max relative error "
                  f"{report.max_rel_error:.3e} (tol {args.tol:g})")
            return 1
    print(f"gradcheck OK: {args.points} points, max relative error {worst:.3e} "
          f"(tol {args.tol:g}, {flagged} clamp-flagged components excluded)")
    return 0


def _cmd_info(args) -> int:
    graph, _, node = _load_graph(args.graph, args.format, "max_degree")
    print(f"{Path(args.graph).name}: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges, density {100 * graph.density:.2f}%, "
          f"max degree {graph.max_degree} (node {node})")
    return 0


def _add_instance_flags(parser) -> None:
    parser.add_argument("--graph", help="instance file (.col or edge list)")
    parser.add_argument("--format", choices=FORMATS,
                        help="override format auto-detection")


def _add_setting_flags(parser, names) -> None:
    """Add ``--NAME`` (``_`` as ``-``) for each setting in ``names``, its
    help ending in its declared default, a bool as a switch.  A flag reads
    its text as the config file does and is None when left out, so that
    the config file or the declared default holds."""
    for name in names:
        f = SETTINGS[name]
        extras = {"help": f.metadata["help"] + (
            "" if f.default is MISSING else f" (default {setting_value(f.default)})")}
        if SETTING_TYPES[f.name] is bool:
            extras.update(action="store_const", const=True)
        else:
            extras.update({"type": _CONFIG_PARSERS[name], **f.metadata["flag"]})
        parser.add_argument("--" + name.replace("_", "-"), **extras)


def _add_hyper_flags(parser) -> None:
    # the switches come after --workers: test_cli_surface_is_pinned pins
    # the --help order, because scripts rely on it
    switches = [name for name, f in SETTINGS.items() if SETTING_TYPES[f.name] is bool]
    _add_setting_flags(parser, [name for name in SETTINGS if name not in switches])
    parser.add_argument("--workers", type=int,
                        help=f"parallel runs (default ${WORKERS_ENV} or 1)")
    _add_setting_flags(parser, switches)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="stats JSON path (default: stdout)")
    parser.add_argument("--trajectories", help="write per-step CSV here")
    parser.add_argument("--coloring", help="write best coloring here")
    parser.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcolor",
        description="Graph coloring via qudit product states: annealed or "
                    "direct gradient optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a batch on one instance")
    _add_instance_flags(solve)
    _add_hyper_flags(solve)

    sweep = sub.add_parser("sweep", help="sweep color counts for an upper bound")
    _add_instance_flags(sweep)
    _add_hyper_flags(sweep)
    sweep.add_argument("--force-full", action="store_true",
                       help="do not stop at the first conflict-free count")

    grad = sub.add_parser("gradcheck", help="verify gradients on an instance")
    _add_instance_flags(grad)
    _add_setting_flags(grad, ["colors"])
    grad.add_argument("--points", type=int, default=20)
    grad.add_argument("--step", type=float, default=1e-5)
    grad.add_argument("--tol", type=float, default=1e-4)
    _add_setting_flags(grad, ["gamma", "h", "fix"])
    grad.add_argument("--t", type=float, default=None,
                      help="fix the annealing time (default: random per point)")
    _add_setting_flags(grad, ["seed"])

    info = sub.add_parser("info", help="print parsed graph statistics")
    _add_instance_flags(info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"solve": _cmd_solve, "sweep": _cmd_sweep,
                "gradcheck": _cmd_gradcheck, "info": _cmd_info}
    try:
        return commands[args.command](args)
    except (ConfigError, DivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
