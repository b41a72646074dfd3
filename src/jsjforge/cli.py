"""Command line front end.

Subcommands mirror the pipeline stages: `split` decides one relative
splitting question, `maximal` iterates it to a maximal splitting, `jsj`
adds the flavor-specific reassembly, and `gog` applies single graph
transformations to a saved graph-of-groups document.

Exit codes:
- 0 decided.
- 2 usage error or malformed input: one line `jsj-forge: error: WHERE:
  message` on standard error, WHERE being `--window` for a bad or
  unpaired `--window`, `--n-cap` for an `--n-cap` below the constant
  table's Kd (no n would be checked), and FILE otherwise: also for no
  word-problem backend under `--window` or at a `gog cylinders` edge
  end, a window past an element cap (`window: ...`), `gog cylinders` on
  a non-cyclic edge group or a trivial edge image (`gog fold` warns and
  skips it), and `gog collapse --edges` naming no edge.  A `--budget`
  or `--n-cap` that is not an integer >= 0, and a `gog` option that only
  the pipelines take, print argparse's usage line.
- 3 exhausted: the budget ran out, or no word-problem backend for
  `split`, `maximal` and `jsj` without a window; `gog cylinders` whose
  root extraction spends its budget prints `jsj-forge: exhausted: FILE:
  message`.
- 4 window insufficient: the window provably cannot certify an answer.
"""

import argparse
import json
import sys

from .algebra import BudgetError
from .words import BackendError, default_backend, parse_presentation
from .geometry import CuspedSpace, WindowError
from .hyperbolicity import check_n_cap, derive_constants, parse_const_file
from .gog import (GraphOfGroups, assemble_jsj, collapse_edges,
                  decide_split_relative, internal_surface_edges,
                  maximal_splitting, tree_of_cylinders, validate_gog,
                  zmax_fold)

EXIT_DECIDED = 0
EXIT_USAGE = 2  # argparse's code for usage errors
EXIT_EXHAUSTED = 3
EXIT_WINDOW = 4


def _read(load, path):
    """load(path), or exit with a one-line diagnostic when the file cannot
    be read or is malformed."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        # ValueError covers ParseError and JSONDecodeError; the other two
        # print only the key or the fraction, so they are named
        what = {KeyError: "missing entry: ",
                ZeroDivisionError: "division by zero: "}.get(type(exc), "")
        _usage_error(path, "%s%s" % (what, exc))


def _usage_error(where, message):
    """Exit 2 with the one-line diagnostic `jsj-forge: error: WHERE: ...`."""
    print("jsj-forge: error: %s: %s" % (where, message), file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_presentation(path):
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _load_gog(path):
    with open(path, encoding="utf-8") as fh:
        return GraphOfGroups.from_json(fh.read())


def _load_seeds(path):
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_table(path):
    with open(path, encoding="utf-8") as fh:
        values = parse_const_file(fh.read())
    return derive_constants(
        values.pop("delta"), values.pop("delta_per", 0),
        n=values.pop("n", None), B=values.pop("B", None),
        V=values.pop("V", None), overrides=values)


def _geometry(args, presentation, source="--window"):
    """The window, constant table and n cap that args name, or None with
    no --window.  The no-backend and window-cap diagnostics name source;
    the pipelines pass their input file."""
    if args.window is None:
        return None
    if args.const is None:
        _usage_error("--window", "requires --const")
    window = args.window.split(",")
    if len(window) != 2 or not all(x.isdecimal() for x in window):
        _usage_error("--window", "expected R,h (two non-negative integers), "
                     "got %r" % args.window)
    r_max, h_max = (int(x) for x in window)
    table = _read(_load_table, args.const)
    if args.n_cap is not None:
        try:
            check_n_cap(table, args.n_cap)
        except ValueError as exc:
            _usage_error("--n-cap", str(exc))
    try:
        space = CuspedSpace(presentation, default_backend(presentation),
                            r_max, h_max)
    except BackendError as exc:
        _usage_error(source, "no word-problem backend: %s" % exc)
    except WindowError as exc:
        _usage_error(source, "window: %s" % exc)
    return space, table, args.n_cap


def _emit_dot(args, graph):
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())


def _budget(text):
    """argparse type of --budget and --n-cap: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def _common(sub):
    sub.add_argument("--budget", type=_budget, default=24)
    sub.add_argument("--dot", metavar="FILE", help="write Graphviz output")


def _pipeline_options(sub):
    sub.add_argument("--window", metavar="R,h",
                     help="cusped-space window: ball radius, horoball height")
    sub.add_argument("--const", metavar="FILE",
                     help="constant inputs, one `name = value` per line "
                          "(delta, delta_per, n, B, V, overrides)")
    sub.add_argument("--seed-markings", metavar="FILE",
                     help="JSON seed file; every entry is re-verified and "
                          "labelled in the trace")
    sub.add_argument("--n-cap", type=_budget, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="jsj-forge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("split", "maximal", "jsj"):
        sub = subs.add_parser(name)
        sub.add_argument("input", help=".grp presentation file")
        if name == "jsj":
            sub.add_argument("--flavor", choices=("vc", "z", "zmax"),
                             default="vc")
        _common(sub)
        _pipeline_options(sub)

    gog = subs.add_parser("gog")
    gog.add_argument("action",
                     choices=("collapse", "cylinders", "fold", "trace"))
    gog.add_argument("input", help=".gog document")
    gog.add_argument("--edges", help="comma-separated edge ids to collapse "
                     "(default: internal surface edges)")
    _common(gog)

    args = parser.parse_args(argv)
    if args.command == "gog":
        return _run_gog(args)
    return _run_pipeline(args)


def _run_pipeline(args):
    p = _read(_load_presentation, args.input)
    peripherals = tuple(p.peripherals)
    seeds = _read(_load_seeds, args.seed_markings)
    geometry = _geometry(args, p, args.input)

    if args.command == "split":
        dec = decide_split_relative(p, peripherals, budget=args.budget,
                                    seeds=seeds, geometry=geometry)
        print("answer: %s" % dec.answer)
        print("reason: %s" % dec.reason)
        print("trace: %s" % " -> ".join(dec.trace))
        if dec.answer == "splits" and args.dot:
            from .gog import witness_to_gog
            _emit_dot(args, witness_to_gog(dec.witness)[0])
        if dec.window_insufficient:
            return EXIT_WINDOW
        return EXIT_DECIDED if dec.answer != "exhausted" else EXIT_EXHAUSTED

    if args.command == "maximal":
        g, report = maximal_splitting(p, peripherals, budget=args.budget,
                                      seeds=seeds, geometry=geometry)
        print(g.to_json())
        for vid, answer, reason, trace in report["log"]:
            print("# v%d: %s (%s) %s"
                  % (vid, answer, reason, " -> ".join(trace)),
                  file=sys.stderr)
        _emit_dot(args, g)
        if report.get("window_insufficient"):
            return EXIT_WINDOW
        return EXIT_EXHAUSTED if report["partial"] else EXIT_DECIDED

    g, artifacts = assemble_jsj(p, flavor=args.flavor,
                                peripherals=peripherals, budget=args.budget,
                                seeds=seeds, geometry=geometry)
    print(g.to_json())
    for warning in artifacts["warnings"]:
        print("# %s" % warning, file=sys.stderr)
    _emit_dot(args, g)
    report = artifacts["report"]
    if report.get("window_insufficient"):
        return EXIT_WINDOW
    return EXIT_EXHAUSTED if report["partial"] else EXIT_DECIDED


def _run_gog(args):
    g = _read(_load_gog, args.input)
    warnings = []
    if args.action == "trace":
        diagnostics = validate_gog(g)
        for line in diagnostics:
            print(line)
        if not diagnostics:
            print("ok")
        return EXIT_DECIDED if not diagnostics else EXIT_EXHAUSTED
    if args.action == "collapse":
        if args.edges:
            try:
                edges = {int(x) for x in args.edges.split(",")}
            except ValueError:
                _usage_error(args.input, "--edges: expected comma-separated "
                             "edge ids, got %r" % args.edges)
            unknown = sorted(edges - set(g.edges))
            if unknown:
                _usage_error(args.input, "--edges: no edge %s"
                             % ",".join(map(str, unknown)))
        else:
            edges, warnings = internal_surface_edges(g, budget=args.budget)
        out = collapse_edges(g, edges)
    elif args.action == "cylinders":
        try:
            out = tree_of_cylinders(g, budget=args.budget)
        except BackendError as exc:
            _usage_error(args.input, "no word-problem backend: %s" % exc)
        except ValueError as exc:
            _usage_error(args.input, exc)
        except BudgetError as exc:
            print("jsj-forge: exhausted: %s: %s" % (args.input, exc),
                  file=sys.stderr)
            return EXIT_EXHAUSTED
    else:
        out, warnings = zmax_fold(g, budget=args.budget)
    print(out.to_json())
    for warning in warnings:
        print("# %s" % warning, file=sys.stderr)
    _emit_dot(args, out)
    return EXIT_DECIDED


if __name__ == "__main__":
    sys.exit(main())
