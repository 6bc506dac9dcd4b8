"""Command-line surface.

Every numeric value is printed as an exact rational string such as ``5/6``;
structured (JSON) output never contains a floating-point literal.  Each
command's results are made JSON-ready once, and the table view prints those
same values.  Exit codes: 0 success / all checks pass, 1 usage or validation
error (argparse's usage errors included), 2 at least one property violation
found.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from .audits import (
    AUDITS,
    audit_all,
    best_deviation,
    check_cm,
    check_mp,
    check_sp,
    cross_effect_sweep,
)
from .complementarity import classify_complementarity, probe_constant_relation
from .cuts import classify_pair_structure, enumerate_minimal_cuts, minimal_cuts_bruteforce
from .fixtures import fixture_names, fixture_text, write_fixtures
from .guards import SizeGuardError
from .maxflow import max_flow
from .mechanisms import (
    MECHANISMS,
    core_bounds,
    core_bounds_all,
    core_check,
    mc_no_step_one,
    resolve_mechanism,
    shapley_permutation_oracle,
)
from .network import (
    MAX_DIGITS,
    FlowNetwork,
    NetworkError,
    as_rational,
    parse_network,
    prune_to_paths,
    resolve_reports,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

#: The largest count `--grid` and `--points` accept.  The deviation search
#: builds every grid point before it evaluates one, and each point is a
#: mechanism evaluation, so an unbounded count would run without end.
MAX_POINTS = 10_000


class CliError(Exception):
    pass


def _fields(obj) -> dict:
    """A dataclass's fields by name, as they are: `asdict` without its deep
    copy, which the output never needs."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(_fields(value))
    if isinstance(value, float):
        raise CliError("internal error: a float reached the output layer")
    return value


def _parse_overrides(pairs: Optional[list[str]], what: str = "report") -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--{what} expects EDGE=VALUE, got {pair!r}")
        eid, _, raw = (part.strip() for part in pair.partition("="))
        if eid in out:
            raise CliError(f"--{what} for {eid} given more than once")
        try:
            out[eid] = as_rational(raw, what=what)
        except (TypeError, ValueError) as exc:
            raise CliError(str(exc)) from None
    return out


def _read(args) -> tuple[str, FlowNetwork, dict]:
    """The network file's text and its network, pruned under --prune, in
    which case the notes name the dropped edges."""
    try:
        with open(args.network, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.network}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliError(f"cannot read {args.network}: not UTF-8 text") from None
    net = parse_network(text)
    if not args.prune:
        return text, net, {}
    net, dropped = prune_to_paths(net)
    return text, net, {"pruned_edges": list(dropped)}


def _load(args) -> tuple[FlowNetwork, dict[str, Fraction], str]:
    """The validated network, its report vector and the input file's digest.
    A player may under-report but never over-report: each report lies in
    [0, true capacity], checked in edge order."""
    text, net, _notes = _read(args)
    report = validate(net)
    if not report.ok:
        lines = "; ".join(f"{d.code}: {d.message} ({d.entity})" for d in report.errors())
        raise CliError(f"network failed validation: {lines}")
    reports = resolve_reports(net, _parse_overrides(args.report))
    for e in net.edges:
        if reports[e.id] > e.cap:
            raise CliError(f"report for {e.id} must lie in [0, {e.cap}], got {reports[e.id]}")
    return net, reports, hashlib.sha256(text.encode()).hexdigest()


def _pair(args) -> tuple[str, str]:
    parts = [p.strip() for p in args.pair.split(",")]
    if len(parts) != 2:
        raise CliError("--pair expects two comma-separated edge ids, e.g. e1,e3")
    return parts[0], parts[1]


def _check_counts(args) -> None:
    """Refuse a `--grid` or `--points` count above MAX_POINTS, before the
    network is read."""
    for option in ("grid", "points"):
        count = getattr(args, option, None)
        if count is not None and count > MAX_POINTS:
            raise CliError(f"--{option} must be at most {MAX_POINTS}, got {count}")


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    out.extend(fmt.format(*row) for row in rows)
    return "\n".join(out)


def _emit(args, results: dict, exit_status: int) -> None:
    """Print the JSON-ready results as the run document or as tables."""
    if args.format == "json":
        doc = {
            "tool": "flowmech",
            "version": __version__,
            "command": list(args._argv),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "results": results,
            "exit_status": exit_status,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _render_table(results)


def _render_table(results: dict) -> None:
    if "allocation" in results:
        alloc = results["allocation"]
        print(f"mechanism: {alloc['mechanism']}")
        print(_table(["edge", "report", "payoff"], alloc["rows"]))
        print(f"total: {alloc['total']}")
    if "value" in results:
        print(f"max-flow value: {results['value']}")
        print(_table(["edge", "flow"], list(results["edge_flows"].items())))
        print("source side:", " ".join(results["source_side"]))
    if "cuts" in results:
        print(_table(["minimal cut", "capacity"], [[" ".join(M), cap] for M, cap in results["cuts"]]))
        print(f"flow value: {results['flow_value']}")
    if "bounds" in results:
        print(_table(["edge", "core min", "core max"], [[eid, *b] for eid, b in results["bounds"].items()]))
    if "core" in results:
        verdict = results["core"]
        if verdict["in_core"]:
            print("IN CORE")
        else:
            print(
                f"CORE VIOLATION: coalition {{{', '.join(verdict['coalition'])}}} "
                f"can earn {verdict['coalition_value']} but is paid {verdict['payoff_sum']}"
            )
    if "deviation" in results:
        w = results["deviation"]
        print(
            f"player {w['player']}: truthful payoff {w['truthful_payoff']}, "
            f"best report {w['best_report']} pays {w['best_payoff']} (gain {w['gain']})"
        )
    if "pair" in results:
        p = results["pair"]
        print(f"structure: {p['structure']}")
        print(f"relation at current reports: {p['relation']} (pattern: {p['pattern']})")
        if "constant_claim" in p:
            print(f"constancy over samples: {p['constant_claim']} ({p['sampled_relation']})")
    if "audits" in results:
        for item in results["audits"]:
            line = f"{item['property']:<14} {item['mechanism']:<12} {item['verdict'].upper()}"
            print(line)
            if item.get("witness"):
                print(f"  witness: {item['witness']}")
    if "sweep" in results:
        s = results["sweep"]
        print(f"case: {s['case']}  (verdict: {s['verdict']})")
        print(_table(["swept report", "observed payoff"], s["rows"]))
    if "validation" in results:
        v = results["validation"]
        print("VALID" if v["ok"] else "INVALID")
        for d in v["diagnostics"]:
            print(f"  [{d['severity']}] {d['code']}: {d['message']} ({d['entity']})")
    if "pruned_edges" in results:
        print("pruned:", " ".join(results["pruned_edges"]) or "(nothing)")
    if "fixtures" in results:
        for name in results["fixtures"]:
            print(name)
    if "fixture_text" in results:
        print(results["fixture_text"], end="")
    if "written" in results:
        for path in results["written"]:
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> tuple[dict, int]:
    _text, net, notes = _read(args)
    report = validate(net)
    results = {"validation": {"ok": report.ok, "diagnostics": report.diagnostics}, **notes}
    return results, EXIT_OK if report.ok else EXIT_USAGE


def _cmd_maxflow(args, net, reports) -> tuple[dict, int]:
    return _fields(max_flow(net, reports)), EXIT_OK


def _cmd_cuts(args, net, reports) -> tuple[dict, int]:
    family = (args.variant or enumerate_minimal_cuts)(net, reports)
    cuts = list(zip(family.cuts, family.cut_capacities))
    return {"cuts": cuts, "flow_value": family.flow_value}, EXIT_OK


def _cmd_allocation(args, net, reports) -> tuple[dict, int]:
    """The allocation of the mechanism the subcommand names, or of the
    variant its option selects."""
    alloc = (args.variant or MECHANISMS[args.subcommand])(net, reports)
    rows = [[eid, reports[eid], q] for eid, q in alloc.payoffs.items()]
    return {"allocation": {**_fields(alloc), "total": alloc.total, "rows": rows}}, EXIT_OK


def _cmd_core_check(args, net, reports) -> tuple[dict, int]:
    if args.payoff:
        payoffs = _parse_overrides(args.payoff, what="payoff")
    else:
        payoffs = resolve_mechanism(args.mechanism)(net, reports).payoffs
    verdict = core_check(net, reports, payoffs)
    return {"core": verdict}, EXIT_OK if verdict.in_core else EXIT_VIOLATION


def _cmd_core_bounds(args, net, reports) -> tuple[dict, int]:
    if args.edge:
        bounds = {args.edge: core_bounds(net, reports, args.edge)}
    else:
        bounds = core_bounds_all(net, reports)
    return {"bounds": bounds}, EXIT_OK


def _cmd_classify_pair(args, net, reports) -> tuple[dict, int]:
    if args.seed is not None and args.samples is None:
        raise CliError("--seed applies to --samples only")
    e1, e2 = _pair(args)
    structure = classify_pair_structure(net, reports, e1, e2)
    fixed = classify_complementarity(net, e1, e2, reports)
    result = {
        "structure": structure.kind.value,
        "relation": fixed.relation.value,
        "pattern": fixed.pattern,
    }
    if args.samples is not None:
        if args.seed is None:
            raise CliError("--samples needs an explicit --seed for reproducibility")
        sampled = probe_constant_relation(net, e1, e2, args.samples, args.seed)
        result["constant_claim"] = sampled.constant_claim.status
        result["sampled_relation"] = sampled.relation.value
    return {"pair": result}, EXIT_OK


def _cmd_deviate(args, net, reports) -> tuple[dict, int]:
    if args.player in _parse_overrides(args.report):
        raise CliError(
            f"--report names the deviating player {args.player}; the search sets that report itself"
        )
    witness = best_deviation(
        net, args.mechanism, args.player, others_reports=reports, grid_size=args.grid
    )
    deviation = _fields(witness)
    del deviation["others_reports"]
    return {"deviation": deviation}, EXIT_OK


def _cmd_audit(args, net, reports) -> tuple[dict, int]:
    mech, prop = args.mechanism, args.property
    if args.edge and prop not in ("sp", "cm"):
        raise CliError("--edge applies to sp and cm only")
    if args.pair and prop != "mp":
        raise CliError("--pair applies to mp only")
    if args.grid is not None and prop not in ("dsic", "all"):
        raise CliError("--grid applies to dsic and all only")
    grid = 6 if args.grid is None else args.grid
    if args.edge:
        runs = [(check_sp if prop == "sp" else check_cm)(net, mech, reports, args.edge)]
    elif args.pair:
        runs = [check_mp(net, mech, reports, *_pair(args))]
    elif prop == "all":
        runs = audit_all(net, mech, reports, grid_size=grid)
    else:
        runs = AUDITS[prop](net, mech, reports, grid)
    if not runs:
        raise CliError("the network has no parallel edge pair to merge")
    results = {
        "audits": [
            {
                "property": r.property,
                "mechanism": r.mechanism,
                "verdict": r.verdict,
                "witness": r.witness or None,
            }
            for r in runs
        ],
    }
    bad = any(r.verdict == "violation" for r in runs)
    return results, EXIT_VIOLATION if bad else EXIT_OK


def _cmd_sweep(args, net, reports) -> tuple[dict, int]:
    e1, e2 = _pair(args)
    report = cross_effect_sweep(net, reports, e1, e2, points_per_interval=args.points)
    trace = report.trace
    results = {
        "sweep": {
            "case": trace.context.get("case"),
            "verdict": report.verdict,
            "critical_value": trace.context.get("critical_value"),
            "rows": list(zip(trace.grid, trace.values)),
        },
    }
    return results, EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_fixtures(args) -> tuple[dict, int]:
    if args.out:
        return {"written": write_fixtures(args.out)}, EXIT_OK
    if args.name:
        return {"fixture_text": fixture_text(args.name)}, EXIT_OK
    return {"fixtures": list(fixture_names())}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, not argparse's 2, which
    here means a violation; the subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of :func:`main` shares it."""
    parser = _Parser(
        prog="flowmech",
        description=(
            "Payoff mechanisms for max-flow games with privately reported edge "
            "capacities, and mechanical audits of their incentive properties."
        ),
    )
    parser.add_argument("--version", action="version", version=f"flowmech {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, reports=True):
        p.add_argument("network", help="path to a network file")
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.add_argument("--prune", action="store_true", help="drop edges off all source-sink paths")
        if reports:
            p.add_argument(
                "--report",
                action="append",
                metavar="EDGE=VALUE",
                help="reported capacity override (repeatable); defaults to the true capacity",
            )

    def variant(p, flag, fn, help_text):
        """An option that runs `fn` in place of the subcommand's default."""
        p.add_argument(flag, dest="variant", action="store_const", const=fn, help=help_text)

    p = sub.add_parser("validate", help="check the model assumptions")
    common(p, reports=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("maxflow", help="exact max-flow value and witness flow")
    common(p)
    p.set_defaults(fn=_cmd_maxflow)

    p = sub.add_parser("cuts", help="enumerate the minimal cuts")
    common(p)
    variant(p, "--oracle", minimal_cuts_bruteforce, "use the edge-subset brute-force path")
    p.set_defaults(fn=_cmd_cuts)

    # the allocation subcommands are named after their MECHANISMS entries
    p = sub.add_parser("shapley", help="Shapley value allocation")
    common(p)
    variant(p, "--oracle", shapley_permutation_oracle, "average over all arrival orders instead")
    p.set_defaults(fn=_cmd_allocation)

    p = sub.add_parser("mc", help="cut-splitting mechanism allocation")
    common(p)
    variant(
        p,
        "--no-stand-alone-step",
        mc_no_step_one,
        "diagnostic variant: skip the stand-alone step (not individually rational)",
    )
    p.set_defaults(fn=_cmd_allocation)

    p = sub.add_parser("core-select", help="nearest-cut core selection allocation")
    common(p)
    p.set_defaults(fn=_cmd_allocation, variant=None)

    p = sub.add_parser("core-check", help="exact core membership of an allocation")
    common(p)
    payoffs = p.add_mutually_exclusive_group(required=True)
    payoffs.add_argument("--payoff", action="append", metavar="EDGE=VALUE")
    payoffs.add_argument("--mechanism", choices=sorted(MECHANISMS))
    p.set_defaults(fn=_cmd_core_check)

    p = sub.add_parser("core-bounds", help="min/max core payoff per edge (exact LP)")
    common(p)
    p.add_argument("--edge", help="bound a single edge instead of all")
    p.set_defaults(fn=_cmd_core_bounds)

    p = sub.add_parser("classify-pair", help="independent/inclusive structure and complement/substitute relation")
    common(p)
    p.add_argument("--pair", required=True, metavar="E1,E2")
    p.add_argument("--samples", type=int, help="also sample other capacities this many times")
    p.add_argument("--seed", type=int, help="seed for --samples (required with it)")
    p.set_defaults(fn=_cmd_classify_pair)

    p = sub.add_parser("deviate", help="best under-report for one player")
    common(p)
    p.add_argument("--player", required=True)
    p.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    p.add_argument("--grid", type=int, default=8)
    p.set_defaults(fn=_cmd_deviate)

    p = sub.add_parser("audit", help="property audits; exit code 2 when a violation is found")
    p.add_argument("property", choices=["dsic", "sir", "sp", "mp", "cm", "all"])
    common(p)
    p.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    p.add_argument("--edge", help="restrict sp/cm to one edge")
    p.add_argument("--pair", help="restrict mp to one pair E1,E2")
    p.add_argument("--grid", type=int, help="deviation grid size for dsic and all (default 6)")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser(
        "sweep-theorem2",
        help="sweep one edge's report and trace another's cut-mechanism payoff",
    )
    common(p)
    p.add_argument("--pair", required=True, metavar="SWEPT,OBSERVED")
    p.add_argument("--points", type=int, default=8, help="grid points per interval")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fixtures", help="list or emit the bundled example networks")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", help="write all fixtures into this directory")
    p.add_argument("--name", help="print one fixture file")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's status: 1 for a usage error, 0 for --help and --version
        return exc.code
    args._argv = argv
    try:
        _check_counts(args)
        if "report" in args:  # the commands that take reports need a valid network
            net, reports, digest = _load(args)
            results, status = args.fn(args, net, reports)
            results["input_digest"] = digest
        else:
            results, status = args.fn(args)
    except (CliError, NetworkError, SizeGuardError, OSError, KeyError, ValueError) as exc:
        # an OSError's first argument is its errno; its str names the file
        message = str(exc) if isinstance(exc, OSError) or not exc.args else exc.args[0]
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    try:  # before anything is printed, so a result that cannot be printed prints nothing
        results = _jsonable(results)
    except ValueError:  # str() of an int refuses more than MAX_DIGITS digits
        print(f"error: a result has more than {MAX_DIGITS} digits in its numerator or denominator", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, results, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
