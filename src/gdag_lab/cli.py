"""Command-line interface.

Exit codes: 0 = computed, 1 = property violated / condition not
established (check-style commands), 2 = usage error or bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .graph import GDag, GraphError, parse_gdag
from .dsep import (
    CISet,
    CIStatement,
    d_separated,
    d_separated_via_partition,
    observable_ci_set,
)
from .models import (
    ConditionalDistribution,
    Distribution,
    ModelError,
    satisfies_I,
)
from .inequalities import (
    MONOGAMY_TOL,
    instrumental_value,
    triangle_gpt_feasible,
    triangle_monogamy_margin,
)
from .classify import reduce as reduce_gdag, sufficient_condition_holds
from .catalog import instrumental_gdag, triangle_gdag
from .enumeration import CENSUS_MAX_N, classification_census, isomorphic
from .cones import (
    ConeError,
    _not_implied,
    derive_classical_cone,
    derive_independence_cone,
)


class CliError(Exception):
    pass


def _read_json(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from None


def read_graph(path: str) -> GDag:
    """The graph in the JSON file at ``path``; a missing file or a bad
    graph raises an error that ``guarded`` reports."""
    return parse_gdag(_read_json(path))


def _read_dist(path: str) -> Distribution | ConditionalDistribution:
    text = _read_json(path)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise CliError(f"bad distribution: {e}") from None
    # a "given" that is not an empty array is read, and checked, as a family
    if isinstance(obj, dict) and obj.get("given", []) != []:
        return ConditionalDistribution.from_json(text)
    return Distribution.from_json(text)


def _split(arg: str) -> list[str]:
    """The distinct ids of a comma-separated list, sorted, so that the
    unknown id an error names does not depend on set order."""
    return sorted({x for x in arg.split(",") if x})


def _cmd_dsep(args) -> int:
    g = read_graph(args.graph)
    x, y, z = _split(args.x), _split(args.y), _split(args.z)
    try:
        CIStatement(frozenset(x), frozenset(y), frozenset(z))
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.witness:
        w = d_separated_via_partition(g, x, y, z)
        if w is None:
            print("false")
        else:
            print("true")
            print(json.dumps({
                "u": sorted(w.u), "v": sorted(w.v), "z": sorted(w.z), "w": sorted(w.w)
            }))
    else:
        print("true" if d_separated(g, x, y, z) else "false")
    return 0


def _cmd_ci_set(args) -> int:
    g = read_graph(args.graph)
    print(observable_ci_set(g).to_json())
    return 0


def _triangle_verdict(dist: Distribution) -> tuple[float, bool, bool]:
    """The monogamy margin, the GPT feasibility, and whether either one
    certifies that ``dist`` cannot arise in the triangle."""
    margin = triangle_monogamy_margin(dist)
    feas = triangle_gpt_feasible(dist)
    return margin, feas, margin > MONOGAMY_TOL or not feas


def _instrumental_verdict(dist: ConditionalDistribution) -> tuple[Fraction, bool]:
    """The instrumental value, and whether it certifies that ``dist``
    cannot arise in the instrumental structure."""
    v = instrumental_value(dist)
    return v, v > 1


def _instrumental_family(
    g: GDag, dist: ConditionalDistribution
) -> ConditionalDistribution:
    """``dist`` ordered as ``instrumental_value`` reads it, outcome then
    treatment given the instrument, with the ids matched to the roles of
    ``g``, a graph isomorphic to the instrumental graph: the instrument
    is the observed root, the treatment its child and the outcome the
    other observed node."""
    obs = g.observed_nodes()
    instrument = next(v for v in obs if not g.parents(v))
    treatment = next(iter(g.children(instrument)))
    outcome = next(v for v in obs if v not in (instrument, treatment))
    names = [n for n, _ in dist.variables]
    # ids are distinct, so the set test also fixes the variable count
    if [n for n, _ in dist.given] != [instrument] or set(names) != {outcome, treatment}:
        raise CliError(
            f"the family must be over {outcome!r} and {treatment!r} "
            f"given {instrument!r}"
        )
    if names[0] == outcome:
        return dist
    slices = [
        dist.slice((y,)).marginal((outcome, treatment))
        for y in range(dist.given[0][1])
    ]
    return ConditionalDistribution(
        slices[0].variables, dist.given, tuple(p for s in slices for p in s.probs)
    )


def _cmd_check_dist(args) -> int:
    g = read_graph(args.graph)
    dist = _read_dist(args.dist)

    out: dict = {}
    code = 0
    if isinstance(dist, ConditionalDistribution):
        # The instrumental verdict holds only for the instrumental graph,
        # and a family is checked against nothing else.
        if not (len(g.names) == 4 and isomorphic(g, instrumental_gdag())):
            raise CliError(
                "conditional distributions are checked only against the "
                "instrumental graph"
            )
        if len(dist.given) != 1:
            raise CliError("conditional distributions need exactly one given")
        v, violated = _instrumental_verdict(_instrumental_family(g, dist))
        out["instrumental_value"] = str(v)
        if violated:
            code = 1
    else:
        report = satisfies_I(g, dist)
        out["satisfies_I"] = report.holds
        out["violated"] = json.loads(CISet(report.violated).to_json())
        if not report.holds:
            code = 1
        # The triangle verdict holds only for the triangle itself.  Its 6
        # nodes are compared first: the canonical key of a large graph is
        # costly.
        if len(g.names) == 6 and isomorphic(g, triangle_gdag()):
            margin, feas, violated = _triangle_verdict(dist)
            out["triangle_monogamy_margin"] = margin
            out["triangle_gpt_feasible"] = feas
            if violated:
                code = 1
    print(json.dumps(out))
    return code


def _cmd_ineq(args) -> int:
    dist = _read_dist(args.dist)
    if args.family == "triangle":
        if not isinstance(dist, Distribution):
            raise CliError("triangle inequalities need a joint distribution")
        margin, feas, violated = _triangle_verdict(dist)
        print(json.dumps({"monogamy_margin": margin, "gpt_feasible": feas}))
        return 1 if violated else 0
    if not isinstance(dist, ConditionalDistribution) or len(dist.given) != 1:
        raise CliError(
            "instrumental inequality needs a conditional distribution "
            "with one given variable"
        )
    v, violated = _instrumental_verdict(dist)
    print(json.dumps({"value": str(v)}))
    return 1 if violated else 0


def _cmd_classify(args) -> int:
    g = read_graph(args.graph)
    cert = sufficient_condition_holds(g)
    if cert is None:
        print("unknown")
        return 1
    print(cert.to_json())
    return 0


def _cmd_reduce(args) -> int:
    g = read_graph(args.graph)
    print(reduce_gdag(g).to_json())
    return 0


def _cmd_census(args) -> int:
    if not 1 <= args.n <= CENSUS_MAX_N:
        raise CliError(f"census supports 1 <= n <= {CENSUS_MAX_N}")
    report = classification_census(args.n)
    print(report.csv_row())
    return 0


def _cmd_entropic(args) -> int:
    g = read_graph(args.graph)
    ec = derive_classical_cone(g, allow_large=args.long_run)
    ei = derive_independence_cone(g, allow_large=args.long_run)
    out = {
        "classical": json.loads(ec.to_json()),
        "independence": json.loads(ei.to_json()),
    }
    if args.compare:
        extra = _not_implied(ec, ei)
        out["not_implied_by_independence"] = json.loads(extra.to_json())["ineqs"]
    print(json.dumps(out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gdag-lab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dsep", help="d-separation query")
    sp.add_argument("graph")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--z", default="")
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(func=_cmd_dsep)

    sp = sub.add_parser("ci-set", help="all observable CI statements")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_ci_set)

    sp = sub.add_parser("check-dist", help="check a distribution against I")
    sp.add_argument("graph")
    sp.add_argument("dist")
    sp.set_defaults(func=_cmd_check_dist)

    sp = sub.add_parser("ineq", help="theory-independent inequalities")
    sp.add_argument("family", choices=["triangle", "instrumental"])
    sp.add_argument("dist")
    sp.set_defaults(func=_cmd_ineq)

    sp = sub.add_parser("classify", help="search for a C = I certificate")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("reduce", help="apply reduction rules to a fixpoint")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("census", help="classification census CSV row")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("entropic", help="derive E_C and E_I")
    sp.add_argument("graph")
    sp.add_argument("--compare", action="store_true")
    sp.add_argument("--long-run", action="store_true")
    sp.set_defaults(func=_cmd_entropic)

    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    return guarded(args.func, args)


def guarded(func, *args) -> int:
    """``func(*args)``, with bad input reported as one ``error:`` line on
    stderr and exit code 2 instead of a traceback."""
    try:
        return func(*args)
    except (CliError, GraphError, ModelError, ConeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
