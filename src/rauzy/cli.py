"""Command line front end.

Every command is a thin wrapper over the library; outputs are plain UTF-8.
Flags have environment-variable twins (``RAUZY_BUDGET``, ``RAUZY_OUTPUT``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import classes, induction, invariants
from .combinat import PermKind, format_perm, is_irreducible, parse
from .errors import RauzyError, ReducibleSeed
from .invariants import StratumKind, parse_stratum


@dataclass(frozen=True)
class Config:
    node_budget: int = 10**7
    output: str = "text"

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError("budget must be at least 1")
        if self.output not in ("text", "json", "dot"):
            raise ValueError("output must be text, json or dot")


def _env(name: str, default):
    return os.environ.get(name, default)


def _env_budget() -> int:
    text = _env("RAUZY_BUDGET", str(Config.node_budget))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"RAUZY_BUDGET must be an integer, not {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rauzy",
        description="Rauzy induction on permutations and generalized permutations",
    )
    parser.add_argument(
        "--budget",
        type=int,
        help="node budget for class enumeration (default: RAUZY_BUDGET or 10**7)",
    )
    parser.add_argument(
        "--output",
        choices=["text", "json", "dot"],
        default=_env("RAUZY_OUTPUT", "text"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("induce", help="apply a word of moves to a table")
    cmd.add_argument("perm")
    cmd.add_argument("moves", help="word over {0,1}")

    cmd = sub.add_parser("invariants", help="stratum and component data")
    cmd.add_argument("perm")

    cmd = sub.add_parser("class", help="enumerate a Rauzy class")
    cmd.add_argument("perm")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    group.add_argument("--count", action="store_true")

    cmd = sub.add_parser("same-class", help="decide class membership")
    cmd.add_argument("perm1")
    cmd.add_argument("perm2")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--fast", action="store_true")
    group.add_argument("--bfs", action="store_true")
    group.add_argument("--both", action="store_true")

    cmd = sub.add_parser("verify", help="check the class-count structure")
    cmd.add_argument("--d", type=int)
    cmd.add_argument("--kind", choices=["iet", "quad"])
    cmd.add_argument("--stratum")
    return parser


def cmd_induce(args, config: Config) -> int:
    p = parse(args.perm)
    if not is_irreducible(p):
        raise ReducibleSeed(f"{p} admits no suspension")
    if any(ch not in "01" for ch in args.moves):
        raise ValueError("moves must be a word over {0,1}")
    current = p
    for i, ch in enumerate(args.moves):
        nxt = induction.r0(current) if ch == "0" else induction.r1(current)
        if nxt is None:
            print(f"error: move {ch} undefined at step {i}", file=sys.stderr)
            return 1
        current = nxt
        print(format_perm(current))
    return 0


def cmd_invariants(args, config: Config) -> int:
    p = parse(args.perm)
    profile = invariants.singularity_profile(p)
    st = invariants._stratum_of(p, profile)
    label = invariants._component_label(p, st, config.node_budget)
    payload = {
        "stratum": st.text,
        "genus": st.genus,
        "orders": list(profile.orders),
        "marked": profile.marked,
        "component": label.value,
    }
    if config.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def cmd_class(args, config: Config) -> int:
    diagram = classes.rauzy_class(parse(args.perm), config.node_budget)
    if args.count:
        print(len(diagram))
    elif args.dot or config.output == "dot":
        print(classes.export_dot(diagram))
    elif args.json or config.output == "json":
        print(classes.diagram_json(diagram))
    else:
        for v in diagram.vertices:
            print(format_perm(v))
    return 0


def cmd_same_class(args, config: Config) -> int:
    p1 = parse(args.perm1)
    p2 = parse(args.perm2)
    budget = config.node_budget
    if args.both:
        fast = classes.same_class_fast(p1, p2, budget)
        bfs = classes.same_class_bfs(p1, p2, budget)
        if fast != bfs:
            bundle = {
                "perm1": format_perm(p1),
                "perm2": format_perm(p2),
                "fast": fast,
                "bfs": bfs,
                "stratum1": invariants.stratum(p1).text,
                "stratum2": invariants.stratum(p2).text,
                "marked1": invariants.marked_order(p1),
                "marked2": invariants.marked_order(p2),
            }
            print(json.dumps(bundle, indent=2), file=sys.stderr)
            return 2
        verdict = fast
    elif args.bfs:
        verdict = classes.same_class_bfs(p1, p2, budget)
    else:
        verdict = classes.same_class_fast(p1, p2, budget)
    print("same-class" if verdict else "different-class")
    return 0


def cmd_verify(args, config: Config) -> int:
    if args.stratum:
        st = parse_stratum(args.stratum)
        kind = (
            PermKind.IET if st.kind is StratumKind.ABELIAN else PermKind.QUADRATIC
        )
        report = classes.verify_main_theorem(
            st.d, kind, config.node_budget, only_stratum=st
        )
    else:
        if args.d is None or args.kind is None:
            raise ValueError("need --stratum or both --d and --kind")
        kind = PermKind.IET if args.kind == "iet" else PermKind.QUADRATIC
        report = classes.verify_main_theorem(args.d, kind, config.node_budget)
    if config.output == "json":
        print(report.to_json())
    else:
        for g in report.groups:
            status = "ok" if g.ok else "FAIL"
            print(
                f"{g.stratum.text:>18} {g.label.value:>17} "
                f"r={g.r} classes={g.class_count} "
                f"marked={list(g.marked_orders)} {status}"
            )
        for m in report.to_dict().get("component_mismatches", []):
            observed, expected = m["observed"], m["expected"]
            print(f"{m['stratum']:>18} components={observed} expected={expected} FAIL")
        if report.coverage is not None:
            found, expected = report.coverage
            print(f"coverage: found {found}, expected {expected}")
        print("result:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        budget = _env_budget() if args.budget is None else args.budget
        config = Config(node_budget=budget, output=args.output)
        handler = {
            "induce": cmd_induce,
            "invariants": cmd_invariants,
            "class": cmd_class,
            "same-class": cmd_same_class,
            "verify": cmd_verify,
        }[args.command]
        return handler(args, config)
    except (RauzyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
