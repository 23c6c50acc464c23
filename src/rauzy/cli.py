"""Command line front end.

Every command is a thin wrapper over the library; outputs are plain UTF-8.
Flags have environment-variable twins (``RAUZY_BUDGET``, ``RAUZY_OUTPUT``);
a flag overrides its twin, and :func:`main` reads the twins on every call.
:func:`_parse` reads the command line from one table, :data:`_COMMANDS`,
and builds no parser object.  It follows the standard library's parser on
that table: global options before the command, the command's options and
positionals in any order after it, ``--name value`` and ``--name=value``,
a unique prefix of a long option, and a repeated option, whose last value
wins.  A usage error prints ``usage: ...`` and ``rauzy: error: ...`` on
stderr and exits with status 2; ``-h`` or ``--help`` prints one text that
names every command and exits with status 0.  When the reader of stdout
closes it early (``rauzy class ... | head -1``), the command stops quietly
with status 1.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional

from . import classes, induction, invariants
from .combinat import PermKind, format_perm, is_irreducible, parse
from .errors import RauzyError, ReducibleSeed
from .invariants import StratumKind, parse_stratum

# The options before the command, each with the type that reads its value
# or the tuple of the values it takes.
_GLOBALS = {"--budget": int, "--output": ("text", "json", "dot")}

# Each command: its positionals, its flags (one mutually exclusive group)
# and its valued options, read as the global ones are.
_COMMANDS = {
    "induce": (("perm", "moves"), (), {}),
    "invariants": (("perm",), (), {}),
    "class": (("perm",), ("--dot", "--json", "--count"), {}),
    "same-class": (("perm1", "perm2"), ("--fast", "--bfs", "--both"), {}),
    "verify": ((), (), {"--d": int, "--kind": ("iet", "quad"), "--stratum": str}),
}

_USAGE = """\
usage: rauzy [-h] [--budget INT] [--output {text,json,dot}]
             {induce,invariants,class,same-class,verify} ...
"""

_HELP = _USAGE + """
Rauzy induction on permutations and generalized permutations

commands:
  induce PERM MOVES     apply a word of moves over {0,1} to a table
  invariants PERM       stratum and component data
  class PERM [--dot | --json | --count]
                        enumerate a Rauzy class
  same-class PERM1 PERM2 [--fast | --bfs | --both]
                        decide class membership
  verify [--d INT] [--kind {iet,quad}] [--stratum S]
                        check the class-count structure: --stratum alone,
                        or both --d and --kind

options (before the command):
  -h, --help            show this help message and exit
  --budget INT          vertex budget of class enumeration and membership
                        searches, one unit per table reached (a search over
                        row-exchange pairs counts both tables of a pair only
                        once it knows the class holds both), table budget
                        of the reference-table searches of component
                        labels, and budget of the seed keys verify holds
                        (default: RAUZY_BUDGET or 10**7)
  --output {text,json,dot}
                        output format (default: RAUZY_OUTPUT or text)
"""


def _fail(message: str) -> NoReturn:
    """Print the usage and ``message`` on stderr and exit with status 2."""
    sys.stderr.write(f"{_USAGE}rauzy: error: {message}\n")
    raise SystemExit(2)


def _option(
    word: str, names: tuple[str, ...]
) -> Optional[tuple[Optional[str], Optional[str]]]:
    """How ``word`` reads where ``names`` are the options.

    None for a positional: a word not starting with ``-``, a lone ``-`` or
    ``--``, a negative number, or a word with a space that names no option.
    Otherwise the option it names, or None for one not in ``names``, and
    the value it carries after ``=``, or None.  A unique prefix of a long
    option names it; one shared by several options is an error.
    """
    if word[:1] != "-" or word in ("-", "--"):
        return None
    name, eq, value = word.partition("=")
    value = value if eq else None
    if name in names:
        return name, value
    if name.startswith("--"):
        found = [n for n in names if n.startswith(name)]
        if len(found) > 1:
            _fail(f"ambiguous option: {word} could match {', '.join(found)}")
        if found:
            return found[0], value
    # a negative number (-5, -.5, -1.5) is a positional, as is a table
    whole, dot, fraction = word[1:].partition(".")
    if dot:
        number = fraction.isdecimal() and (not whole or whole.isdecimal())
    else:
        number = whole.isdecimal()
    if number or " " in word:
        return None
    return None, value


def _value(name: str, text: str, takes):
    """``text`` read as the value of option ``name``, which ``takes`` it."""
    if isinstance(takes, tuple):
        if text not in takes:
            choices = ", ".join(map(repr, takes))
            _fail(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return takes(text)
    except ValueError:
        _fail(f"argument {name}: invalid {takes.__name__} value: {text!r}")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command line ``argv`` as the fields the handlers read.

    ``budget``, ``output`` and ``command``, then the command's positionals,
    its flags (False unless given) and its valued options (None unless
    given), each named after its option without the dashes.
    """
    args = SimpleNamespace(budget=None, output=None)
    positionals = None  # the names still to fill; None before the command
    flags, valued = (), _GLOBALS
    names = ("-h", "--help", *valued)
    extras, dashes, i = [], False, 0
    while i < len(argv):
        word = argv[i]
        i += 1
        option = None if dashes else _option(word, names)
        if option is None:
            if positionals is None:
                if word not in _COMMANDS:
                    choices = ", ".join(map(repr, _COMMANDS))
                    _fail(f"argument command: invalid choice: {word!r} (choose from {choices})")
                args.command = word
                positionals, flags, valued = _COMMANDS[word]
                positionals = list(positionals)
                names = ("-h", "--help", *flags, *valued)
                for name in flags:
                    setattr(args, name[2:], False)
                for name in valued:
                    setattr(args, name[2:], None)
                # an ambiguous prefix after the command fails before any option
                for later in argv[i:]:
                    if later == "--":
                        break
                    _option(later, names)
            elif word == "--" and not dashes:
                dashes = True  # every later word is a positional
            elif positionals:
                setattr(args, positionals.pop(0), word)
            else:
                extras.append(word)
            continue
        name, value = option
        if name is None:
            extras.append(word)
        elif name in valued:
            if value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i], names):
                    _fail(f"argument {name}: expected one argument")
                value = argv[i]
                i += 1
            setattr(args, name[2:], _value(name, value, valued[name]))
        elif value is not None:
            shown = "-h/--help" if name in ("-h", "--help") else name
            _fail(f"argument {shown}: ignored explicit argument {value!r}")
        elif name in flags:
            for other in flags:
                if other != name and getattr(args, other[2:]):
                    _fail(f"argument {name}: not allowed with argument {other}")
            setattr(args, name[2:], True)
        else:
            sys.stdout.write(_HELP)
            raise SystemExit(0)
    if positionals is None:
        _fail("the following arguments are required: command")
    if positionals:
        _fail(f"the following arguments are required: {', '.join(positionals)}")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def cmd_induce(args) -> int:
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


def cmd_invariants(args) -> int:
    p = parse(args.perm)
    profile = invariants.singularity_profile(p)
    st = invariants._stratum_of(p, profile)
    label = invariants._component_label(p, st, args.budget)
    payload = {
        "stratum": st.text,
        "genus": st.genus,
        "orders": list(profile.orders),
        "marked": profile.marked,
        "component": label.value,
    }
    if args.output == "json":
        # the bytes of json.dumps(payload, indent=2), with no json import:
        # the two strings are a stratum and a label name, which need no escape
        orders = ",\n".join(f"    {k}" for k in profile.orders)
        print(
            "{\n"
            f'  "stratum": "{st.text}",\n'
            f'  "genus": {st.genus},\n'
            f'  "orders": [\n{orders}\n  ],\n'
            f'  "marked": {profile.marked},\n'
            f'  "component": "{label.value}"\n'
            "}"
        )
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def cmd_class(args) -> int:
    diagram = classes.rauzy_class(parse(args.perm), args.budget)
    output = "dot" if args.dot else "json" if args.json else args.output
    if args.count:
        print(len(diagram))
    elif output == "dot":
        print(classes.export_dot(diagram))
    elif output == "json":
        print(classes.diagram_json(diagram))
    else:
        for v in diagram.vertices:
            print(format_perm(v))
    return 0


def cmd_same_class(args) -> int:
    p1 = parse(args.perm1)
    p2 = parse(args.perm2)
    budget = args.budget
    if args.both:
        fast = classes.same_class_fast(p1, p2, budget)
        bfs = classes.same_class_bfs(p1, p2, budget)
        if fast != bfs:
            import json

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


def cmd_verify(args) -> int:
    if args.stratum:
        if args.d is not None or args.kind is not None:
            raise ValueError("give --stratum alone, or both --d and --kind")
        st = parse_stratum(args.stratum)
        kind = (
            PermKind.IET if st.kind is StratumKind.ABELIAN else PermKind.QUADRATIC
        )
        report = classes.verify_main_theorem(
            st.d, kind, args.budget, only_stratum=st
        )
    else:
        if args.d is None or args.kind is None:
            raise ValueError("need --stratum or both --d and --kind")
        kind = PermKind.IET if args.kind == "iet" else PermKind.QUADRATIC
        report = classes.verify_main_theorem(args.d, kind, args.budget)
    if args.output == "json":
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
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.budget is None:
            text = os.environ.get("RAUZY_BUDGET", str(10**7))
            try:
                args.budget = int(text)
            except ValueError:
                raise ValueError(
                    f"RAUZY_BUDGET must be an integer, not {text!r}"
                ) from None
        if args.budget < 1:
            raise ValueError("budget must be at least 1")
        args.output = args.output or os.environ.get("RAUZY_OUTPUT", "text")
        if args.output not in ("text", "json", "dot"):
            raise ValueError("output must be text, json or dot")
        handler = {
            "induce": cmd_induce,
            "invariants": cmd_invariants,
            "class": cmd_class,
            "same-class": cmd_same_class,
            "verify": cmd_verify,
        }[args.command]
        status = handler(args)
        sys.stdout.flush()
        return status
    except (RauzyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # an in-process caller's stream
            fd = None
        if fd is None:
            raise
        # the reader closed the pipe early (``| head``): point stdout at
        # devnull so the flush at exit does not raise again, and stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
