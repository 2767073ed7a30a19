"""Command-line front end.

Exit codes: 0 when the command succeeds (and, for checks, the property
holds), 1 when a checked property fails or a synthesis precondition is
violated, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import List, Optional

from .automata import (
    FormatError,
    InvariantError,
    Pdes,
    PdesError,
    Verdict,
    dumps_automaton,
    loads_automaton,
    minimize,
    observer_automaton,
    product,
)
from .infimal import infimal_pipeline, strip_eps_edges
from .simulate import TrialConfig, run_trials
from .supervisor import (
    NotSublanguageError,
    SynthesisError,
    dumps_scaling_map,
    dumps_supervisor_map,
    loads_supervisor_map,
    scaling_from_spec,
    supervisor_from_scaling,
)
from .values import format_prob
from .verification import check_controllable, check_observable


def _color_enabled() -> bool:
    if os.environ.get("PDES_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _verdict_word(holds: bool) -> str:
    word = "HOLDS" if holds else "FAILS"
    if _color_enabled():
        code = "32" if holds else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8; a byte that is not UTF-8 is a
    FormatError on its line, as the parsers number lines."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"{path} is not UTF-8: byte 0x{data[e.start]:02x}: {e.reason}", line) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e.strerror}")


def _load(path: str) -> Pdes:
    text = _read(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pdes = loads_automaton(text)
    for w in caught:
        print(f"warning: {path}: {w.message}", file=sys.stderr)
    return pdes


def _fmt_word(word) -> str:
    return ",".join(word) if word else "eps"


def _print_verdict(name: str, verdict: Verdict) -> int:
    print(f"{name}: {_verdict_word(verdict.holds)}")
    if verdict.holds:
        return 0
    w = verdict.witness
    words = [_fmt_word(s) for s in w.strings]
    where = f"after {words[0]}" if len(words) == 1 else f"for {words[0]} / {words[1]}"
    lhs, rhs = format_prob(w.lhs), format_prob(w.rhs)
    print(f"violation {where} on event {w.event}: {lhs} vs {rhs}")
    s2 = words[1] if len(words) > 1 else "-"
    print(f"WITNESS s1={words[0]} s2={s2} event={w.event} lhs={lhs} rhs={rhs}")
    return 1


def _emit(text: str, out: Optional[str]) -> None:
    """Write a command's output to the file ``out``, or to stdout."""
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


# command -> (the property it checks, its check)
_CHECKS = {
    "check-ctrl": ("probabilistic controllability", check_controllable),
    "check-obs": ("probabilistic observability", check_observable),
}


def cmd_check(args) -> int:
    plant = _load(args.plant)
    spec = _load(args.spec)
    return _print_verdict(args.property, args.check(plant, spec))


def cmd_synthesize(args) -> int:
    plant = _load(args.plant)
    spec = _load(args.spec)
    # synthesis succeeds only where both checks hold, so the checks run
    # only after it fails, to say which property fails and why; a spec
    # that is not a sublanguage is not checked, as inf-pco rejects it too
    try:
        scaling = scaling_from_spec(plant, spec)
    except NotSublanguageError as e:
        print(f"synthesis failed: {e}")
        return 1
    except (SynthesisError, InvariantError) as e:
        verdicts = [(title, check(plant, spec)) for title, check in _CHECKS.values()]
        if not all(verdict for _, verdict in verdicts):
            for title, verdict in verdicts:
                if not verdict:
                    _print_verdict(title, verdict)
            print("specification is not achievable; consider inf-pco for the closest superlanguage")
            return 1
        if isinstance(e, InvariantError):
            raise
        print(f"synthesis failed: {e}")
        return 1
    sup = supervisor_from_scaling(scaling)
    _write(args.scaling_out, dumps_scaling_map(scaling))
    try:
        _write(args.supervisor_out, dumps_supervisor_map(sup))
    except FormatError:
        os.remove(args.scaling_out)  # both maps or neither
        raise
    print(f"scaling map written to {args.scaling_out}")
    print(f"supervisor written to {args.supervisor_out}")
    return 0


def cmd_inf_pco(args) -> int:
    plant = _load(args.plant)
    spec = _load(args.spec)
    result = infimal_pipeline(plant, spec)
    if args.strip_eps:
        result = strip_eps_edges(result)
    _emit(dumps_automaton(minimize(result, prefix="x")), args.out)
    if args.out:
        print(f"infimal superlanguage generator written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    plant = _load(args.plant)
    sup = loads_supervisor_map(_read(args.supervisor))
    cfg = TrialConfig(trials=args.trials, max_depth=args.depth, seed=args.seed)
    report = run_trials(plant, sup, cfg)
    sys.stdout.write(report.to_tsv())
    return 0


def cmd_product(args) -> int:
    a = _load(args.left)
    b = _load(args.right)
    _emit(dumps_automaton(product(a, b).canonical_names()), args.out)
    return 0


def cmd_observer(args) -> int:
    a = _load(args.automaton)
    _emit(dumps_automaton(observer_automaton(a).canonical_names("t")), args.out)
    return 0


def cmd_eval(args) -> int:
    a = _load(args.automaton)
    for text in args.strings:
        word = tuple(text.split())
        value = a.eval_language(word)
        print(f"{_fmt_word(word)}\t{format_prob(value, 'fraction')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdesctl",
        description="Supervisory control of probabilistic discrete event systems "
        "under partial observation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (title, check) in _CHECKS.items():
        p = sub.add_parser(command, help=f"verify {title}")
        p.add_argument("plant")
        p.add_argument("spec")
        p.set_defaults(func=cmd_check, check=check, property=title)

    p = sub.add_parser("synthesize", help="synthesize a supervisor realizing the spec")
    p.add_argument("plant")
    p.add_argument("spec")
    p.add_argument("--scaling-out", default="scaling.map")
    p.add_argument("--supervisor-out", default="supervisor.map")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("inf-pco", help="compute the infimal achievable superlanguage")
    p.add_argument("plant")
    p.add_argument("spec")
    p.add_argument("--out")
    p.add_argument("--strip-eps", action="store_true",
                   help="drop infinitesimal-probability edges from the output")
    p.set_defaults(func=cmd_inf_pco)

    p = sub.add_parser("simulate", help="Monte-Carlo run of a plant under a supervisor")
    p.add_argument("--plant", required=True)
    p.add_argument("--supervisor", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("product", help="synchronous product of two automata")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("observer", help="observer (subset construction) of an automaton")
    p.add_argument("automaton")
    p.add_argument("--out")
    p.set_defaults(func=cmd_observer)

    p = sub.add_parser("eval", help="evaluate language values of strings")
    p.add_argument("automaton")
    p.add_argument("strings", nargs="+", metavar="string",
                   help="event sequence, events separated by spaces")
    p.set_defaults(func=cmd_eval)
    return parser


# built once per process: parse_args returns a fresh Namespace on every call
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except PdesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, SynthesisError) else 2


if __name__ == "__main__":
    sys.exit(main())
