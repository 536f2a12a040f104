"""Command-line front end.

Commands: check, search, monogenic, period, discriminant. Output goes to
stdout as either a human-readable text block (default) or one JSON object
(--format json) with top-level keys schema_version, command, inputs,
result. Wall-clock timing is printed to stderr so stdout stays
byte-deterministic for identical inputs; --timing embeds it in the JSON
record for callers who want it inline and accept the nondeterminism.

Exit codes: 0 success, 1 hypothesis violation, 2 invalid arguments,
3 internal inconsistency, 4 resource budget exceeded.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

from .errors import HypothesisError, InconsistencyError, ResourceBudgetError
from .intmath import DEFAULT_FACTOR_BUDGET
from .lucas import pisano_period
from .trinomial import _fp_discriminant, discriminant_resultant, is_monogenic_fp, wss_trinomial
from .wss import CRITERIA, WssClassification, classify, search

SCHEMA_VERSION = "1"


def _resolve_budget(args) -> int:
    """--factor-budget, else WSS_FACTOR_BUDGET, else the default; ValueError unless an int >= 0."""
    if args.factor_budget is not None:
        budget, source = args.factor_budget, "--factor-budget"
    else:
        raw = os.environ.get("WSS_FACTOR_BUDGET", str(DEFAULT_FACTOR_BUDGET))
        try:
            budget, source = int(raw), "WSS_FACTOR_BUDGET"
        except ValueError:
            raise ValueError(f"WSS_FACTOR_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"{source} must be >= 0, got {budget}")
    return budget


def _emit(args, result: dict, text_lines: list[str], ms: float) -> None:
    if args.format == "json":
        import json

        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {name: getattr(args, name) for name in args.inputs},
            "result": result,
        }
        if args.timing:
            record["timing_ms"] = round(ms, 3)
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    print(f"timing_ms={ms:.3f}", file=sys.stderr)


def _printable_discriminant(k: int, p: int) -> int:
    """disc F_p; ResourceBudgetError if over limit digits: str()'s limit, or 4300 where off."""
    limit = getattr(sys, "get_int_max_str_digits", int)() or 4300  # none before 3.10.7
    log10 = p * (2 * math.log10(p) + math.log10(k * k + 4))  # of |disc|, to far better than 1
    if log10 <= limit + 1:
        disc = _fp_discriminant(k, p)
        if log10 <= limit - 1 or abs(disc) < 10**limit:
            return disc
    raise ResourceBudgetError(f"disc F_p for k={k}, p={p} has over {limit} digits to print")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _classification_result(c: WssClassification) -> dict:
    d = c._asdict()
    del d["k"], d["p"]
    d["is_wss"] = c.is_wss
    return d


def cmd_check(args, budget: int) -> tuple[dict, list[str]]:
    c = classify(args.k, args.p, factor_budget=budget)
    delta_text = str(c.delta) if c.delta_applicable else "n/a (p = 2)"
    text = [
        f"k-Wall-Sun-Sun check: k={c.k}, p={c.p}",
        f"  delta         {delta_text}",
        f"  pi(p)         {c.pi_p}",
        f"  pi(p^2)       {c.pi_p2}",
        f"  by_period     {_yesno(c.by_period)}",
        f"  by_entry      {_yesno(c.by_entry)}" + (" (derived)" if c.entry_alpha_derived else ""),
        f"  by_alpha      {_yesno(c.by_alpha)}" + (" (derived)" if c.entry_alpha_derived else ""),
        f"  by_monogenic  {_yesno(c.by_monogenic)}",
        f"  consistent    {_yesno(c.consistent)}",
        f"  is_wss        {_yesno(c.is_wss)}",
    ]
    return _classification_result(c), text


def cmd_search(args, budget: int) -> tuple[dict, list[str]]:
    res = search(
        args.k_min, args.k_max, args.p_max, args.criterion, jobs=args.jobs, factor_budget=budget
    )
    hits = []
    text = [
        f"search k in [{res.k_min}, {res.k_max}], primes p <= {res.p_max}, criterion={res.criterion}"
    ]
    for h in res.hits:
        entry = {"k": h.k, "p": h.p, "pi_p": h.pi_p, "pi_p2": h.pi_p2}
        if h.classification is not None:
            entry["classification"] = _classification_result(h.classification)
        hits.append(entry)
        text.append(f"  hit k={h.k} p={h.p} pi(p)={h.pi_p} pi(p^2)={h.pi_p2}")
    result = {"criterion": res.criterion, "hits": hits, "skipped_k": list(res.skipped_k)}
    text.append(f"  {len(res.hits)} hit(s), {len(res.skipped_k)} skipped k")
    if res.skipped_k:
        text.append("  skipped (hypotheses fail): " + ", ".join(map(str, res.skipped_k)))
    return result, text


def cmd_monogenic(args, budget: int) -> tuple[dict, list[str]]:
    report = is_monogenic_fp(args.k, args.p, factor_budget=budget)
    t, disc = report.trinomial, _printable_discriminant(args.k, args.p)
    result = {
        "trinomial": {"N": t.N, "M": t.M, "A": t.A, "B": t.B},
        "discriminant": disc,
        "monogenic": report.monogenic,
    }
    text = [
        f"monogenicity of x^{t.N} + ({t.A})*x^{t.M} + ({t.B})  [k={args.k}, p={args.p}]",
        f"  discriminant {disc}",
        f"  monogenic    {_yesno(report.monogenic)}",
    ]
    if args.report:
        result["verdicts"] = [v._asdict() for v in report.verdicts]
        for v in report.verdicts:
            word = "divides" if v.divides_index else "does not divide"
            text.append(f"  q={v.q} {word} the index (item {v.item_used}: {v.detail})")
    return result, text


def cmd_period(args, budget: int) -> tuple[dict, list[str]]:
    pi = pisano_period(args.k, args.m, factor_budget=budget)
    return {"pi": pi}, [f"pi({args.m}) = {pi} for k={args.k}"]


def cmd_discriminant(args, budget: int) -> tuple[dict, list[str]]:
    t = wss_trinomial(args.k, args.p)
    closed, resultant = _printable_discriminant(args.k, args.p), discriminant_resultant(t)
    match = closed == resultant
    result = {"closed_form": closed, "resultant": resultant, "match": match}
    text = [
        f"discriminant of {t}",
        f"  closed form  {closed}",
        f"  resultant    {resultant}",
        f"  match        {_yesno(match)}",
    ]
    if not match:
        raise InconsistencyError(
            f"discriminant mismatch for k={args.k}, p={args.p}: "
            f"closed form {closed} vs resultant {resultant}"
        )
    return result, text


# Each command's handler, help, the options its JSON record echoes as inputs, and its others.
_COMMANDS = {
    "check": (cmd_check, "classify one (k, p) pair by all criteria", ("k", "p"), ()),
    "search": (
        cmd_search,
        "scan a (k, p) grid for hits",
        ("k_min", "k_max", "p_max", "criterion"),
        ("jobs",),
    ),
    "monogenic": (
        cmd_monogenic, "monogenicity report for x^(2p) - k x^p - 1", ("k", "p"), ("report",)
    ),
    "period": (cmd_period, "period of the Lucas sequence mod m", ("k", "m"), ()),
    "discriminant": (
        cmd_discriminant, "closed-form discriminant with resultant cross-check", ("k", "p"), ()
    ),
}
# argparse keywords of each option but the required ints; the last three end every command.
_OPTIONS = {
    "criterion": {"choices": CRITERIA, "default": "all"},
    "jobs": {"type": int, "help": "worker processes (default and cap: cpu count)"},
    "report": {"action": "store_true", "help": "include per-prime verdicts"},
    "format": {"choices": ("text", "json"), "default": "text"},
    "factor_budget": {
        "type": int,
        "metavar": "ITERS",
        "help": "rho iteration cap for factoring (default: WSS_FACTOR_BUDGET env or 10^7)",
    },
    "timing": {
        "action": "store_true",
        "help": "embed timing_ms in the JSON record (breaks byte-determinism)",
    },
}


@functools.cache
def _build_parser():
    """The parser of every command, built once per process: parse_args keeps no state in it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="wss",
        description="k-Wall-Sun-Sun prime detection and trinomial monogenicity checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, inputs, others) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.set_defaults(func=func, inputs=inputs)
        for name in (*inputs, *others, "format", "factor_budget", "timing"):
            keywords = _OPTIONS.get(name, {"type": int, "required": True})
            sub.add_argument("--" + name.replace("_", "-"), **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        budget = _resolve_budget(args)
        t0 = time.perf_counter()
        result, text = args.func(args, budget)
        ms = (time.perf_counter() - t0) * 1000
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    _emit(args, result, text, ms)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
