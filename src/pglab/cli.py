"""Command-line front end: verify, analyze, census, hom, iso, quotient.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 cap
exceedance.  Caps come from PGLAB_* environment variables and
per-invocation flags.  analyze and census cross-check with the congruence
and subgroup oracles only where the subset scan's m·2^m mask fits
--axiom-cost-cap and the order fits a packed key (order ≤ 16).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .config import ENV_PREFIX, Caps, caps_from_env
from .errors import CapExceeded, PolyadicError, ValidationError
from .congruence import (
    congruences,
    enumerate_normal_polyadic,
    is_normal_congruence,
    kernel_class,
    lattice_table,
    quotient_by_congruence,
    quotient_polyadic,
    congruence_from_classes,
)
from .morphisms import (
    PolyadicHom,
    are_isomorphic,
    decompose_hom,
    enumerate_homs,
    is_polyadic_hom,
)
from .polyadic import (
    dornte_witness,
    hosszu_gloskin,
    n_ary_identity,
    verify_axioms,
)
from .serialize import (
    axiom_report_to_doc,
    hom_to_doc,
    load_polyadic,
    polyadic_to_doc,
    report_to_doc,
    subgroup_to_doc,
)
from .simplicity import census, simplicity_report
from .substructures import enumerate_polyadic_subgroups


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_verify(args, caps: Caps) -> int:
    p = load_polyadic(args.path, caps=caps, verify=False)
    payload: dict = {"arity": p.arity, "order": p.order}
    lines = [f"arity: {p.arity}, order: {p.order}"]
    if p.is_derived:
        # construction already enforced the twist gates; re-state them
        payload["presentation"] = "derived"
        lines.append("presentation: derived (twist gates hold by construction)")
    else:
        report = verify_axioms(p, caps=caps)
        payload["axioms"] = axiom_report_to_doc(report)
        undecided = report.associative is None
        lines.append(f"associative: {'undecided' if undecided else _yes(report.associative)}")
        lines.append(f"solvable: {_yes(report.solvable)}")
        if not report.ok:
            payload["ok"] = False
            _emit(args, payload, lines + [f"violations: {list(report.violations)}"])
            return 1
    witness = dornte_witness(p)
    payload["dornte"] = witness is None
    lines.append(f"Dörnte identities: {_yes(witness is None)}")
    if witness is not None:
        payload["dornte_witness"] = list(witness)
        lines.append(f"  witness: {witness}")
        _emit(args, payload, lines)
        return 1
    payload["ok"] = True
    _emit(args, payload, lines)
    return 0


def _parse_elements(text: str) -> tuple[int, ...]:
    """Comma-separated elements, in order; the library range-checks them."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ValidationError(f"cannot parse element list {text!r}")


def cmd_analyze(args, caps: Caps) -> int:
    p = load_polyadic(args.path, caps=caps)
    payload: dict = {"arity": p.arity, "order": p.order}
    lines = [f"arity: {p.arity}, order: {p.order}"]
    if args.skew:
        table = [p.skew(x) for x in range(p.order)]
        payload["skew"] = table
        lines.append("skew: " + " ".join(f"{x}↦{y}" for x, y in enumerate(table)))
    if args.retract is not None:
        hg = hosszu_gloskin(p, args.retract)
        payload["retract"] = {
            "anchor": args.retract,
            "table": [list(r) for r in hg.base.table],
            "relabel": list(hg.relabel),
            "twist": list(hg.theta.perm),
            "constant": hg.b,
        }
        lines.append(f"retract at {args.retract}: order {hg.base.order}, "
                     f"twist {list(hg.theta.perm)}, constant {hg.b}")
    if args.subgroups:
        subs = enumerate_polyadic_subgroups(p, caps=caps)
        payload["subgroups"] = [subgroup_to_doc(s) for s in subs]
        lines.append(f"polyadic subgroups ({len(subs)}): "
                     + ", ".join(str(list(s.members)) for s in subs))
    if args.normal:
        subs = enumerate_normal_polyadic(p, caps=caps)
        payload["normal_subgroups"] = [subgroup_to_doc(s) for s in subs]
        lines.append(f"normal polyadic subgroups ({len(subs)}): "
                     + ", ".join(str(list(s.members)) for s in subs))
    if args.congruences:
        congs = congruences(p, caps=caps)
        entries = [
            {"classes": [list(x) for x in c.classes], "kernel": list(kc.members),
             "kernel_related_to_constant": kc.b_related, "normal_witness": is_normal_congruence(c)}
            for c, kc in zip(congs, map(kernel_class, congs))
        ]
        payload["congruences"] = entries
        table = lattice_table(p)
        all_commute = bool((table.commutes & table.composition_is_product).all())
        payload["lattice"] = {"meet": table.meet.tolist(), "join": table.join.tolist(),
                              "all_commute": all_commute, "modular": table.modular}
        lines.append(f"congruences: {len(congs)}; commuting pairs: "
                     f"{_yes(all_commute)}; modular: {_yes(table.modular)}")
        for e in entries:
            lines.append(f"  classes {e['classes']} kernel {e['kernel']}")
    if args.simplicity:
        rep = simplicity_report(p, caps=caps)
        payload["simplicity"] = report_to_doc(rep)
        lines.append(
            f"UAS: {_yes(rep.uas)}, GTS: {_yes(rep.gts)}, GTS*: {_yes(rep.gts_star)}, "
            f"reduced: {_yes(rep.reduced)}"
        )
    if args.quotient is not None:
        members = tuple(sorted(_parse_elements(args.quotient)))
        q = quotient_polyadic(p, members, caps)
        payload["quotient"] = {
            "classes": [list(c) for c in q.classes],
            "polyadic": polyadic_to_doc(q.quotient),
        }
        lines.append(f"quotient by {list(members)}: {len(q.classes)} classes, "
                     f"identity class index {n_ary_identity(q.quotient)}")
    _emit(args, payload, lines)
    return 0


def cmd_census(args, caps: Caps) -> int:
    entries = census(args.order, args.arity, args.mode, caps=caps)
    payload = {
        "order": args.order,
        "arity": args.arity,
        "mode": args.mode,
        "classes": [
            {
                "polyadic": polyadic_to_doc(e.representative),
                "report": report_to_doc(e.report),
                "multiplicity": e.multiplicity,
            }
            for e in entries
        ],
    }
    lines = [f"census order={args.order} arity={args.arity} mode={args.mode}: "
             f"{len(entries)} classes"]
    for i, e in enumerate(entries):
        rep = e.report
        lines.append(
            f"  class {i}: multiplicity {e.multiplicity}, UAS {_yes(rep.uas)}, "
            f"GTS {_yes(rep.gts)}, GTS* {_yes(rep.gts_star)}, reduced {_yes(rep.reduced)}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_hom(args, caps: Caps) -> int:
    p = load_polyadic(getattr(args, "from"), caps=caps)
    q = load_polyadic(args.to, caps=caps)
    if args.map is not None:
        candidate = _parse_elements(args.map)
        ok, witness = is_polyadic_hom(candidate, p, q, caps=caps)
        if not ok:
            _emit(
                args,
                {"map": list(candidate), "hom": False, "witness": list(witness)},
                [f"not a homomorphism, witness {witness}"],
            )
            return 1
        psi = PolyadicHom(p, q, candidate)
        dec = decompose_hom(psi)
        _emit(
            args,
            {"hom": True, **hom_to_doc(psi, dec)},
            [f"homomorphism; split a = {dec.a}, phi = {list(dec.phi)}"],
        )
        return 0
    homs = enumerate_homs(p, q, caps=caps)
    docs = [hom_to_doc(h, decompose_hom(h)) for h in homs]
    lines = [f"{len(homs)} homomorphisms"]
    for d in docs:
        lines.append(f"  map {d['map']} a={d['decomposition']['a']} "
                     f"phi={d['decomposition']['phi']}")
    _emit(args, {"homs": docs}, lines)
    return 0


def cmd_iso(args, caps: Caps) -> int:
    p = load_polyadic(getattr(args, "from"), caps=caps)
    q = load_polyadic(args.to, caps=caps)
    psi = are_isomorphic(p, q)
    if psi is None:
        _emit(args, {"isomorphic": False}, ["not isomorphic"])
        return 0
    _emit(
        args,
        {"isomorphic": True, **hom_to_doc(psi)},
        [f"isomorphic via {list(psi.map)}"],
    )
    return 0


def cmd_quotient(args, caps: Caps) -> int:
    p = load_polyadic(args.path, caps=caps)
    if args.subgroup is not None:
        members = tuple(sorted(_parse_elements(args.subgroup)))
        q = quotient_polyadic(p, members, caps)
        payload = {
            "classes": [list(c) for c in q.classes],
            "polyadic": polyadic_to_doc(q.quotient),
        }
        lines = [f"quotient by subgroup {list(members)}: {len(q.classes)} classes"]
    else:
        classes = [
            _parse_elements(chunk) for chunk in args.congruence.split("|")
        ]
        cong = congruence_from_classes(p, classes)
        result = quotient_by_congruence(p, cong)
        payload = {"polyadic": polyadic_to_doc(result)}
        lines = [f"quotient by congruence: order {result.order}"]
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglab",
        description="Finite polyadic (n-ary) group engine",
    )
    parser.add_argument("--json", action="store_true", help="emit machine output")
    for f in dataclasses.fields(Caps):
        name = f.name.replace("_", "-")
        parser.add_argument(f"--{name}", type=int, default=None, help=f"override {name}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_verify = sub.add_parser("verify", help="validate a polyadic document")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser("analyze", help="run analyses on a document")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--skew", action="store_true")
    p_analyze.add_argument("--retract", type=int, default=None, metavar="A")
    p_analyze.add_argument("--subgroups", action="store_true")
    p_analyze.add_argument("--normal", action="store_true")
    p_analyze.add_argument("--congruences", action="store_true")
    p_analyze.add_argument("--simplicity", action="store_true")
    p_analyze.add_argument("--quotient", default=None, metavar="MEMBERS")
    p_analyze.set_defaults(func=cmd_analyze)

    p_census = sub.add_parser("census", help="isomorphism classes at a given size")
    p_census.add_argument("--order", type=int, required=True)
    p_census.add_argument("--arity", type=int, required=True)
    p_census.add_argument("--mode", choices=("derived", "exhaustive"), default="derived")
    p_census.set_defaults(func=cmd_census)

    p_hom = sub.add_parser("hom", help="check or enumerate homomorphisms")
    p_hom.add_argument("--from", required=True)
    p_hom.add_argument("--to", required=True)
    group = p_hom.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", default=None, help="comma-separated image list")
    group.add_argument("--enumerate", action="store_true")
    p_hom.set_defaults(func=cmd_hom)

    p_iso = sub.add_parser("iso", help="decide isomorphism")
    p_iso.add_argument("--from", required=True)
    p_iso.add_argument("--to", required=True)
    p_iso.set_defaults(func=cmd_iso)

    p_quot = sub.add_parser("quotient", help="quotient by a subgroup or congruence")
    p_quot.add_argument("path")
    group = p_quot.add_mutually_exclusive_group(required=True)
    group.add_argument("--subgroup", default=None, metavar="MEMBERS")
    group.add_argument("--congruence", default=None, metavar="CLASSES")
    p_quot.set_defaults(func=cmd_quotient)
    return parser


def _caps_from_args(args) -> Caps:
    caps = caps_from_env()
    overrides = {}
    for f in dataclasses.fields(Caps):
        flag = getattr(args, f.name, None)
        if flag is not None:
            overrides[f.name] = flag
    return dataclasses.replace(caps, **overrides)


# Flags whose value is an element list (_parse_elements).
_ELEMENT_FLAGS = frozenset({"--map", "--quotient", "--subgroup", "--congruence"})


def _element_lists_joined(commands: dict, argv: Sequence[str]) -> list[str]:
    """argv with each element-list flag joined to a value that starts with
    a negative element (--map -1,2 as --map=-1,2): argparse reads such a
    value as an option, and the library's carrier check refuses it.  A flag
    is read as argparse reads it among its subcommand's options (commands,
    name to subparser): spelled in full, or a prefix of one option alone
    (--quot for --quotient)."""
    command = next((commands[tok] for tok in argv if tok in commands), None)
    options = command._option_string_actions if command else {}
    out: list[str] = []
    for tok in argv:
        if out and tok[:1] == "-" and tok[1:2].isdigit() and _resolved(out[-1], options) in _ELEMENT_FLAGS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _resolved(flag: str, options) -> Optional[str]:
    """The option argparse reads the long flag as: itself, or the one option
    it is a prefix of; None when it is no prefix or an ambiguous one."""
    if flag in options or not flag.startswith("--"):
        return flag
    hits = [option for option in options if option.startswith(flag)]
    return hits[0] if len(hits) == 1 else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_element_lists_joined(parser.commands, argv))
    try:
        return args.func(args, _caps_from_args(args))
    except CapExceeded as exc:
        flag, variable = exc.cap.replace("_", "-"), ENV_PREFIX + exc.cap.upper()
        print(f"cap exceeded: {exc} (raise it with --{flag} or {variable})", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except PolyadicError as exc:
        print(f"internal contradiction: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at exit does not raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
