"""JSON document formats for groups, polyadic groups, and analysis results."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .config import Caps, DEFAULT_CAPS
from .errors import ParseError
from .groups import FiniteGroup, make_automorphism, make_group
from .polyadic import (
    DerivedPresentation,
    PolyadicGroup,
    _check_arity_order,
    derive,
    from_table,
)


def group_to_doc(group: FiniteGroup) -> dict:
    return {
        "kind": "group",
        "order": group.order,
        "table": [list(row) for row in group.table],
    }


def _expect(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{context}: missing field {key!r}")
    return obj[key]


def _integers(values: Any, what: str) -> list[int]:
    """values, refused (ParseError) unless a list of integers; a JSON true
    or false is not an integer here, and a float is not truncated."""
    if not isinstance(values, list):
        raise ParseError(f"{what}: expected a list of integers, got {values!r}")
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ParseError(f"{what}: expected integers, got {bad[0]!r}")
    return values


def group_from_doc(obj: Any, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    if _expect(obj, "kind", "group document") != "group":
        raise ParseError(f"expected kind 'group', got {obj.get('kind')!r}")
    order = _expect(obj, "order", "group document")
    table = _expect(obj, "table", "group document")
    if not isinstance(table, list) or len(table) != order:
        raise ParseError(f"group table must have {order} rows")
    for i, row in enumerate(table):
        _integers(row, f"group table row {i}")
    return make_group(table, caps=caps)


def polyadic_to_doc(p: PolyadicGroup) -> dict:
    pres = p.presentation
    if isinstance(pres, DerivedPresentation):
        body = {
            "type": "derived",
            "base": group_to_doc(pres.base),
            "theta": list(pres.theta.perm),
            "b": pres.b,
        }
    else:
        body = {"type": "table", "order": pres.order, "flat": p.flat_np.tolist()}
    return {"kind": "polyadic", "arity": p.arity, "presentation": body}


def polyadic_from_doc(
    obj: Any, caps: Caps = DEFAULT_CAPS, verify: bool = True
) -> PolyadicGroup:
    if _expect(obj, "kind", "polyadic document") != "polyadic":
        raise ParseError(f"expected kind 'polyadic', got {obj.get('kind')!r}")
    arity = _expect(obj, "arity", "polyadic document")
    if not isinstance(arity, int) or arity < 2:
        raise ParseError(f"arity must be an integer >= 2, got {arity!r}")
    pres = _expect(obj, "presentation", "polyadic document")
    kind = _expect(pres, "type", "presentation")
    if kind == "derived":
        base = group_from_doc(_expect(pres, "base", "derived presentation"), caps)
        theta_perm = _integers(_expect(pres, "theta", "derived presentation"), "theta")
        theta = make_automorphism(base, theta_perm)
        (b,) = _integers([_expect(pres, "b", "derived presentation")], "constant b")
        if not 0 <= b < base.order:
            raise ParseError(f"constant b = {b!r} out of range")
        return derive(base, theta, b, arity, caps=caps)
    if kind == "table":
        order = _expect(pres, "order", "table presentation")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ParseError(f"order must be an integer >= 1, got {order!r}")
        _check_arity_order(arity, order, caps)  # before order**arity is computed
        flat = _integers(_expect(pres, "flat", "table presentation"), "flat table")
        if len(flat) != order**arity:
            raise ParseError(f"flat table must have {order}^{arity} entries, not {len(flat)}")
        if min(flat) < 0 or max(flat) >= order:
            raise ParseError("flat table entries out of range")
        return from_table(arity, order, flat, caps=caps, verify=verify)
    raise ParseError(f"unknown presentation type {kind!r}")


def subgroup_to_doc(members) -> dict:
    mem = members.members if hasattr(members, "members") else members
    return {"members": [int(x) for x in mem]}


def classes_to_doc(classes) -> dict:
    return {"classes": [[int(x) for x in cls] for cls in classes]}


def hom_to_doc(psi, decomposition=None) -> dict:
    doc: dict = {"map": [int(x) for x in psi.map]}
    if decomposition is not None:
        doc["decomposition"] = {
            "a": int(decomposition.a),
            "phi": [int(x) for x in decomposition.phi],
        }
    return doc


def report_to_doc(report) -> dict:
    witnesses = {}
    for key, w in report.witnesses.items():
        if hasattr(w, "classes"):
            witnesses[key] = classes_to_doc(w.classes)
        elif hasattr(w, "members"):
            witnesses[key] = subgroup_to_doc(w)
        else:
            witnesses[key] = w
    return {
        "uas": report.uas,
        "gts": report.gts,
        "gts_star": report.gts_star,
        "reduced": report.reduced,
        "degenerate": report.degenerate,
        "method": report.method,
        "witnesses": witnesses,
    }


def axiom_report_to_doc(report) -> dict:
    return {
        "associative": report.associative,
        "solvable": report.solvable,
        "violations": [list(v) for v in report.violations],
    }


def load_document(path: str | Path, caps: Caps = DEFAULT_CAPS, verify: bool = True):
    """Load a group or polyadic document from a JSON file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as exc:  # a directory, a missing permission
        raise ParseError(f"{path}: cannot read ({exc.strerror})")
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")
    kind = _expect(obj, "kind", str(path))
    if kind == "group":
        return group_from_doc(obj, caps)
    if kind == "polyadic":
        return polyadic_from_doc(obj, caps, verify=verify)
    raise ParseError(f"{path}: unknown document kind {kind!r}")


def load_polyadic(path: str | Path, caps: Caps = DEFAULT_CAPS, verify: bool = True) -> PolyadicGroup:
    doc = load_document(path, caps, verify=verify)
    if not isinstance(doc, PolyadicGroup):
        raise ParseError(f"{path}: expected a polyadic document")
    return doc
