"""JSON input format: presentations, action bundles, matched pairs, reports.

The document layout (all matrices row-major, scalars in the textual scalar
grammar)::

    {"format": 1,
     "group": {"torsion": [2], "free": 0},
     "bichar": [[-1]],
     "basis": [{"name": "e1", "deg": [0]}, ...],
     "products": {"dot": [["e1", "e2", [["e3", "-2"]]], ...], ...},
     "alpha": [["sqrt2", "0", ...], ...],
     "params": ["lambda1", ...],
     "roots": {"sqrt2": 2},
     "module": {"basis": [...], "beta": [[...]],
                "actions": {"l": {"e1": [[...]], ...}, ...}}}

``alpha`` defaults to the identity and ``module`` is optional.  Dumping a
presentation produced by any construction re-parses to an equal value, and
dumps are deterministic (fixed key order, entries sorted), so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .constructions import MatchedPairData
from .core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    _map_scalars,
    role_sort_key,
)
from .grading import AbelianGroup, Bicharacter
from .reports import json_text
from .representations import SLOT_ACTIONS, ActionBundle, slot_actions
from .scalars import Scalar, ScalarContext, ScalarError

__all__ = [
    "LoadError",
    "FORMAT_VERSION",
    "load_presentation",
    "load_presentation_file",
    "load_bundle",
    "load_matched_pair_file",
    "load_linear_map",
    "dump_matrix",
    "dump_presentation",
    "dump_presentation_file",
    "substitute_presentation",
]

FORMAT_VERSION = 1


class LoadError(ValueError):
    """Input document rejected; the message names the offending field."""


def _reason(exc: Exception, note: str = "") -> str:
    """``exc``'s message without Python's advice to raise its digit limit on
    integer text, which no command-line option can follow; ``note`` replaces it."""
    reason, advice, _ = str(exc).partition("; use sys.set_int_max_str_digits()")
    return reason + note if advice else reason


def _read_json(path) -> Any:
    """Parse a JSON file; an unreadable or undecodable file is a LoadError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise LoadError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Non-UTF-8 bytes, an integer literal past int()'s digit limit, or
        # arrays nested past the decoder's recursion limit.
        raise LoadError(f"{path}: {_reason(exc)}") from exc


# Each reader checks a value where it reads it and formats the value's
# location only in the branch that refuses it: a ``spot`` argument is a
# ``str.format`` template of the location, filled in from the values ``at``.


def _object(value: Any, spot: str, *at) -> dict:
    if not isinstance(value, dict):
        raise LoadError(f"{spot.format(*at) or 'document'}: expected an object")
    return value


def _list(value: Any, spot: str, *at) -> list:
    if not isinstance(value, list):
        raise LoadError(f"{spot.format(*at)}: expected a list")
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(values: Any, spot: str, *at) -> list:
    """The list of integers ``values`` at ``spot``; entry k is at ``spot[k]``."""
    for k, value in enumerate(_list(values, spot, *at)):
        if not _is_int(value):
            raise LoadError(f"{spot.format(*at)}[{k}]: expected an integer, got {value!r}")
    return values


def _get(doc: Mapping, field: str, where: str):
    if field not in doc:
        raise LoadError(f"missing field {where}{field}")
    return doc[field]


def _context_from(doc: Mapping, where: str = "") -> ScalarContext:
    params = _list(doc.get("params", []), "{}params", where)
    roots = _object(doc.get("roots", {}), "{}roots", where)
    for k, name in enumerate(params):
        if not isinstance(name, str):
            raise LoadError(f"{where}params[{k}]: expected a name, got {name!r}")
    for name, q in roots.items():
        if not isinstance(q, (int, str)) or isinstance(q, bool):
            raise LoadError(f"{where}roots.{name}: expected an integer or a rational string")
    try:
        return ScalarContext(params, roots)
    except ScalarError as exc:
        raise LoadError(f"{where}params/roots: {exc}") from exc


def _scalar(ctx: ScalarContext, value: Any, spot: str, *at) -> Scalar:
    # Only exact values: a JSON float such as 1.5 (or a boolean) is refused,
    # not truncated by int().
    try:
        if isinstance(value, str):
            return ctx.parse(value)
        if _is_int(value):
            return ctx.scalar(value)
    except (ScalarError, ValueError) as exc:
        raise LoadError(f"{spot.format(*at)}: {_reason(exc)}") from exc
    raise LoadError(f"{spot.format(*at)}: expected an integer or a scalar string, got {value!r}")


def _unnamed(name: Any, where: str) -> LoadError:
    """The refusal of ``name``, which a space's index does not hold."""
    if not isinstance(name, str):
        return LoadError(f"{where}: expected a basis name, got {name!r}")
    return LoadError(f"{where}: unknown basis element {name!r}")


def _matrix(
    ctx: ScalarContext,
    source: GradedSpace,
    target: GradedSpace,
    rows: Any,
    degree,
    spot: str,
    *at,
) -> LinearMap:
    """The map of the row-major matrix document ``rows`` (rows indexed by
    ``target``'s basis) at ``spot``.  This reader checks and parses each
    entry once, skipping the text ``"0"``, and gathers the nonzero ones into
    columns; the validating ``LinearMap`` then checks that the map is
    homogeneous of ``degree`` (None for even).  Entries are read in
    row-major order before the shape is checked, so a bad entry is named
    even in a ragged matrix."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise LoadError(f"{spot.format(*at)}: expected a row-major matrix")
    width = source.dim
    shaped = len(rows) == target.dim
    columns: list[dict[int, Scalar]] = [{} for _ in range(width)]
    entry_spot = spot + "[{}][{}]"
    for r, row in enumerate(rows):
        shaped = shaped and len(row) == width
        for c, entry in enumerate(row):
            if entry == "0":
                continue
            s = _scalar(ctx, entry, entry_spot, *at, r, c)
            if s.terms and shaped:
                columns[c][r] = s
    if not shaped:
        raise LoadError(f"{spot.format(*at)}: matrix must be {target.dim}x{width} row-major")
    try:
        return LinearMap(source, target, ctx, columns, degree)
    except ValueError as exc:
        raise LoadError(f"{spot.format(*at)}: {exc}") from exc


def _space_from(group: AbelianGroup, basis: Any, where: str) -> GradedSpace:
    if not isinstance(basis, list) or not basis:
        raise LoadError(f"{where}basis: expected a non-empty list")
    names, degrees = [], []
    for k, item in enumerate(basis):
        _object(item, "{}basis[{}]", where, k)
        if "name" not in item:
            raise LoadError(f"missing field {where}basis[{k}].name")
        name = item["name"]
        if not isinstance(name, str):
            raise LoadError(f"{where}basis[{k}].name: expected a basis name, got {name!r}")
        if "deg" not in item:
            raise LoadError(f"missing field {where}basis[{k}].deg")
        names.append(name)
        degrees.append(_ints(item["deg"], "{}basis[{}].deg", where, k))
    try:
        return GradedSpace(group, names, degrees)
    except ValueError as exc:
        raise LoadError(f"{where}basis: {exc}") from exc


def load_presentation(doc: Mapping, where: str = "") -> AlgebraPresentation:
    """Build a presentation from a parsed JSON document."""
    doc = _object(doc, "{}", where.rstrip("."))
    version = doc.get("format", FORMAT_VERSION)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise LoadError(f"{where}format: unsupported version {version!r}")
    group_doc = _object(_get(doc, "group", where), "{}group", where)
    torsion = tuple(_ints(group_doc.get("torsion", []), "{}group.torsion", where))
    free = group_doc.get("free", 0)
    if not _is_int(free):
        raise LoadError(f"{where}group.free: expected an integer, got {free!r}")
    try:
        group = AbelianGroup(torsion=torsion, free=free)
    except ValueError as exc:
        raise LoadError(f"{where}group: {exc}") from exc
    rows = _list(_get(doc, "bichar", where), "{}bichar", where)
    for i, row in enumerate(rows):
        _ints(row, "{}bichar[{}]", where, i)
    try:
        bichar = Bicharacter(group, rows)
    except ValueError as exc:
        raise LoadError(f"{where}bichar: {exc}") from exc
    ctx = _context_from(doc, where)
    space = _space_from(group, _get(doc, "basis", where), where)
    index = space._index

    products = {}
    roles = _object(_get(doc, "products", where), "{}products", where)
    for role, rules in sorted(roles.items(), key=lambda kv: role_sort_key(kv[0])):
        if not role:
            raise LoadError(f"{where}products: invalid role name: {role!r}")
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        if not isinstance(rules, list):
            raise LoadError(f"{where}products.{role}: expected a list of rules")
        for k, rule in enumerate(rules):
            if not (isinstance(rule, list) and len(rule) == 3 and isinstance(rule[2], list)):
                raise LoadError(f"{where}products.{role}[{k}]: expected [left, right, [[name, scalar], ...]]")
            left, right, cell = rule
            i = index.get(left) if isinstance(left, str) else None
            j = index.get(right) if isinstance(right, str) else None
            if i is None or j is None:
                raise _unnamed(right if i is not None else left, f"{where}products.{role}[{k}]")
            vec = entries.setdefault((i, j), {})
            for m, component in enumerate(cell):
                if not (isinstance(component, list) and len(component) == 2):
                    raise LoadError(f"{where}products.{role}[{k}] component {m}: expected [name, scalar]")
                name, value = component
                target = index.get(name) if isinstance(name, str) else None
                if target is None:
                    raise _unnamed(name, f"{where}products.{role}[{k}] component {m}")
                s = _scalar(ctx, value, "{}products.{}[{}] component {}", where, role, k, m)
                held = vec.get(target)
                vec[target] = s if held is None else held + s
        try:
            products[role] = BilinearProduct(space, ctx, entries)
        except ValueError as exc:
            raise LoadError(f"{where}products.{role}: {exc}") from exc

    alpha = None
    if "alpha" in doc:
        alpha = _matrix(ctx, space, space, doc["alpha"], None, "{}alpha", where)
    # Every part above meets the presentation's rules, so it cannot refuse them.
    return AlgebraPresentation(space, bichar, ctx, products, alpha)


def load_bundle(doc: Mapping, presentation: AlgebraPresentation, where: str = "module.") -> ActionBundle:
    """Build the optional ``module`` block against a loaded presentation."""
    doc = _object(doc, "{}", where.rstrip("."))
    ctx = presentation.context
    module = _space_from(presentation.space.group, _get(doc, "basis", where), where)
    beta = _matrix(ctx, module, module, _get(doc, "beta", where), None, "{}beta", where)
    actions = _action_families(_get(doc, "actions", where), presentation, module, "{}actions", where)
    try:
        return ActionBundle(presentation.space, module, beta, ctx, actions)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _action_families(
    doc: Any, presentation: AlgebraPresentation, module: GradedSpace, spot: str, *at
) -> dict[str, list[LinearMap]]:
    """The action families of the object ``doc``, at ``spot``: per action
    role, one operator on ``module`` per basis element of ``presentation``,
    zero where the element is not listed."""
    ctx = presentation.context
    actions: dict[str, list[LinearMap]] = {}
    for name, per_basis in sorted(_object(doc, spot, *at).items()):
        if name not in slot_actions(SLOT_ACTIONS):
            raise LoadError(f"{spot.format(*at)}.{name}: unknown action role")
        per_basis = _object(per_basis, spot + ".{}", *at, name)
        family = []
        for basis_name, degree in zip(presentation.names, presentation.space.degrees):
            rows = per_basis.get(basis_name)
            if rows is None:
                family.append(LinearMap.zero(module, module, ctx, degree))
            else:
                op = _matrix(ctx, module, module, rows, degree, spot + ".{}.{}", *at, name, basis_name)
                family.append(op)
        actions[name] = family
    return actions


def load_presentation_file(path) -> tuple[AlgebraPresentation, ActionBundle | None]:
    doc = _object(_read_json(path), "")
    presentation = load_presentation(doc)
    bundle = load_bundle(doc["module"], presentation) if "module" in doc else None
    return presentation, bundle


def load_matched_pair_file(path) -> MatchedPairData:
    """Read ``{"a": ..., "b": ..., "actions_a_on_b": ..., "actions_b_on_a": ...}``.

    Each action object has the layout of a ``module`` block's ``actions``;
    the module is the other side's basis, twisted by its ``alpha``.  The
    sides' grading groups and bicharacters are compared before any action
    is read."""
    doc = _object(_read_json(path), "")
    a = load_presentation(_get(doc, "a", ""), "a.")
    b = load_presentation(_get(doc, "b", ""), "b.")
    if a.space.group != b.space.group or a.bichar != b.bichar:
        raise LoadError("matched pair sides use different grading contexts")
    ab = _action_families(_get(doc, "actions_a_on_b", ""), a, b.space, "actions_a_on_b")
    ba = _action_families(_get(doc, "actions_b_on_a", ""), b, a.space, "actions_b_on_a")
    try:
        return MatchedPairData(
            a,
            b,
            ActionBundle(a.space, b.space, b.alpha, a.context, ab),
            ActionBundle(b.space, a.space, a.alpha, b.context, ba),
        )
    except ValueError as exc:
        raise LoadError(str(exc)) from exc


def load_linear_map(path, presentation: AlgebraPresentation) -> LinearMap:
    """Read ``{"map": [[...]]}`` as an even endomorphism of the presentation."""
    return _matrix(
        presentation.context,
        presentation.space,
        presentation.space,
        _get(_object(_read_json(path), ""), "map", ""),
        None,
        "map",
    )


def dump_matrix(linear_map: LinearMap) -> list[list[str]]:
    """The row-major matrix of ``linear_map`` in the scalar grammar; only
    its nonzero entries are turned into text."""
    rows = [["0"] * linear_map.source.dim for _ in range(linear_map.target.dim)]
    for c, column in enumerate(linear_map.columns):
        for r, s in column:
            rows[r][c] = str(s)
    return rows


def dump_presentation(presentation: AlgebraPresentation) -> dict:
    group = presentation.space.group
    doc: dict = {
        "format": FORMAT_VERSION,
        "group": {"torsion": list(group.torsion), "free": group.free},
        "bichar": [list(row) for row in presentation.bichar.matrix],
        "basis": [
            {"name": name, "deg": list(deg)}
            for name, deg in zip(presentation.names, presentation.space.degrees)
        ],
        "products": {
            role: [
                [
                    presentation.names[i],
                    presentation.names[j],
                    [[presentation.names[k], str(s)] for k, s in cell],
                ]
                for (i, j), cell in sorted(product.table.items())
            ]
            for role, product in presentation.products.items()
        },
        "alpha": dump_matrix(presentation.alpha),
    }
    if presentation.context.params:
        doc["params"] = list(presentation.context.params)
    if presentation.context.roots:
        doc["roots"] = {name: str(q) for name, q in presentation.context.roots.items()}
    return doc


def dump_presentation_file(presentation: AlgebraPresentation, path) -> None:
    """Write the presentation's document to ``path``.  The text is built
    before the file is opened, so a dump that fails leaves ``path`` as it
    was and raises a ValueError that names it."""
    try:
        text = json_text(dump_presentation(presentation)) + "\n"
    except ValueError as exc:
        reason = _reason(exc, "; the loader refuses such constants too")
        raise ValueError(f"cannot write {path}: {reason}") from exc
    with open(path, "w") as handle:
        handle.write(text)


def substitute_presentation(
    presentation: AlgebraPresentation, assignment: Mapping[str, str | int]
) -> AlgebraPresentation:
    """Numeric spot-check helper: substitute parameters in every entry."""
    ctx = presentation.context
    values = {name: ctx.scalar(v) for name, v in assignment.items()}
    return _map_scalars(presentation, ctx, lambda s: s.substitute(values))
