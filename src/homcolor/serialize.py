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


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise LoadError(f"{where or 'document'}: expected an object")
    return value


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise LoadError(f"{where}: expected a list")
    return value


def _int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise LoadError(f"{where}: expected an integer, got {value!r}")
    return value


def _name(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise LoadError(f"{where}: expected a basis name, got {value!r}")
    return value


def _get(doc: Mapping, field: str, where: str):
    if field not in doc:
        raise LoadError(f"missing field {where}{field}")
    return doc[field]


def _context_from(doc: Mapping, where: str = "") -> ScalarContext:
    params = _list(doc.get("params", []), f"{where}params")
    roots = _object(doc.get("roots", {}), f"{where}roots")
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


def _scalar(ctx: ScalarContext, value: Any, where: str) -> Scalar:
    # Only exact values: a JSON float such as 1.5 (or a boolean) is refused,
    # not truncated by int().
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise LoadError(f"{where}: expected an integer or a scalar string, got {value!r}")
    try:
        return ctx.scalar(value)
    except (ScalarError, ValueError) as exc:
        raise LoadError(f"{where}: {_reason(exc)}") from exc


def _matrix(
    ctx: ScalarContext,
    source: GradedSpace,
    target: GradedSpace,
    rows: Any,
    where: str,
    degree=None,
) -> LinearMap:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise LoadError(f"{where}: expected a row-major matrix")
    scalars = [
        [_scalar(ctx, entry, f"{where}[{r}][{c}]") for c, entry in enumerate(row)]
        for r, row in enumerate(rows)
    ]
    try:
        return LinearMap.from_rows(source, target, ctx, scalars, degree)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _space_from(group: AbelianGroup, basis: Any, where: str) -> GradedSpace:
    if not isinstance(basis, list) or not basis:
        raise LoadError(f"{where}basis: expected a non-empty list")
    names, degrees = [], []
    for k, item in enumerate(basis):
        spot = f"{where}basis[{k}]"
        item = _object(item, spot)
        names.append(_name(_get(item, "name", f"{spot}."), f"{spot}.name"))
        deg = _list(_get(item, "deg", f"{spot}."), f"{spot}.deg")
        degrees.append([_int(c, f"{spot}.deg[{m}]") for m, c in enumerate(deg)])
    try:
        return GradedSpace(group, names, degrees)
    except ValueError as exc:
        raise LoadError(f"{where}basis: {exc}") from exc


def _index(space: GradedSpace, name: Any, where: str) -> int:
    try:
        return space.index(_name(name, where))
    except KeyError as exc:
        raise LoadError(f"{where}: {exc.args[0]}") from exc


def load_presentation(doc: Mapping, where: str = "") -> AlgebraPresentation:
    """Build a presentation from a parsed JSON document."""
    doc = _object(doc, where.rstrip("."))
    if doc.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        raise LoadError(f"{where}format: unsupported version {doc.get('format')!r}")
    group_doc = _object(_get(doc, "group", where), f"{where}group")
    torsion = _list(group_doc.get("torsion", []), f"{where}group.torsion")
    torsion = tuple(_int(m, f"{where}group.torsion[{k}]") for k, m in enumerate(torsion))
    free = _int(group_doc.get("free", 0), f"{where}group.free")
    try:
        group = AbelianGroup(torsion=torsion, free=free)
    except ValueError as exc:
        raise LoadError(f"{where}group: {exc}") from exc
    rows = _list(_get(doc, "bichar", where), f"{where}bichar")
    matrix = [
        [_int(v, f"{where}bichar[{i}][{j}]") for j, v in enumerate(_list(row, f"{where}bichar[{i}]"))]
        for i, row in enumerate(rows)
    ]
    try:
        bichar = Bicharacter(group, matrix)
    except ValueError as exc:
        raise LoadError(f"{where}bichar: {exc}") from exc
    ctx = _context_from(doc, where)
    space = _space_from(group, _get(doc, "basis", where), where)

    products = {}
    roles = _object(_get(doc, "products", where), f"{where}products")
    for role, rules in sorted(roles.items(), key=lambda kv: role_sort_key(kv[0])):
        if not role:
            raise LoadError(f"{where}products: invalid role name: {role!r}")
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        if not isinstance(rules, list):
            raise LoadError(f"{where}products.{role}: expected a list of rules")
        for k, rule in enumerate(rules):
            spot = f"{where}products.{role}[{k}]"
            if not (isinstance(rule, list) and len(rule) == 3 and isinstance(rule[2], list)):
                raise LoadError(f"{spot}: expected [left, right, [[name, scalar], ...]]")
            left, right, cell = rule
            i, j = _index(space, left, spot), _index(space, right, spot)
            vec = entries.setdefault((i, j), {})
            for m, component in enumerate(cell):
                where_m = f"{spot} component {m}"
                if not (isinstance(component, list) and len(component) == 2):
                    raise LoadError(f"{where_m}: expected [name, scalar]")
                name, value = component
                target = _index(space, name, where_m)
                s = _scalar(ctx, value, where_m)
                vec[target] = vec.get(target, ctx.zero) + s
        try:
            products[role] = BilinearProduct(space, ctx, entries)
        except ValueError as exc:
            raise LoadError(f"{where}products.{role}: {exc}") from exc

    alpha = None
    if "alpha" in doc:
        alpha = _matrix(ctx, space, space, doc["alpha"], f"{where}alpha")
    # Every part above meets the presentation's rules, so it cannot refuse them.
    return AlgebraPresentation(space, bichar, ctx, products, alpha)


def load_bundle(doc: Mapping, presentation: AlgebraPresentation, where: str = "module.") -> ActionBundle:
    """Build the optional ``module`` block against a loaded presentation."""
    doc = _object(doc, where.rstrip("."))
    ctx = presentation.context
    module = _space_from(presentation.space.group, _get(doc, "basis", where), where)
    beta = _matrix(ctx, module, module, _get(doc, "beta", where), f"{where}beta")
    actions = _action_families(_get(doc, "actions", where), presentation, module, f"{where}actions")
    try:
        return ActionBundle(presentation.space, module, beta, ctx, actions)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


def _action_families(
    doc: Any, presentation: AlgebraPresentation, module: GradedSpace, where: str
) -> dict[str, list[LinearMap]]:
    """The action families of the object ``doc``, at the path ``where``:
    per action role, one operator on ``module`` per basis element of
    ``presentation``, zero where the element is not listed."""
    ctx = presentation.context
    actions: dict[str, list[LinearMap]] = {}
    for name, per_basis in sorted(_object(doc, where).items()):
        if name not in slot_actions(SLOT_ACTIONS):
            raise LoadError(f"{where}.{name}: unknown action role")
        per_basis = _object(per_basis, f"{where}.{name}")
        family = []
        for i, basis_name in enumerate(presentation.names):
            degree = presentation.space.degree(i)
            rows = per_basis.get(basis_name)
            if rows is None:
                family.append(LinearMap.zero(module, module, ctx, degree))
            else:
                spot = f"{where}.{name}.{basis_name}"
                family.append(_matrix(ctx, module, module, rows, spot, degree))
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
    the module is the other side's basis, twisted by its ``alpha``."""
    doc = _object(_read_json(path), "")
    a = load_presentation(_get(doc, "a", ""), "a.")
    b = load_presentation(_get(doc, "b", ""), "b.")
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
