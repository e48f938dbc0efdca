"""Text document format for trees, shared by the CLI and tests.

A tree document is a JSON object with fields ``version`` (currently "1"),
``root``, ``edges`` (list of [parent, label, child]), ``leaf_mass`` (list
of [leaf, mass] pairs; a JSON object keyed by leaf id is also accepted on
input), and optional free-form ``metadata``.  JSON object keys are strings,
so each key names the node id whose ``str()`` it is (key "1" names node 1).
Reports name nodes the same way, so two node ids that print alike, such as
0 and "0", are rejected.

A mass may be a rational string such as "1/4", "1", or "0.3" (parsed
exactly), or a JSON number (parsed as a float).  The numeric mode follows
the masses: all strings means exact mode, any number means float mode, and
``force_float`` downgrades strings.  Serialization always writes canonical
reduced fractions in exact mode, so parse(serialize(doc)) returns an equal
document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NonFiniteMass, ParseError
from .numeric import parse_rational
from .tree import Label, NodeId, Tree, build_tree

__all__ = [
    "TreeDocument",
    "document_to_tree",
    "parse_document",
    "parse_tree",
    "resolve_node_keys",
    "serialize_document",
    "serialize_tree",
    "tree_to_document",
]

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class TreeDocument:
    """Parsed but not yet validated content of a tree file."""

    root: NodeId
    edges: tuple[tuple[NodeId, Label, NodeId], ...]
    leaf_mass: tuple[tuple[NodeId, object], ...]
    version: str = FORMAT_VERSION
    metadata: dict = field(default_factory=dict)


def _check_id(value, what: str):
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ParseError(f"{what} must be a string or integer, got {value!r}")
    return value


def _ids_by_name(ids: Iterable[NodeId]) -> dict[str, NodeId]:
    """Each node id keyed by its str(); raises ParseError for two ids that
    print alike, such as 0 and "0", since reports and JSON keys name nodes
    by that string."""
    names: dict[str, NodeId] = {}
    for node in dict.fromkeys(ids):
        other = names.setdefault(str(node), node)
        if other != node:
            raise ParseError(f"node ids {other!r} and {node!r} print alike")
    return names


def resolve_node_keys(
    obj: Mapping[str, object], ids: Iterable[NodeId]
) -> dict[NodeId, object]:
    """Re-key a JSON object by node id: each key names the id whose str() it is.

    A key that names none of ``ids`` stays as the string it is.  Raises
    ParseError when two ids print alike, such as 0 and "0".
    """
    names = _ids_by_name(ids)
    return {names.get(key, key): value for key, value in obj.items()}


def _beyond_float_range(node: NodeId) -> NonFiniteMass:
    return NonFiniteMass(f"leaf {node!r} has a mass beyond the float range")


def load_json(text: str):
    """``json.loads``, raising ParseError for text it cannot read, including
    text nested too deeply for its recursive decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid document syntax at line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("document nested too deeply to parse") from exc


def parse_document(text: str) -> TreeDocument:
    """Parse document text, reporting structural problems with locations."""
    raw = load_json(text)
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    version = raw.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}")
    for required in ("root", "edges", "leaf_mass"):
        if required not in raw:
            raise ParseError(f"missing required field {required!r}")
    root = _check_id(raw["root"], "field 'root'")
    if not isinstance(raw["edges"], list):
        raise ParseError("field 'edges' must be a list")
    edges = []
    for i, entry in enumerate(raw["edges"]):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(
                f"edge {i} must be a [parent, label, child] triple, got {entry!r}"
            )
        parent, label, child = entry
        edges.append(
            (
                _check_id(parent, f"edge {i} parent"),
                _check_id(label, f"edge {i} label"),
                _check_id(child, f"edge {i} child"),
            )
        )
    raw_mass = raw["leaf_mass"]
    ids = [root, *map(itemgetter(0), edges), *map(itemgetter(2), edges)]
    pairs: list[tuple[NodeId, object]] = []
    if isinstance(raw_mass, dict):
        pairs = list(resolve_node_keys(raw_mass, ids).items())
    elif isinstance(raw_mass, list):
        for i, entry in enumerate(raw_mass):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(
                    f"leaf_mass entry {i} must be a [leaf, mass] pair, got {entry!r}"
                )
            pairs.append((_check_id(entry[0], f"leaf_mass entry {i} leaf"), entry[1]))
        ids += map(itemgetter(0), pairs)
        # only an integer and a string id can print alike
        if {int, str} <= set(map(type, ids)):
            _ids_by_name(ids)
    else:
        raise ParseError("field 'leaf_mass' must be a list of pairs or an object")
    leaf_mass: list[tuple[NodeId, object]] = []
    for node, mass in pairs:
        if isinstance(mass, str):
            try:
                parse_rational(mass)
            except ValueError as exc:
                raise ParseError(f"leaf {node!r}: {exc}") from exc
            leaf_mass.append((node, mass))
        elif isinstance(mass, (int, float)) and not isinstance(mass, bool):
            try:
                leaf_mass.append((node, float(mass)))
            except OverflowError:
                raise _beyond_float_range(node) from None
        else:
            raise ParseError(
                f"leaf {node!r} mass must be a rational string or number,"
                f" got {mass!r}"
            )
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("field 'metadata' must be an object")
    return TreeDocument(
        root=root,
        edges=tuple(edges),
        leaf_mass=tuple(leaf_mass),
        version=version,
        metadata=metadata,
    )


def document_to_tree(doc: TreeDocument, force_float: bool = False) -> Tree:
    """Validate a document into a Tree, picking the numeric mode from masses.

    Exact mode requires every mass to be a rational string; any numeric
    mass, or ``force_float``, selects float mode.
    """
    exact = not force_float and all(isinstance(m, str) for _, m in doc.leaf_mass)
    mass: dict[NodeId, object] = {}
    for node, raw in doc.leaf_mass:
        if node in mass:
            raise ParseError(f"leaf {node!r} listed twice in leaf_mass")
        value = parse_rational(raw) if isinstance(raw, str) else raw
        try:
            mass[node] = value if exact else float(value)
        except OverflowError:
            raise _beyond_float_range(node) from None
    tree = build_tree(doc.edges, mass, exact=exact)
    if tree.root != doc.root:
        raise ParseError(
            f"declared root {doc.root!r} but edges imply root {tree.root!r}"
        )
    return tree


def tree_to_document(tree: Tree, metadata: Mapping | None = None) -> TreeDocument:
    """Render a tree back into document form with canonical masses."""
    edges = tuple(
        (node, label, child)
        for node in tree.nodes
        for label, child in tree.children[node]
    )
    if tree.exact:
        leaf_mass = tuple(
            (leaf, str(Fraction(tree.leaf_mass[leaf]))) for leaf in tree.leaves
        )
    else:
        leaf_mass = tuple((leaf, float(tree.leaf_mass[leaf])) for leaf in tree.leaves)
    return TreeDocument(
        root=tree.root,
        edges=edges,
        leaf_mass=leaf_mass,
        metadata=dict(metadata or {}),
    )


def serialize_document(doc: TreeDocument) -> str:
    payload = {
        "version": doc.version,
        "root": doc.root,
        "edges": [list(edge) for edge in doc.edges],
        "leaf_mass": [[node, mass] for node, mass in doc.leaf_mass],
        "metadata": doc.metadata,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def parse_tree(text: str, force_float: bool = False) -> Tree:
    """Parse and validate document text directly into a Tree."""
    return document_to_tree(parse_document(text), force_float=force_float)


def serialize_tree(tree: Tree, metadata: Mapping | None = None) -> str:
    """Serialize a tree as document text; parsing it back gives an equal tree."""
    return serialize_document(tree_to_document(tree, metadata=metadata))
