"""Text document format for trees, shared by the CLI and tests.

A tree document is a JSON object with fields ``version`` (currently "1"),
``root``, ``edges`` (list of [parent, label, child]), ``leaf_mass`` (list
of [leaf, mass] pairs; a JSON object keyed by leaf id is also accepted on
input), and optional free-form ``metadata``.  JSON object keys are strings,
so each key names the node id whose ``str()`` it is (key "1" names node 1).
Reports name nodes the same way, so two node ids that print alike, such as
0 and "0", are rejected.

Node ids and labels must be strings or integers.  ``parse_document``
checks ``edges`` and list-form ``leaf_mass`` as whole lists: the sets of
entry types, entry lengths and id types, which JSON gives exactly, must lie
in the allowed ones.  A per-entry pass runs only when that check fails, to
phrase the error for the first bad entry.  The same type sets gate the
print-alike check: only when an integer and a string occur among the ids
and labels are the id columns typed apart from the labels, and the ids are
listed only when an integer and a string occur among the ids themselves.

A mass may be a rational string such as "1/4", "1", or "0.3", parsed once
per distinct string into the Fraction that ``TreeDocument.leaf_mass``
holds for every leaf that gives that string, or a JSON number, held as a
float.  ``build_tree`` picks the numeric mode from those values: all
Fractions means exact mode, any float means float mode, and
``force_float`` downgrades Fractions.  Serialization writes each Fraction
as its reduced string, so parse(serialize(doc)) returns an equal document.

The written layout is fixed and byte-stable: a 2-space indent, one scalar
per line, as ``json.dumps(..., indent=2, ensure_ascii=False)`` lays it out.
It is written directly, each edge and leaf_mass column in one C-encoder
call; ``indented_json`` writes the metadata, and the CLI's reports, in
that layout the same way.  ``serialize_document`` runs the parser's own
checks on the version, ids, labels, masses and metadata, and raises the
ParseError that parsing the written text would raise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
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
    """Parsed but not yet validated content of a tree file; each leaf mass
    is a Fraction (from a rational string) or a float (from a number)."""

    root: NodeId
    edges: tuple[tuple[NodeId, Label, NodeId], ...]
    leaf_mass: tuple[tuple[NodeId, Fraction | float], ...]
    version: str = FORMAT_VERSION
    metadata: dict = field(default_factory=dict)


# JSON yields exact types, so a bool, float, None, list or object id has a
# type outside this set
_ID_TYPES = {str, int}
# a parsed entry is a list, a TreeDocument's a tuple
_ROW_TYPES = {list, tuple}
# the masses that ``serialize_document`` writes without the parser's checks
_NUMBER_TYPES = {Fraction, int, float}
_EDGE_FIELDS = ("parent", "label", "child")
_PAIR_FIELDS = ("leaf", "mass")
_leaf_ids = partial(map, itemgetter(0))  # the id column of leaf_mass pairs


def _check_id(value, what: str):
    if type(value) not in _ID_TYPES:
        raise ParseError(f"{what} must be a string or integer, got {value!r}")
    return value


def _check_rows(rows, where: str, fields: tuple[str, ...], ids_of) -> set[type]:
    """Check that every entry of ``rows`` is a list or tuple of
    ``len(fields)`` items and that every item ``ids_of(rows)`` yields, the
    entries' id columns, is a string or integer; returns those items' types.

    The check takes type sets over the whole list.  Only when it fails does
    a pass over the entries find the first bad one, to phrase its ParseError.
    """
    if (
        set(map(type, rows)) <= _ROW_TYPES
        and set(map(len, rows)) <= {len(fields)}
        and (id_types := set(map(type, ids_of(rows)))) <= _ID_TYPES
    ):
        return id_types
    kind = "triple" if len(fields) == 3 else "pair"
    for i, entry in enumerate(rows):
        if type(entry) not in _ROW_TYPES or len(entry) != len(fields):
            raise ParseError(
                f"{where} {i} must be a [{', '.join(fields)}] {kind}, got {entry!r}"
            )
        for name, value in zip(fields, ids_of([entry])):
            _check_id(value, f"{where} {i} {name}")
    raise AssertionError("the whole-list check failed on no entry")


def _parsed_masses(pairs: Iterable) -> list[tuple[NodeId, Fraction | float]]:
    """The (leaf, mass) pairs with each rational string parsed into a
    Fraction and each JSON number held as a float; ParseError for any other
    mass, NonFiniteMass for a number past the float range.

    Each distinct string is parsed once, and the leaves that share it share
    its Fraction: the masses of a dyadic matcher's document take a handful
    of values however many leaves it has.
    """
    leaf_mass: list[tuple[NodeId, Fraction | float]] = []
    parsed: dict[str, Fraction] = {}
    for node, mass in pairs:
        if isinstance(mass, str):
            value = parsed.get(mass)
            if value is None:
                try:
                    value = parsed[mass] = parse_rational(mass)
                except ValueError as exc:
                    raise ParseError(f"leaf {node!r}: {exc}") from exc
            leaf_mass.append((node, value))
        elif isinstance(mass, (int, float)) and not isinstance(mass, bool):
            try:
                leaf_mass.append((node, float(mass)))
            except OverflowError:
                raise NonFiniteMass(
                    f"leaf {node!r} has a mass beyond the float range"
                ) from None
        else:
            raise ParseError(
                f"leaf {node!r} mass must be a rational string or number, got {mass!r}"
            )
    return leaf_mass


def _check_version(version) -> None:
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}")


def _check_metadata(metadata) -> None:
    if not isinstance(metadata, dict):
        raise ParseError("field 'metadata' must be an object")


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


def _node_ids(root: NodeId, edges) -> list:
    """The root, the edges' parents and their children, in the order that
    decides which two ids a print-alike ParseError names."""
    return [root, *map(itemgetter(0), edges), *map(itemgetter(2), edges)]


def _check_names(id_types: set[type], root: NodeId, edges, pairs) -> None:
    """``_ids_by_name``'s ParseError for two ids that print alike, among the
    root, the edges' ids and the leaf ids of ``pairs``.  ``id_types`` holds
    the types of those ids and of the edges' labels; when it has both an
    integer and a string, the id columns are typed apart from the labels."""
    # only an integer and a string id can print alike
    ids = chain(map(itemgetter(0), edges), map(itemgetter(2), edges), _leaf_ids(pairs))
    if {int, str} <= id_types and {int, str} <= {type(root), *map(type, ids)}:
        _ids_by_name(_node_ids(root, edges) + [*_leaf_ids(pairs)])


def resolve_node_keys(
    obj: Mapping[str, object], ids: Iterable[NodeId]
) -> dict[NodeId, object]:
    """Re-key a JSON object by node id: each key names the id whose str() it is.

    A key that names none of ``ids`` stays as the string it is.  Raises
    ParseError when two ids print alike, such as 0 and "0".
    """
    names = _ids_by_name(ids)
    return {names.get(key, key): value for key, value in obj.items()}


def load_json(text: str):
    """``json.loads``, raising ParseError for text it cannot read, including
    text nested too deeply for its recursive decoder and integers past the
    interpreter's int-string limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid document syntax at line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ParseError(f"document holds an unreadable number: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("document nested too deeply to parse") from exc


def parse_document(text: str) -> TreeDocument:
    """Parse document text, reporting structural problems with locations."""
    raw = load_json(text)
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    version = raw.get("version", FORMAT_VERSION)
    _check_version(version)
    for required in ("root", "edges", "leaf_mass"):
        if required not in raw:
            raise ParseError(f"missing required field {required!r}")
    root = _check_id(raw["root"], "field 'root'")
    if not isinstance(raw["edges"], list):
        raise ParseError("field 'edges' must be a list")
    edge_types = _check_rows(raw["edges"], "edge", _EDGE_FIELDS, chain.from_iterable)
    edges = tuple(map(tuple, raw["edges"]))
    pairs = raw["leaf_mass"]
    if isinstance(pairs, dict):
        pairs = resolve_node_keys(pairs, _node_ids(root, edges)).items()
    elif isinstance(pairs, list):
        leaf_types = _check_rows(pairs, "leaf_mass entry", _PAIR_FIELDS, _leaf_ids)
        _check_names({type(root)} | edge_types | leaf_types, root, edges, pairs)
    else:
        raise ParseError("field 'leaf_mass' must be a list of pairs or an object")
    leaf_mass = _parsed_masses(pairs)
    metadata = raw.get("metadata", {})
    _check_metadata(metadata)
    return TreeDocument(
        root=root,
        edges=edges,
        leaf_mass=tuple(leaf_mass),
        version=version,
        metadata=metadata,
    )


def document_to_tree(doc: TreeDocument, force_float: bool = False) -> Tree:
    """Validate a document into a Tree; ``build_tree`` picks the numeric
    mode from the masses, and ``force_float`` selects float mode."""
    mass = dict(doc.leaf_mass)
    if len(mass) < len(doc.leaf_mass):
        seen = set()
        for node, _ in doc.leaf_mass:
            if node in seen:
                raise ParseError(f"leaf {node!r} listed twice in leaf_mass")
            seen.add(node)
    tree = build_tree(doc.edges, mass, exact=False if force_float else None)
    if tree.root != doc.root:
        raise ParseError(
            f"declared root {doc.root!r} but edges imply root {tree.root!r}"
        )
    return tree


def tree_to_document(tree: Tree, metadata: Mapping | None = None) -> TreeDocument:
    """Render a tree back into document form, masses as the tree holds them."""
    edges = tuple(
        [(node, label, child) for node in tree.nodes for label, child in tree.children[node]]
    )
    leaves = tree.leaves
    return TreeDocument(
        root=tree.root,
        edges=edges,
        leaf_mass=tuple(zip(leaves, map(tree.leaf_mass.__getitem__, leaves))),
        metadata=dict(metadata or {}),
    )


# one C-encoder call writes a whole column: its items joined by NUL, which
# JSON writes as \u0000 inside a string, so splitting on NUL is exact
_COLUMN_ENCODERS = {
    escape: json.JSONEncoder(ensure_ascii=escape, separators=("\x00", ": ")).encode
    for escape in (False, True)
}
_encode_column = _COLUMN_ENCODERS[False]
_CONTAINERS = (dict, list, tuple)
_EDGE_ROW = "    [\n      %s,\n      %s,\n      %s\n    ]"
_PAIR_ROW = "    [\n      %s,\n      %s\n    ]"
_DOCUMENT = '{\n  "version": %s,\n  "root": %s,\n  "edges": %s,\n  "leaf_mass": %s,\n  "metadata": %s\n}\n'


def indented_json(value, ensure_ascii: bool = False, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=ensure_ascii)``, byte for
    byte, with ``newline`` opening each line after the first.

    Each dict or list (or tuple) none of whose items is one is written in
    one C-encoder call, split into its items on NUL.  The keys of any other
    dict are written in one call as well, so they are converted as
    ``json.dumps`` converts them.  A report's only long containers are
    such columns of scalars.
    """
    encode = _COLUMN_ENCODERS[ensure_ascii]
    if not isinstance(value, _CONTAINERS) or not value:
        return encode(value)
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    values = value.values() if is_dict else value
    if not any(map(isinstance, values, repeat(_CONTAINERS))):
        items = encode(value)[1:-1].split("\x00")
    else:
        items = [indented_json(v, ensure_ascii, inner) for v in values]
        if is_dict:  # each key as '"key": 0', less its 0
            keys = encode(dict.fromkeys(value, 0))[1:-1].split("\x00")
            items = [k[:-1] + item for k, item in zip(keys, items)]
    opening, closing = "{}" if is_dict else "[]"
    return opening + inner + ("," + inner).join(items) + newline + closing


def _column(items: list, row: str, width: int) -> str:
    """A list of ``width``-item rows, written from its flat items."""
    if not items:
        return "[]"
    rows = ",\n".join([row] * (len(items) // width))
    return "[\n%s\n  ]" % (rows % tuple(_encode_column(items)[1:-1].split("\x00")))


def serialize_document(doc: TreeDocument) -> str:
    """Document text in a fixed layout: 2-space indent, one scalar per line,
    a Fraction mass as its reduced string.

    Raises the ParseError that ``parse_document`` would raise on the
    written text, checked in the parser's order: a version other than "1",
    a root, edge id, label or leaf id that is not a string or integer, two
    ids that print alike, a mass that is not a Fraction, rational string,
    integer or float, or metadata that is not a dict.
    """
    _check_version(doc.version)
    _check_id(doc.root, "field 'root'")
    edge_types = _check_rows(doc.edges, "edge", _EDGE_FIELDS, chain.from_iterable)
    leaf_types = _check_rows(doc.leaf_mass, "leaf_mass entry", _PAIR_FIELDS, _leaf_ids)
    id_types = {type(doc.root)} | edge_types | leaf_types
    _check_names(id_types, doc.root, doc.edges, doc.leaf_mass)
    pairs = list(chain.from_iterable(doc.leaf_mass))
    masses = pairs[1::2]
    if not set(map(type, masses)) <= _NUMBER_TYPES:
        _parsed_masses((n, m) for n, m in doc.leaf_mass if type(m) is not Fraction)
    _check_metadata(doc.metadata)
    pairs[1::2] = [str(m) if type(m) is Fraction else m for m in masses]
    return _DOCUMENT % (
        _encode_column(doc.version),
        _encode_column(doc.root),
        _column(list(chain.from_iterable(doc.edges)), _EDGE_ROW, 3),
        _column(pairs, _PAIR_ROW, 2),
        indented_json(doc.metadata, newline="\n  "),
    )


def parse_tree(text: str, force_float: bool = False) -> Tree:
    """Parse and validate document text directly into a Tree."""
    return document_to_tree(parse_document(text), force_float=force_float)


def serialize_tree(tree: Tree, metadata: Mapping | None = None) -> str:
    """Serialize a tree as document text; parsing it back gives an equal tree."""
    return serialize_document(tree_to_document(tree, metadata=metadata))
