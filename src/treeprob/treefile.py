"""Text document format for trees, shared by the CLI and tests.

A tree document is a JSON object with fields ``version`` (currently "1"),
``root``, ``edges`` (list of [parent, label, child]), ``leaf_mass`` (list
of [leaf, mass] pairs; a JSON object keyed by leaf id is also accepted on
input), and optional free-form ``metadata``.  JSON object keys are strings,
so each key names the node id whose ``str()`` it is (key "1" names node 1).
Reports name nodes the same way, so two node ids that print alike, such as
0 and "0", are rejected.

Two functions are the only path between text and ``Tree``: ``parse_tree``
reads a document into a validated tree, and ``serialize_tree`` writes a
tree back.  Neither keeps an intermediate document form; the metadata is
checked on input and otherwise dropped, since nothing reads it.

Node ids and labels must be strings or integers.  ``parse_tree`` checks
``edges`` and list-form ``leaf_mass`` as whole lists: the sets of entry
types, entry lengths and id types, which JSON gives exactly, must lie in
the allowed ones.  A per-entry pass runs only when that check fails, to
phrase the error for the first bad entry.  The same type sets gate the
print-alike check: only when an integer and a string occur among the ids
and labels are the id columns typed apart from the labels, and the ids are
listed only when an integer and a string occur among the ids themselves.
The decoded edge list then goes to ``build_tree`` as it is.

A mass may be a rational string such as "1/4", "1", or "0.3", parsed once
per distinct string into one Fraction that every leaf giving that string
shares, or a JSON number, held as a float.  ``build_tree`` picks the
numeric mode from those values: all Fractions means exact mode, any float
means float mode, and ``force_float`` downgrades Fractions.  Serialization
writes each Fraction as its reduced string, so parse(serialize(tree))
returns an equal tree.

The written layout is fixed and byte-stable: a 2-space indent, one scalar
per line, as ``json.dumps(..., indent=2, ensure_ascii=False)`` lays it out.
It is written directly from the tree's preorder tables, each edge and
leaf_mass column in one C-encoder call, with one string per distinct mass
object; ``indented_json`` writes the metadata, and the CLI's reports, in
that layout the same way.  ``serialize_tree`` checks what a built tree can
get wrong, ids and labels that are not strings or integers or that are
integers too long to print, two ids that print alike, and metadata that is
not a dict, and raises the ParseError that parsing the written text would
raise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import NonFiniteMass, ParseError
from .numeric import exact_text, parse_rational
from .tree import NodeId, Tree, build_tree

__all__ = ["parse_tree", "resolve_node_keys", "serialize_tree"]

FORMAT_VERSION = "1"

# JSON yields exact types, so a bool, float, None, list or object id has a
# type outside this set
_ID_TYPES = {str, int}
_EDGE_FIELDS = ("parent", "label", "child")
_PAIR_FIELDS = ("leaf", "mass")
_leaf_ids = partial(map, itemgetter(0))  # the id column of leaf_mass pairs


def _check_id(value, what: str):
    if type(value) not in _ID_TYPES:
        raise ParseError(f"{what} must be a string or integer, got {value!r}")
    return value


def _check_rows(rows, where: str, fields: tuple[str, ...], ids_of) -> set[type]:
    """Check that every entry of ``rows`` is a list of ``len(fields)``
    items and that every item ``ids_of(rows)`` yields, the entries' id
    columns, is a string or integer; returns those items' types.

    The check takes type sets over the whole list.  Only when it fails does
    a pass over the entries find the first bad one, to phrase its ParseError.
    """
    if (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {len(fields)}
        and (id_types := set(map(type, ids_of(rows)))) <= _ID_TYPES
    ):
        return id_types
    kind = "triple" if len(fields) == 3 else "pair"
    for i, entry in enumerate(rows):
        if type(entry) is not list or len(entry) != len(fields):
            raise ParseError(
                f"{where} {i} must be a [{', '.join(fields)}] {kind}, got {entry!r}"
            )
        for name, value in zip(fields, ids_of([entry])):
            _check_id(value, f"{where} {i} {name}")
    raise AssertionError("the whole-list check failed on no entry")


def _parsed_masses(pairs: Iterable) -> dict[NodeId, Fraction | float]:
    """Each leaf's mass, a rational string parsed into a Fraction and a
    JSON number held as a float; ParseError for any other mass,
    NonFiniteMass for a number past the float range.  A leaf listed twice
    keeps one entry, so the map is shorter than ``pairs``.

    Each distinct string is parsed once, and the leaves that share it share
    its Fraction: the masses of a dyadic matcher's document take a handful
    of values however many leaves it has.
    """
    leaf_mass: dict[NodeId, Fraction | float] = {}
    parsed: dict[str, Fraction] = {}
    for node, mass in pairs:
        if isinstance(mass, str):
            value = parsed.get(mass)
            if value is None:
                try:
                    value = parsed[mass] = parse_rational(mass)
                except ValueError as exc:
                    raise ParseError(f"leaf {node!r}: {exc}") from exc
            leaf_mass[node] = value
        elif isinstance(mass, (int, float)) and not isinstance(mass, bool):
            try:
                leaf_mass[node] = float(mass)
            except OverflowError:
                raise NonFiniteMass(
                    f"leaf {node!r} has a mass beyond the float range"
                ) from None
        else:
            raise ParseError(
                f"leaf {node!r} mass must be a rational string or number, got {mass!r}"
            )
    return leaf_mass


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


def parse_tree(text: str, force_float: bool = False) -> Tree:
    """Parse and validate document text into a Tree.

    The document's own checks run first, in this order, each raising a
    ParseError that names its location: the JSON syntax, the version, the
    required fields, the root, the edge and leaf_mass entries, ids that
    print alike, each distinct mass string and the metadata.  Then a leaf
    listed twice in leaf_mass is refused, ``build_tree`` validates the
    shape and masses (picking the numeric mode; ``force_float`` selects
    float mode), and the declared root must be the one the edges imply.
    """
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
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise ParseError("field 'edges' must be a list")
    edge_types = _check_rows(edges, "edge", _EDGE_FIELDS, chain.from_iterable)
    pairs = raw["leaf_mass"]
    if isinstance(pairs, dict):
        pairs = resolve_node_keys(pairs, _node_ids(root, edges)).items()
    elif isinstance(pairs, list):
        leaf_types = _check_rows(pairs, "leaf_mass entry", _PAIR_FIELDS, _leaf_ids)
        _check_names({type(root)} | edge_types | leaf_types, root, edges, pairs)
    else:
        raise ParseError("field 'leaf_mass' must be a list of pairs or an object")
    mass = _parsed_masses(pairs)
    _check_metadata(raw.get("metadata", {}))
    if len(mass) < len(pairs):
        seen = set()
        for node in _leaf_ids(pairs):
            if node in seen:
                raise ParseError(f"leaf {node!r} listed twice in leaf_mass")
            seen.add(node)
    tree = build_tree(edges, mass, exact=False if force_float else None)
    if tree.root != root:
        raise ParseError(f"declared root {root!r} but edges imply root {tree.root!r}")
    return tree


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


def serialize_tree(tree: Tree, metadata: dict | None = None) -> str:
    """Document text of ``tree`` in a fixed layout: 2-space indent, one
    scalar per line, edges in preorder of their parents, leaves in
    preorder, each Fraction mass as its reduced string.

    Raises the ParseError that ``parse_tree`` would raise on the written
    text, checked in the parser's order: a root, edge id or label that is
    not a string or integer (bools included), or that is an integer too
    long to print under the interpreter's int-string limit, two ids that
    print alike, a mass too long to print, or metadata that is not a dict.
    The parser refuses a long integer as an unreadable number; the
    serializer names the entry that holds it.  Metadata the encoder cannot
    write raises a ParseError as well.  ``build_tree`` has already made the
    rows triples and the masses Fractions or floats, and every leaf is the
    root or an edge's child.
    """
    metadata = {} if metadata is None else metadata
    root, nodes, children = tree.root, tree.nodes, tree.children
    edges = []  # the edges' parent, label and child columns, interleaved
    for v in nodes:
        for label, child in children[v]:
            edges += (v, label, child)
    id_types = {type(root), *map(type, edges)}
    if not id_types <= _ID_TYPES:
        _check_id(root, "field 'root'")
        rows = [edges[i : i + 3] for i in range(0, len(edges), 3)]
        _check_rows(rows, "edge", _EDGE_FIELDS, chain.from_iterable)
    try:
        root_text = _encode_column(root)
        edge_column = _column(edges, _EDGE_ROW, 3)
    except ValueError as exc:  # an integer past the int-string limit
        raise _unreadable_id(root, edges, exc) from None
    if {int, str} <= id_types and {int, str} <= set(map(type, nodes)):
        _ids_by_name(_node_ids(root, list(zip(*[iter(edges)] * 3))))
    leaves = tree.leaves
    masses = list(map(tree.leaf_mass.__getitem__, leaves))
    if tree.exact:
        # one string per distinct mass object, keyed by identity, since
        # hashing a Fraction takes a modular inverse
        keys = list(map(id, masses))
        texts = dict(zip(keys, masses))
        for key, mass in texts.items():
            try:
                texts[key] = str(mass)
            except ValueError:  # a part past the int-string limit
                leaf = leaves[keys.index(key)]
                raise ParseError(
                    f"leaf {leaf!r}: not a rational number: {exact_text(mass)}"
                ) from None
        masses = list(map(texts.__getitem__, keys))
    _check_metadata(metadata)
    try:
        metadata_text = indented_json(metadata, newline="\n  ")
    except ValueError as exc:
        raise ParseError(f"field 'metadata' cannot be written: {exc}") from None
    pairs = [None] * (2 * len(leaves))
    pairs[0::2], pairs[1::2] = leaves, masses
    return _DOCUMENT % (
        _encode_column(FORMAT_VERSION),
        root_text,
        edge_column,
        _column(pairs, _PAIR_ROW, 2),
        metadata_text,
    )


def _unreadable_id(root: NodeId, edges: list, exc: ValueError) -> ParseError:
    """The ParseError naming the root, or else the first edge field, that
    is an integer too long to print under the int-string limit."""
    for i, value in enumerate([root, *edges]):
        if type(value) is int:
            try:
                str(value)
            except ValueError:
                where = f"edge {(i - 1) // 3} {_EDGE_FIELDS[(i - 1) % 3]}" if i else "field 'root'"
                return ParseError(f"{where} holds an unreadable number: {exc}")
    raise AssertionError("no id or label is past the int-string limit")
