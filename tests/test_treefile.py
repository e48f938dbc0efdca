import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import DEMO_DOCUMENT
from corpus import corpus_tree, float_mirror, informative_tree
from treeprob import (
    MassNotNormalized,
    NonFiniteMass,
    ParseError,
    TreeDocument,
    build_tree,
    document_to_tree,
    parse_document,
    parse_tree,
    serialize_document,
    serialize_tree,
    structurally_equal,
    tree_to_document,
)
from treeprob import treefile
from treeprob.numeric import parse_rational
from treeprob.treefile import resolve_node_keys

# a well-formed edge and leaf_mass pair, placed before each malformed entry
GOOD_EDGE = [0, "a", 1]
GOOD_PAIR = [1, "1/2"]

GOLDEN = Path(__file__).parent / "golden"


class TestParseDocument:
    def test_demo_document(self):
        doc = parse_document(DEMO_DOCUMENT)
        assert doc.version == "1"
        assert doc.root == 0
        assert len(doc.edges) == 5
        assert dict(doc.leaf_mass) == {2: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(1, 4)}
        assert doc.metadata == {}

    def test_object_form_leaf_mass(self):
        text = json.dumps(
            {
                "root": "r",
                "edges": [["r", "a", "x"], ["r", "b", "y"]],
                "leaf_mass": {"x": "1/2", "y": "1/2"},
            }
        )
        doc = parse_document(text)
        assert dict(doc.leaf_mass) == {"x": Fraction(1, 2), "y": Fraction(1, 2)}

    def test_object_form_keys_name_integer_ids(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": {"1": "1/2", "2": "1/2"},
            }
        )
        assert dict(parse_document(text).leaf_mass) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
        tree = parse_tree(text)
        assert tree.leaf_mass == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_object_form_key_naming_two_ids_is_rejected(self):
        text = json.dumps(
            {
                "root": "r",
                "edges": [["r", "a", 0], ["r", "b", "0"]],
                "leaf_mass": {"0": "1/2"},
            }
        )
        with pytest.raises(ParseError, match="'0'"):
            parse_document(text)

    @pytest.mark.parametrize(
        "document",
        [
            # two edge ends
            {"root": "r", "edges": [["r", "a", 0], ["r", "b", "0"]],
             "leaf_mass": [[0, "1/2"], ["0", "1/2"]]},
            # an edge end and a list-form leaf id
            {"root": 0, "edges": [[0, "a", 1], [0, "b", 2]],
             "leaf_mass": [[1, "1/2"], ["2", "1/2"]]},
            # the root and an edge end
            {"root": "0", "edges": [[0, "a", 1], [0, "b", 2]],
             "leaf_mass": [[1, "1/2"], [2, "1/2"]]},
        ],
        ids=["edges", "leaf", "root"],
    )
    def test_node_ids_that_print_alike_are_rejected(self, document):
        with pytest.raises(ParseError, match="print alike"):
            parse_document(json.dumps(document))

    def test_resolve_key_naming_two_ids_is_rejected(self):
        with pytest.raises(ParseError, match="'0'"):
            resolve_node_keys({"0": "1"}, [0, "0"])

    def test_version_defaults(self):
        text = json.dumps({"root": 0, "edges": [], "leaf_mass": [[0, "1"]]})
        assert parse_document(text).version == "1"

    def test_numeric_masses_become_floats(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, 0.5], [2, 0.5]],
            }
        )
        doc = parse_document(text)
        assert dict(doc.leaf_mass) == {1: 0.5, 2: 0.5}

    def test_bad_json_reports_location(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_document('{\n  "root": }')

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_document("[1, 2]")

    def test_nesting_too_deep_to_parse_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_document("[" * 200_000 + "]" * 200_000)

    @pytest.mark.parametrize("missing", ["root", "edges", "leaf_mass"])
    def test_missing_required_field(self, missing):
        raw = {
            "root": 0,
            "edges": [[0, "a", 1]],
            "leaf_mass": [[1, "1"]],
        }
        del raw[missing]
        with pytest.raises(ParseError, match=missing):
            parse_document(json.dumps(raw))

    def test_wrong_version(self):
        text = json.dumps(
            {"version": "2", "root": 0, "edges": [], "leaf_mass": [[0, "1"]]}
        )
        with pytest.raises(ParseError, match="version"):
            parse_document(text)

    @pytest.mark.parametrize(
        "edges, message",
        [
            pytest.param("not-a-list", "field 'edges' must be a list", id="not-a-list"),
            pytest.param(
                [GOOD_EDGE, [0, "b"]],
                "edge 1 must be a [parent, label, child] triple, got [0, 'b']",
                id="edges1",
            ),
            pytest.param(
                [GOOD_EDGE, [0, "b", 2, 3]],
                "edge 1 must be a [parent, label, child] triple, got [0, 'b', 2, 3]",
                id="edges2",
            ),
            pytest.param(
                [GOOD_EDGE, {"parent": 0}],
                "edge 1 must be a [parent, label, child] triple, got {'parent': 0}",
                id="edges3",
            ),
            pytest.param(
                [GOOD_EDGE, [0, None, 2]],
                "edge 1 label must be a string or integer, got None",
                id="edges4",
            ),
            pytest.param(
                [GOOD_EDGE, [True, "b", 2]],
                "edge 1 parent must be a string or integer, got True",
                id="edges5",
            ),
            *(
                pytest.param(
                    [GOOD_EDGE, [0, "b", 2][:position] + [bad] + [0, "b", 2][position + 1 :]],
                    f"edge 1 {name} must be a string or integer, got {bad!r}",
                    id=f"{name}-{type(bad).__name__}",
                )
                for position, name in enumerate(["parent", "label", "child"])
                for bad in [True, 1.5, None, [1], {"x": 1}]
            ),
            *(
                pytest.param(
                    [GOOD_EDGE, entry],
                    f"edge 1 must be a [parent, label, child] triple, got {entry!r}",
                    id=f"entry-{type(entry).__name__}",
                )
                for entry in ["x", None, 7, 1.5, True]
            ),
            pytest.param(
                [GOOD_EDGE, [0, "b"], [None, "c", 3]],
                "edge 1 must be a [parent, label, child] triple, got [0, 'b']",
                id="first-of-two",
            ),
            pytest.param(
                [GOOD_EDGE, [0, "b", [2]], ["x"]],
                "edge 1 child must be a string or integer, got [2]",
                id="id-before-arity",
            ),
        ],
    )
    def test_malformed_edges(self, edges, message):
        text = json.dumps({"root": 0, "edges": edges, "leaf_mass": [[1, "1"]]})
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert (type(info.value), str(info.value)) == (ParseError, message)

    @pytest.mark.parametrize(
        "leaf_mass, message",
        [
            pytest.param(
                "not-a-list",
                "field 'leaf_mass' must be a list of pairs or an object",
                id="not-a-list",
            ),
            pytest.param(
                [GOOD_PAIR, [2]],
                "leaf_mass entry 1 must be a [leaf, mass] pair, got [2]",
                id="leaf_mass1",
            ),
            pytest.param(
                [GOOD_PAIR, [2, "1/2", "extra"]],
                "leaf_mass entry 1 must be a [leaf, mass] pair, got [2, '1/2', 'extra']",
                id="leaf_mass2",
            ),
            pytest.param(
                [GOOD_PAIR, [2, "one half"]],
                "leaf 2: not a rational number: 'one half'",
                id="leaf_mass3",
            ),
            pytest.param(
                [GOOD_PAIR, [2, "1/0"]], "leaf 2: not a rational number: '1/0'", id="leaf_mass4"
            ),
            pytest.param(
                [GOOD_PAIR, [2, None]],
                "leaf 2 mass must be a rational string or number, got None",
                id="leaf_mass5",
            ),
            pytest.param(
                [GOOD_PAIR, [2, True]],
                "leaf 2 mass must be a rational string or number, got True",
                id="leaf_mass6",
            ),
            *(
                pytest.param(
                    [GOOD_PAIR, [bad, "1/2"]],
                    f"leaf_mass entry 1 leaf must be a string or integer, got {bad!r}",
                    id=f"leaf-{type(bad).__name__}",
                )
                for bad in [True, 1.5, None, [1], {"x": 1}]
            ),
            *(
                pytest.param(
                    [GOOD_PAIR, entry],
                    f"leaf_mass entry 1 must be a [leaf, mass] pair, got {entry!r}",
                    id=f"entry-{type(entry).__name__}",
                )
                for entry in ["x", None, 7, 1.5, True, {"leaf": 2}]
            ),
            pytest.param(
                [GOOD_PAIR, [2, [1]]],
                "leaf 2 mass must be a rational string or number, got [1]",
                id="mass-list",
            ),
            pytest.param(
                [GOOD_PAIR, [2, "1/2"], [3]],
                "leaf_mass entry 2 must be a [leaf, mass] pair, got [3]",
                id="third-entry",
            ),
            pytest.param(
                [GOOD_PAIR, [2, "x"], [None, "1/2"]],
                "leaf_mass entry 2 leaf must be a string or integer, got None",
                id="ids-before-masses",
            ),
            pytest.param(
                {"1": "1/2", "2": None},
                "leaf 2 mass must be a rational string or number, got None",
                id="object-mass-none",
            ),
            pytest.param(
                {"1": "1/2", "2": "x/2"},
                "leaf 2: not a rational number: 'x/2'",
                id="object-mass-text",
            ),
            pytest.param(
                [GOOD_PAIR, ["2", "1/2"]],
                "node ids 2 and '2' print alike",
                id="print-alike",
            ),
        ],
    )
    def test_malformed_leaf_mass(self, leaf_mass, message):
        text = json.dumps(
            {"root": 0, "edges": [GOOD_EDGE, [0, "b", 2]], "leaf_mass": leaf_mass}
        )
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert (type(info.value), str(info.value)) == (ParseError, message)

    @pytest.mark.parametrize("root", [True, 1.5, None, [0]])
    def test_malformed_root(self, root):
        text = json.dumps({"root": root, "edges": [GOOD_EDGE], "leaf_mass": [GOOD_PAIR]})
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == f"field 'root' must be a string or integer, got {root!r}"

    def test_negative_mass_parses_but_fails_validation(self):
        # syntax check accepts any rational; sign is a build-time concern
        from treeprob import NegativeMass

        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "3/2"], [2, "-1/2"]],
            }
        )
        parse_document(text)
        with pytest.raises(NegativeMass):
            parse_tree(text)

    def test_malformed_metadata(self):
        text = json.dumps(
            {"root": 0, "edges": [], "leaf_mass": [[0, "1"]], "metadata": []}
        )
        with pytest.raises(ParseError, match="metadata"):
            parse_document(text)


class TestDocumentToTree:
    def test_demo_tree(self):
        tree = document_to_tree(parse_document(DEMO_DOCUMENT))
        assert tree.exact
        assert set(tree.leaves) == {2, 5, 6}
        assert tree.leaf_mass[5] == Fraction(1, 2)

    def test_each_distinct_mass_string_is_parsed_once(self, monkeypatch):
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_rational(text)

        monkeypatch.setattr(treefile, "parse_rational", counted)
        edges = [[0, "a", 1], [0, "b", 2], [0, "c", 3], [0, "d", 4]]
        masses = ["1/4", "0.25", "1/4", "1/4"]
        text = json.dumps({"root": 0, "edges": edges,
                           "leaf_mass": [[i + 1, m] for i, m in enumerate(masses)]})
        doc = parse_document(text)
        assert parsed == ["1/4", "0.25"]
        ones = [m for leaf, m in doc.leaf_mass if leaf != 2]
        assert all(m is ones[0] for m in ones) and doc.leaf_mass[1][1] is not ones[0]
        tree = document_to_tree(doc)
        assert tree.leaf_mass == dict.fromkeys([1, 2, 3, 4], Fraction(1, 4))
        assert tree.mass_below == {0: 4, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_matcher_golden_has_one_mass_object_per_string(self):
        # the exact leaf fold passes one term per distinct mass object
        text = (GOLDEN / "matcher.tree").read_text("utf-8")
        strings = {m for _, m in json.loads(text)["leaf_mass"]}
        tree = parse_tree(text)
        objects = {id(m) for m in tree.leaf_mass.values()}
        assert len(objects) == len(strings) < len(tree.leaf_mass)

    def test_build_tree_keeps_the_callers_fractions(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        edges = [(0, "a", 1), (0, "b", 2), (0, "c", 3)]
        tree = build_tree(edges, {1: half, 2: quarter, 3: quarter})
        assert all(tree.leaf_mass[v] is m for v, m in ((1, half), (2, quarter), (3, quarter)))

    def test_a_repeated_bad_mass_string_names_its_first_leaf(self):
        text = json.dumps({"root": 0, "edges": [[0, "a", 1], [0, "b", 2], [0, "c", 3]],
                           "leaf_mass": [[1, "1/2"], [3, "x/2"], [2, "x/2"]]})
        with pytest.raises(ParseError, match="^leaf 3: not a rational number: 'x/2'$"):
            parse_document(text)

    def test_decimal_strings_parse_exactly(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "0.3"], [2, "7/10"]],
            }
        )
        tree = parse_tree(text)
        assert tree.exact
        assert tree.leaf_mass[1] == Fraction(3, 10)

    def test_any_numeric_mass_selects_float_mode(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "1/2"], [2, 0.5]],
            }
        )
        tree = parse_tree(text)
        assert not tree.exact
        assert tree.leaf_mass[1] == 0.5

    @pytest.mark.parametrize(
        "mass, force_float", [(10**400, False), ("1e400", True)], ids=["number", "string"]
    )
    def test_float_mass_beyond_float_range_is_rejected(self, mass, force_float):
        # a JSON number or --float rational too large for a float
        text = json.dumps(
            {"root": 0, "edges": [[0, "a", 1], [0, "b", 2]], "leaf_mass": [[1, mass], [2, "1/2"]]}
        )
        with pytest.raises(NonFiniteMass):
            parse_tree(text, force_float=force_float)

    def test_force_float_downgrades(self):
        tree = parse_tree(DEMO_DOCUMENT, force_float=True)
        assert not tree.exact
        assert tree.leaf_mass[5] == 0.5

    def test_mass_sum_validated(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "1/2"], [2, "2/5"]],
            }
        )
        with pytest.raises(MassNotNormalized):
            parse_tree(text)

    def test_duplicate_leaf_rejected(self):
        doc = TreeDocument(
            root=0,
            edges=((0, "a", 1), (0, "b", 2)),
            leaf_mass=((1, "1/2"), (1, "1/4"), (2, "1/4")),
        )
        with pytest.raises(ParseError, match="twice"):
            document_to_tree(doc)

    def test_first_repeated_leaf_is_named(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2], [0, "c", 3]],
                "leaf_mass": [[2, "1/4"], [1, "1/4"], [3, "1/2"], [1, "1/4"], [2, "1/4"]],
            }
        )
        with pytest.raises(ParseError) as info:
            parse_tree(text)
        assert str(info.value) == "leaf 1 listed twice in leaf_mass"

    def test_declared_root_must_match(self):
        doc = TreeDocument(
            root=1,
            edges=((0, "a", 1), (0, "b", 2)),
            leaf_mass=((1, "1/2"), (2, "1/2")),
        )
        with pytest.raises(ParseError, match="root"):
            document_to_tree(doc)


class TestRoundTrips:
    def test_document_round_trip_exact(self):
        doc = parse_document(DEMO_DOCUMENT)
        assert parse_document(serialize_document(doc)) == doc

    def test_document_round_trip_float(self):
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.25, 2: 0.75})
        doc = tree_to_document(tree, metadata={"note": "float"})
        assert parse_document(serialize_document(doc)) == doc

    def test_tree_round_trip_preserves_structure_and_mode(self):
        for tree in (f(i) for f in (corpus_tree, informative_tree) for i in range(25)):
            back = parse_tree(serialize_tree(tree))
            assert back.exact
            assert structurally_equal(tree, back)
            assert back.leaf_mass == tree.leaf_mass

    def test_tree_round_trip_float(self):
        for tree in (float_mirror(f(i)) for f in (corpus_tree, informative_tree) for i in range(10)):
            back = parse_tree(serialize_tree(tree))
            assert not back.exact
            assert structurally_equal(tree, back)
            assert back.leaf_mass == tree.leaf_mass

    def test_float_conversion_is_the_forced_float_document(self):
        # Tree.as_float, which a pair that is not both exact runs through,
        # builds the tree that --float loads from the tree's document
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                tree = family(i)
                converted = tree.as_float()
                forced = parse_tree(serialize_tree(tree), force_float=True)
                assert converted.nodes == forced.nodes, i
                assert list(converted.leaf_mass.items()) == list(forced.leaf_mass.items()), i
                assert [converted.node_mass[v].hex() for v in converted.nodes] == [
                    forced.node_mass[v].hex() for v in forced.nodes
                ], i

    def test_canonical_fraction_strings(self):
        tree = build_tree(
            [(0, "a", 1), (0, "b", 2)],
            {1: Fraction(2, 8), 2: Fraction(6, 8)},
        )
        doc = tree_to_document(tree)
        assert dict(doc.leaf_mass) == {1: Fraction(1, 4), 2: Fraction(3, 4)}
        assert json.loads(serialize_document(doc))["leaf_mass"] == [[1, "1/4"], [2, "3/4"]]

    def test_serialized_text_is_stable(self):
        for tree in (corpus_tree(4), informative_tree(4)):
            assert serialize_tree(tree) == serialize_tree(tree)
            assert serialize_tree(tree).endswith("\n")

    def test_metadata_survives(self):
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.5, 2: 0.5})
        text = serialize_tree(tree, metadata={"source": "unit"})
        assert parse_document(text).metadata == {"source": "unit"}


def reference_text(doc: TreeDocument) -> str:
    """The stdlib's indented encoding of a document, the layout that
    ``serialize_document`` writes directly."""
    payload = {
        "version": doc.version,
        "root": doc.root,
        "edges": [list(edge) for edge in doc.edges],
        "leaf_mass": [
            [node, str(mass) if isinstance(mass, Fraction) else mass]
            for node, mass in doc.leaf_mass
        ],
        "metadata": doc.metadata,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# string ids that JSON must escape or that ensure_ascii=False writes raw
AWKWARD_IDS = ['q"uote', "back\\slash", "new\nline", "nul\x00", "line\u2028sep", "lone\ud800", "\U0001F333", "é"]


class TestWrittenBytes:
    def test_matcher_golden_is_reproduced(self):
        text = (GOLDEN / "matcher.tree").read_text("utf-8")
        assert serialize_tree(parse_tree(text)) == text

    @pytest.mark.parametrize("mirror", [False, True], ids=["exact", "float"])
    def test_corpus_matches_the_stdlib_encoding(self, mirror):
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                tree = float_mirror(family(i)) if mirror else family(i)
                doc = tree_to_document(tree)
                assert serialize_document(doc) == reference_text(doc), i

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(TreeDocument(0, (), ((0, Fraction(1)),)), id="bare-root"),
            pytest.param(TreeDocument(0, (), ()), id="no-leaf-mass"),
            pytest.param(
                TreeDocument(
                    "r",
                    tuple(("r", name, name + "!") for name in AWKWARD_IDS),
                    tuple((name + "!", Fraction(1, len(AWKWARD_IDS))) for name in AWKWARD_IDS),
                ),
                id="escaped-strings",
            ),
            pytest.param(
                TreeDocument(-1, ((-1, -2, -(10**3999)), (-1, 10**3999, 7)), ((-(10**3999), 0.5), (7, 0.5))),
                id="long-and-negative-ints",
            ),
            pytest.param(
                TreeDocument(0, ((0, "a", 1), (0, "b", 2), (0, "c", 3)), ((1, 5e-324), (2, 1e308), (3, 1.0))),
                id="subnormal-and-huge-floats",
            ),
            pytest.param(
                TreeDocument(0, ((0, "a", 1), (0, "b", 2), (0, "c", 3)), ((1, "1/4"), (2, "0.25"), (3, 0.5))),
                id="string-masses",
            ),
            pytest.param(
                TreeDocument(
                    0,
                    ((0, "a", 1),),
                    ((1, Fraction(1)),),
                    metadata={"größe": {"liste": [1, "zwei", {"drei": None}], "leer": {}, "nichts": []}, "n": 1.5},
                ),
                id="nested-metadata",
            ),
            pytest.param(
                TreeDocument(
                    0,
                    ((0, "a", 1),),
                    ((1, Fraction(1)),),
                    metadata={1: {"x": ["nul\x00", (2, -0.0)]}, None: [True], 2.5: "\ud800", "é": {7: {}}},
                ),
                id="metadata-keys-json-converts",
            ),
        ],
    )
    def test_hand_built_documents_match_the_stdlib_encoding(self, doc):
        assert serialize_document(doc) == reference_text(doc)


class TestSerializerRefusals:
    """``serialize_document`` refuses the ids, labels and masses that
    ``parse_document`` refuses, with the parser's ParseError message."""

    @staticmethod
    def assert_same_refusal(root, edges, leaf_mass, **fields):
        """``fields`` are the optional version and metadata, set in both."""
        with pytest.raises(ParseError) as parsed:
            parse_document(
                json.dumps({"root": root, "edges": edges, "leaf_mass": leaf_mass, **fields})
            )
        doc = TreeDocument(root, tuple(map(tuple, edges)), tuple(map(tuple, leaf_mass)), **fields)
        with pytest.raises(ParseError) as written:
            serialize_document(doc)
        assert str(written.value) == str(parsed.value)

    BAD_IDS = [True, 1.5, None, [1], {"x": 1}]

    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_root(self, bad):
        self.assert_same_refusal(bad, [GOOD_EDGE], [GOOD_PAIR])

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["parent", "label", "child"])
    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_edge_ids_and_labels(self, position, bad):
        edge = [0, "b", 2]
        edge[position] = bad
        self.assert_same_refusal(0, [GOOD_EDGE, edge], [GOOD_PAIR, [2, "1/2"]])

    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_leaf_ids(self, bad):
        self.assert_same_refusal(0, [GOOD_EDGE, [0, "b", 2]], [GOOD_PAIR, [bad, "1/2"]])

    @pytest.mark.parametrize("bad", [True, None, [1], {"x": 1}], ids=lambda bad: type(bad).__name__)
    def test_masses(self, bad):
        self.assert_same_refusal(0, [GOOD_EDGE, [0, "b", 2]], [GOOD_PAIR, [2, bad]])

    @pytest.mark.parametrize("bad", ["abc", "1/0", "-1/2/3", "1e5000"])
    def test_string_masses_that_are_no_rational(self, bad):
        self.assert_same_refusal(0, [GOOD_EDGE, [0, "b", 2]], [GOOD_PAIR, [2, bad]])

    @pytest.mark.parametrize("version", ["2", 1, None], ids=repr)
    def test_version(self, version):
        self.assert_same_refusal(0, [GOOD_EDGE], [GOOD_PAIR], version=version)

    @pytest.mark.parametrize("metadata", [[1], "x", None], ids=lambda bad: type(bad).__name__)
    def test_metadata_that_is_no_object(self, metadata):
        self.assert_same_refusal(0, [GOOD_EDGE], [GOOD_PAIR], metadata=metadata)

    @pytest.mark.parametrize(
        "edges, leaf_mass",
        [
            ([GOOD_EDGE, [0, "b", "0"]], [GOOD_PAIR, ["0", "1/2"]]),
            ([GOOD_EDGE, [0, "b", 2]], [["1", "1/2"], [2, "1/2"]]),
            ([[0, "a", "1"], [1, "b", 2], [0, "b", 3]], [[2, "1/2"], [3, "1/2"]]),
            ([[0, 0, 1], [0, 1, "1"]], [[1, "1/2"], ["1", "1/2"]]),
            ([[0, 0, "0"], [0, 1, 2]], [["0", "1/2"], [2, "1/2"]]),
        ],
        ids=["edge ids", "leaf id", "child before parent", "integer labels", "root"],
    )
    def test_ids_that_print_alike(self, edges, leaf_mass):
        self.assert_same_refusal(0, edges, leaf_mass)

    @pytest.mark.parametrize(
        "root, edges, leaf_mass, built",
        [
            (0, [[0, 0, 1], [0, 1, 2]], [[1, "1/2"], [2, "1/2"]], 0),
            ("r", [["r", "a", "x"], ["r", "b", "y"]], [["x", "1/2"], ["y", "1/2"]], 0),
            (0, [[0, 0, 1], [0, 1, "y"]], [[1, "1/2"], ["y", "1/2"]], 1),
            (0, [[0, "a", 1], [0, "b", 2]], [[1, "1/2"], [2, "1/2"]], 0),
            ("r", [["r", 0, "x"], ["r", 1, "y"]], [["x", "1/2"], ["y", "1/2"]], 0),
        ],
        ids=["integers", "strings", "mixed ids", "integer ids", "string ids"],
    )
    def test_id_list_only_for_ids_of_both_types(self, monkeypatch, root, edges, leaf_mass, built):
        """The print-alike check builds the ordered id list only when both an
        integer and a string occur among the ids; the labels' types do not
        count."""
        calls = []
        node_ids = treefile._node_ids

        def counted(*args):
            calls.append(args)
            return node_ids(*args)

        monkeypatch.setattr(treefile, "_node_ids", counted)
        doc = parse_document(json.dumps({"root": root, "edges": edges, "leaf_mass": leaf_mass}))
        serialize_document(doc)
        assert len(calls) == 2 * built

    def test_first_refusal_in_parse_order(self):
        self.assert_same_refusal(0, [GOOD_EDGE, [0, None, 2]], [[None, True]])

    def test_tuple_ids_of_a_built_tree(self):
        tree = build_tree([((0,), "a", (1,)), ((0,), "b", (2,))], {(1,): 0.5, (2,): 0.5})
        with pytest.raises(ParseError, match=r"field 'root' must be a string or integer, got \(0,\)"):
            serialize_tree(tree)

    def test_bool_label_of_a_built_tree(self):
        tree = build_tree([(0, True, 1), (0, False, 2)], {1: 0.5, 2: 0.5})
        with pytest.raises(ParseError, match="edge 0 label must be a string or integer, got True"):
            serialize_tree(tree)

    def test_rows_of_the_wrong_length(self):
        doc = TreeDocument(0, ((0, "a", 1), (0, "b")), ((1, "1/2"), (2, "1/2", "x")))
        with pytest.raises(ParseError, match=r"edge 1 must be a \[parent, label, child\] triple"):
            serialize_document(doc)
