import json
from fractions import Fraction

import pytest

from conftest import DEMO_DOCUMENT
from corpus import corpus_tree, float_mirror
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
from treeprob.treefile import resolve_node_keys


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
        "edges",
        [
            "not-a-list",
            [[0, "a"]],
            [[0, "a", 1, 2]],
            [{"parent": 0}],
            [[0, None, 1]],
            [[True, "a", 1]],
        ],
    )
    def test_malformed_edges(self, edges):
        text = json.dumps({"root": 0, "edges": edges, "leaf_mass": [[0, "1"]]})
        with pytest.raises(ParseError):
            parse_document(text)

    @pytest.mark.parametrize(
        "leaf_mass",
        [
            "not-a-list",
            [[1]],
            [[1, "1/2", "extra"]],
            [[1, "one half"]],
            [[1, "1/0"]],
            [[1, None]],
            [[1, True]],
        ],
    )
    def test_malformed_leaf_mass(self, leaf_mass):
        text = json.dumps({"root": 0, "edges": [], "leaf_mass": leaf_mass})
        with pytest.raises(ParseError):
            parse_document(text)

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
        for i in range(25):
            tree = corpus_tree(i)
            back = parse_tree(serialize_tree(tree))
            assert back.exact
            assert structurally_equal(tree, back)
            assert back.leaf_mass == tree.leaf_mass

    def test_tree_round_trip_float(self):
        for i in range(10):
            tree = float_mirror(corpus_tree(i))
            back = parse_tree(serialize_tree(tree))
            assert not back.exact
            assert structurally_equal(tree, back)
            assert back.leaf_mass == tree.leaf_mass

    def test_canonical_fraction_strings(self):
        tree = build_tree(
            [(0, "a", 1), (0, "b", 2)],
            {1: Fraction(2, 8), 2: Fraction(6, 8)},
        )
        doc = tree_to_document(tree)
        assert dict(doc.leaf_mass) == {1: Fraction(1, 4), 2: Fraction(3, 4)}
        assert json.loads(serialize_document(doc))["leaf_mass"] == [[1, "1/4"], [2, "3/4"]]

    def test_serialized_text_is_stable(self):
        tree = corpus_tree(4)
        assert serialize_tree(tree) == serialize_tree(tree)
        assert serialize_tree(tree).endswith("\n")

    def test_metadata_survives(self):
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.5, 2: 0.5})
        text = serialize_tree(tree, metadata={"source": "unit"})
        assert parse_document(text).metadata == {"source": "unit"}
