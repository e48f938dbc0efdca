import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import DEMO_DOCUMENT, GRAMMAR_EXTENSIONS
from corpus import corpus_tree, float_mirror, informative_tree
from treeprob import (
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    ParseError,
    TreeProbError,
    build_tree,
    parse_tree,
    serialize_tree,
    structurally_equal,
)
from treeprob import treefile
from treeprob.numeric import parse_rational
from treeprob.treefile import resolve_node_keys

# a well-formed edge and leaf_mass pair, placed before each malformed entry
GOOD_EDGE = [0, "a", 1]
GOOD_PAIR = [1, "1/2"]

GOLDEN = Path(__file__).parent / "golden"


def written(tree, metadata=None) -> dict:
    """The JSON value of ``tree``'s document as ``serialize_tree`` writes it."""
    return json.loads(serialize_tree(tree, metadata))


class TestParseDocument:
    """``parse_tree``'s checks of the document, before the tree is built."""

    def test_demo_document(self):
        tree = parse_tree(DEMO_DOCUMENT)
        assert written(tree)["version"] == "1"
        assert tree.root == 0
        assert sum(map(len, tree.children.values())) == 5
        assert tree.leaf_mass == {2: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(1, 4)}
        assert written(tree)["metadata"] == {}

    def test_object_form_leaf_mass(self):
        text = json.dumps(
            {
                "root": "r",
                "edges": [["r", "a", "x"], ["r", "b", "y"]],
                "leaf_mass": {"x": "1/2", "y": "1/2"},
            }
        )
        assert parse_tree(text).leaf_mass == {"x": Fraction(1, 2), "y": Fraction(1, 2)}

    def test_object_form_keys_name_integer_ids(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": {"1": "1/2", "2": "1/2"},
            }
        )
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
            parse_tree(text)

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
            parse_tree(json.dumps(document))

    def test_resolve_key_naming_two_ids_is_rejected(self):
        with pytest.raises(ParseError, match="'0'"):
            resolve_node_keys({"0": "1"}, [0, "0"])

    def test_version_defaults(self):
        text = json.dumps({"root": 0, "edges": [], "leaf_mass": [[0, "1"]]})
        assert written(parse_tree(text))["version"] == "1"

    def test_numeric_masses_become_floats(self):
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, 0.5], [2, 0.5]],
            }
        )
        tree = parse_tree(text)
        assert not tree.exact
        assert tree.leaf_mass == {1: 0.5, 2: 0.5}

    def test_bad_json_reports_location(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            parse_tree('{\n  "root": }')

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_tree("[1, 2]")

    def test_nesting_too_deep_to_parse_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tree("[" * 200_000 + "]" * 200_000)

    @pytest.mark.parametrize("missing", ["root", "edges", "leaf_mass"])
    def test_missing_required_field(self, missing):
        raw = {
            "root": 0,
            "edges": [[0, "a", 1]],
            "leaf_mass": [[1, "1"]],
        }
        del raw[missing]
        with pytest.raises(ParseError, match=missing):
            parse_tree(json.dumps(raw))

    def test_wrong_version(self):
        text = json.dumps(
            {"version": "2", "root": 0, "edges": [], "leaf_mass": [[0, "1"]]}
        )
        with pytest.raises(ParseError, match="version"):
            parse_tree(text)

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
            parse_tree(text)
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
            # Fraction(str) reads these on some Python versions only
            *(
                pytest.param(
                    [GOOD_PAIR, [2, mass]],
                    f"leaf 2: not a rational number: {mass!r}",
                    id=f"grammar-{mass}",
                )
                for mass in GRAMMAR_EXTENSIONS
            ),
        ],
    )
    def test_malformed_leaf_mass(self, leaf_mass, message):
        text = json.dumps(
            {"root": 0, "edges": [GOOD_EDGE, [0, "b", 2]], "leaf_mass": leaf_mass}
        )
        with pytest.raises(ParseError) as info:
            parse_tree(text)
        assert (type(info.value), str(info.value)) == (ParseError, message)

    @pytest.mark.parametrize("root", [True, 1.5, None, [0]])
    def test_malformed_root(self, root):
        text = json.dumps({"root": root, "edges": [GOOD_EDGE], "leaf_mass": [GOOD_PAIR]})
        with pytest.raises(ParseError) as info:
            parse_tree(text)
        assert str(info.value) == f"field 'root' must be a string or integer, got {root!r}"

    def test_negative_mass_parses_but_fails_validation(self):
        # syntax check accepts any rational; sign is a build-time concern
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "3/2"], [2, "-1/2"]],
            }
        )
        with pytest.raises(NegativeMass) as info:
            parse_tree(text)
        assert str(info.value) == "leaf 2 has negative mass -1/2"

    def test_malformed_metadata(self):
        text = json.dumps(
            {"root": 0, "edges": [], "leaf_mass": [[0, "1"]], "metadata": []}
        )
        with pytest.raises(ParseError, match="metadata"):
            parse_tree(text)

    def test_first_refusal_in_parse_order(self):
        # the edges are checked before the leaf ids, and those before the masses
        text = json.dumps({"root": 0, "edges": [GOOD_EDGE, [0, None, 2]],
                           "leaf_mass": [[None, True]]})
        with pytest.raises(ParseError) as info:
            parse_tree(text)
        assert str(info.value) == "edge 1 label must be a string or integer, got None"


class TestDocumentToTree:
    """``parse_tree``'s checks of the tree the document describes."""

    def test_demo_tree(self):
        tree = parse_tree(DEMO_DOCUMENT)
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
        tree = parse_tree(text)
        assert parsed == ["1/4", "0.25"]
        ones = [m for leaf, m in tree.leaf_mass.items() if leaf != 2]
        assert all(m is ones[0] for m in ones) and tree.leaf_mass[2] is not ones[0]
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
            parse_tree(text)

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
        text = json.dumps(
            {
                "root": 0,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "1/2"], [1, "1/4"], [2, "1/4"]],
            }
        )
        with pytest.raises(ParseError, match="twice"):
            parse_tree(text)

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
        text = json.dumps(
            {
                "root": 1,
                "edges": [[0, "a", 1], [0, "b", 2]],
                "leaf_mass": [[1, "1/2"], [2, "1/2"]],
            }
        )
        with pytest.raises(ParseError) as info:
            parse_tree(text)
        assert str(info.value) == "declared root 1 but edges imply root 0"


class TestRoundTrips:
    def test_document_round_trip_exact(self):
        tree = parse_tree(DEMO_DOCUMENT)
        text = serialize_tree(tree)
        back = parse_tree(text)
        assert back.exact and structurally_equal(tree, back)
        assert back.leaf_mass == tree.leaf_mass
        assert serialize_tree(back) == text

    def test_document_round_trip_float(self):
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.25, 2: 0.75})
        text = serialize_tree(tree, metadata={"note": "float"})
        back = parse_tree(text)
        assert not back.exact and structurally_equal(tree, back)
        assert back.leaf_mass == tree.leaf_mass
        assert serialize_tree(back, metadata={"note": "float"}) == text

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
        assert parse_tree(serialize_tree(tree)).leaf_mass == {1: Fraction(1, 4), 2: Fraction(3, 4)}
        assert written(tree)["leaf_mass"] == [[1, "1/4"], [2, "3/4"]]

    def test_serialized_text_is_stable(self):
        for tree in (corpus_tree(4), informative_tree(4)):
            assert serialize_tree(tree) == serialize_tree(tree)
            assert serialize_tree(tree).endswith("\n")

    def test_metadata_survives(self):
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.5, 2: 0.5})
        text = serialize_tree(tree, metadata={"source": "unit"})
        assert json.loads(text)["metadata"] == {"source": "unit"}
        assert structurally_equal(parse_tree(text), tree)


def reference_text(tree, metadata=None) -> str:
    """The stdlib's indented encoding of a tree's document, the layout that
    ``serialize_tree`` writes directly: edges grouped by parent in
    preorder, leaves in preorder."""
    payload = {
        "version": "1",
        "root": tree.root,
        "edges": [[v, label, child] for v in tree.nodes for label, child in tree.children[v]],
        "leaf_mass": [
            [leaf, str(mass) if isinstance(mass, Fraction) else mass]
            for leaf, mass in zip(tree.leaves, map(tree.leaf_mass.get, tree.leaves))
        ],
        "metadata": {} if metadata is None else metadata,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# string ids that JSON must escape or that ensure_ascii=False writes raw
AWKWARD_IDS = ['q"uote', "back\\slash", "new\nline", "nul\x00", "line\u2028sep", "lone\ud800", "\U0001F333", "é"]
THREE_LEAVES = [(0, "a", 1), (0, "b", 2), (0, "c", 3)]


class TestWrittenBytes:
    def test_matcher_golden_is_reproduced(self):
        text = (GOLDEN / "matcher.tree").read_text("utf-8")
        assert serialize_tree(parse_tree(text)) == text

    @pytest.mark.parametrize("mirror", [False, True], ids=["exact", "float"])
    def test_corpus_matches_the_stdlib_encoding(self, mirror):
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                tree = float_mirror(family(i)) if mirror else family(i)
                assert serialize_tree(tree) == reference_text(tree), i

    @pytest.mark.parametrize(
        "edges, leaf_mass, metadata",
        [
            pytest.param([], {0: Fraction(1)}, None, id="bare-root"),
            # a leaf given no mass is pruned, so the document names it nowhere
            pytest.param([(0, "a", 1), (0, "b", 2)], {1: Fraction(1)}, None, id="no-leaf-mass"),
            pytest.param(
                [("r", name, name + "!") for name in AWKWARD_IDS],
                {name + "!": Fraction(1, len(AWKWARD_IDS)) for name in AWKWARD_IDS},
                None,
                id="escaped-strings",
            ),
            pytest.param(
                [(-1, -2, -(10**3999)), (-1, 10**3999, 7)], {-(10**3999): 0.5, 7: 0.5}, None,
                id="long-and-negative-ints",
            ),
            pytest.param(
                THREE_LEAVES, {1: 5e-324, 2: 1e-310, 3: 1.0}, {"huge": 1e308, "tiny": 5e-324},
                id="subnormal-and-huge-floats",
            ),
            # build_tree parses string masses; each is written reduced
            pytest.param(THREE_LEAVES, {1: "1/4", 2: "0.25", 3: "2/4"}, None, id="string-masses"),
            pytest.param(
                [(0, "a", 1)],
                {1: Fraction(1)},
                {"größe": {"liste": [1, "zwei", {"drei": None}], "leer": {}, "nichts": []}, "n": 1.5},
                id="nested-metadata",
            ),
            pytest.param(
                [(0, "a", 1)],
                {1: Fraction(1)},
                {1: {"x": ["nul\x00", (2, -0.0)]}, None: [True], 2.5: "\ud800", "é": {7: {}}},
                id="metadata-keys-json-converts",
            ),
        ],
    )
    def test_hand_built_documents_match_the_stdlib_encoding(self, edges, leaf_mass, metadata):
        tree = build_tree(edges, leaf_mass)
        assert serialize_tree(tree, metadata) == reference_text(tree, metadata)

    def test_one_string_per_mass_object(self, monkeypatch):
        # the matcher's leaves share a handful of Fractions, and each is
        # printed once however many leaves hold it
        tree = parse_tree((GOLDEN / "matcher.tree").read_text("utf-8"))
        printed = []
        to_text = Fraction.__str__

        def counted(self):
            printed.append(self)
            return to_text(self)

        monkeypatch.setattr(Fraction, "__str__", counted)
        serialize_tree(tree)
        objects = {id(m) for m in tree.leaf_mass.values()}
        assert len(printed) == len(objects) < len(tree.leaves)


BAD_IDS = [True, 1.5, None, [1], {"x": 1}]


def hashable(value) -> bool:
    return not isinstance(value, (list, dict))


class TestSerializerRefusals:
    """``serialize_tree`` refuses the ids, labels and metadata of a built
    tree that ``parse_tree`` refuses in its document, with the parser's
    ParseError message.  A tree's version, row lengths and mass types are
    right by construction; those refusals are the parser's alone, on the
    written text edited."""

    @staticmethod
    def assert_same_refusal(root, edges, leaf_mass, builds=True, **fields):
        """``parse_tree`` refuses the document of ``root``, ``edges`` and
        ``leaf_mass`` (with the optional ``fields``), and ``serialize_tree``
        refuses the tree those rows build with the same message.  Rows that
        hold an unhashable id, or a leaf that is no node, build no tree
        (``builds`` False): ``build_tree`` refuses them."""
        with pytest.raises(ParseError) as parsed:
            parse_tree(json.dumps({"root": root, "edges": edges, "leaf_mass": leaf_mass, **fields}))
        rows = [tuple(edge) for edge in edges]
        masses = [(leaf, parse_rational(mass)) for leaf, mass in leaf_mass]
        if not builds:
            with pytest.raises((TypeError, TreeProbError)):
                build_tree(rows, dict(masses))
            return
        tree = build_tree(rows, dict(masses))
        # the rows list the tree's edges and leaves in the order it writes them
        assert (tree.root, list(tree.leaf_mass.items())) == (root, masses)
        with pytest.raises(ParseError) as written_:
            serialize_tree(tree, fields.get("metadata"))
        assert str(written_.value) == str(parsed.value)

    @staticmethod
    def refusal_of_edited(edit) -> str:
        """The ParseError message of ``parse_tree`` on the written document
        of a two-leaf tree after ``edit`` changes its JSON value in place."""
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: Fraction(1, 2), 2: Fraction(1, 2)})
        document = written(tree)
        assert document["leaf_mass"] == [[1, "1/2"], [2, "1/2"]]
        edit(document)
        with pytest.raises(ParseError) as info:
            parse_tree(json.dumps(document))
        return str(info.value)

    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_root(self, bad):
        self.assert_same_refusal(
            bad, [[bad, "a", 10], [bad, "b", 20]], [[10, "1/2"], [20, "1/2"]], hashable(bad)
        )

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["parent", "label", "child"])
    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_edge_ids_and_labels(self, position, bad):
        # the tree 0 -a-> 10, 0 -b-> 20 -c-> 30, with node 20 (a parent), the
        # label b or the leaf 30 replaced
        edges = [[0, "a", 10], [0, "b", 20], [20, "c", 30]]
        leaf = 30
        if position == 0:
            edges[1][2] = edges[2][0] = bad
        elif position == 1:
            edges[1][1] = bad
        else:
            edges[2][2] = leaf = bad
        self.assert_same_refusal(0, edges, [[10, "1/2"], [leaf, "1/2"]], hashable(bad))

    @pytest.mark.parametrize("bad", BAD_IDS, ids=lambda bad: type(bad).__name__)
    def test_leaf_ids(self, bad):
        # a leaf is an edge's child, so the edge names it first
        self.assert_same_refusal(
            0, [[0, "a", 10], [0, "b", bad]], [[10, "1/2"], [bad, "1/2"]], hashable(bad)
        )

    @pytest.mark.parametrize("bad", [True, None, [1], {"x": 1}], ids=lambda bad: type(bad).__name__)
    def test_masses(self, bad):
        def edit(document):
            document["leaf_mass"][1][1] = bad

        message = f"leaf 2 mass must be a rational string or number, got {bad!r}"
        assert self.refusal_of_edited(edit) == message

    @pytest.mark.parametrize("bad", ["abc", "1/0", "-1/2/3", "1e5000"])
    def test_string_masses_that_are_no_rational(self, bad):
        def edit(document):
            document["leaf_mass"][1][1] = bad

        assert self.refusal_of_edited(edit) == f"leaf 2: not a rational number: {bad!r}"

    @pytest.mark.parametrize("version", ["2", 1, None], ids=repr)
    def test_version(self, version):
        assert self.refusal_of_edited(lambda document: document.update(version=version)) == (
            f"unsupported document version {version!r}"
        )

    def test_rows_of_the_wrong_length(self):
        def edit(document):
            document["edges"][1] = document["edges"][1][:2]
            document["leaf_mass"][1].append("x")

        message = "edge 1 must be a [parent, label, child] triple, got [0, 'b']"
        assert self.refusal_of_edited(edit) == message

    @pytest.mark.parametrize("metadata", [[1], "x", None], ids=lambda bad: type(bad).__name__)
    def test_metadata_that_is_no_object(self, metadata):
        if metadata is not None:
            self.assert_same_refusal(0, [[0, "a", 1]], [[1, "1"]], metadata=metadata)
            return
        # serialize_tree's metadata=None is no metadata, written as {}
        text = json.dumps({"root": 0, "edges": [[0, "a", 1]], "leaf_mass": [[1, "1"]], "metadata": None})
        with pytest.raises(ParseError, match="^field 'metadata' must be an object$"):
            parse_tree(text)
        assert written(parse_tree(text.replace("null", "{}")), None)["metadata"] == {}

    @pytest.mark.parametrize(
        "edges, leaf_mass, builds",
        [
            ([[0, "a", 1], [0, "b", "0"]], [[1, "1/2"], ["0", "1/2"]], True),
            # a leaf id that names no node
            ([[0, "a", 1], [0, "b", 2]], [["1", "1/2"], [2, "1/2"]], False),
            # "1" is a child before 1 is a parent, and the parents are listed first
            ([[0, "a", "1"], [0, "b", 1], [1, "c", 2]], [["1", "1/2"], [2, "1/2"]], True),
            ([[0, 0, 1], [0, 1, "1"]], [[1, "1/2"], ["1", "1/2"]], True),
            ([[0, 0, "0"], [0, 1, 2]], [["0", "1/2"], [2, "1/2"]], True),
        ],
        ids=["edge ids", "leaf id", "child before parent", "integer labels", "root"],
    )
    def test_ids_that_print_alike(self, edges, leaf_mass, builds):
        self.assert_same_refusal(0, edges, leaf_mass, builds)

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
        tree = parse_tree(json.dumps({"root": root, "edges": edges, "leaf_mass": leaf_mass}))
        serialize_tree(tree)
        assert len(calls) == 2 * built

    def test_first_refusal_in_parse_order(self):
        # a bad label, then a bad leaf, then bad metadata: the label is named
        self.assert_same_refusal(
            0, [[0, "a", 10], [0, None, 1.5]], [[10, "1/2"], [1.5, "1/2"]], metadata=[]
        )

    def test_tuple_ids_of_a_built_tree(self):
        tree = build_tree([((0,), "a", (1,)), ((0,), "b", (2,))], {(1,): 0.5, (2,): 0.5})
        with pytest.raises(ParseError, match=r"field 'root' must be a string or integer, got \(0,\)"):
            serialize_tree(tree)

    def test_bool_label_of_a_built_tree(self):
        tree = build_tree([(0, True, 1), (0, False, 2)], {1: 0.5, 2: 0.5})
        with pytest.raises(ParseError, match="edge 0 label must be a string or integer, got True"):
            serialize_tree(tree)

    def test_mass_past_the_int_string_limit(self):
        # the parser refuses a mass string past the limit, naming its leaf;
        # the serializer cannot print the string and names the leaf alike
        big = 10**5000
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: Fraction(1, big), 2: Fraction(big - 1, big)})
        with pytest.raises(ParseError) as info:
            serialize_tree(tree)
        assert str(info.value).startswith("leaf 1: not a rational number: about 0.0 (1-bit numerator, ")
        text = json.dumps({"root": 0, "edges": [[0, "a", 1]], "leaf_mass": [[1, "1/" + "9" * 5000]]})
        with pytest.raises(ParseError, match="^leaf 1: not a rational number: '1/999"):
            parse_tree(text)
