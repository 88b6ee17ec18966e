"""Unit tests for Dewey IDs (Section V, Figure 9)."""

import pickle

import pytest

from repro.xmldoc.dewey import (DeweyID, assign_dewey_ids, document_order,
                                node_at)
from repro.xmldoc.model import XMLDocument, XMLNode


class TestDeweyID:
    def test_encode_parse_roundtrip(self):
        dewey = DeweyID(7, (0, 2, 1))
        assert dewey.encode() == "7.0.2.1"
        assert DeweyID.parse("7.0.2.1") == dewey

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            DeweyID.parse("7.a.1")
        with pytest.raises(ValueError):
            DeweyID.parse("")

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            DeweyID(-1)
        with pytest.raises(ValueError):
            DeweyID(0, (1, -2))

    def test_child_and_parent(self):
        dewey = DeweyID(3, (1,))
        assert dewey.child(4) == DeweyID(3, (1, 4))
        assert dewey.child(4).parent() == dewey

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            DeweyID(0).parent()

    def test_depth(self):
        assert DeweyID(0).depth == 0
        assert DeweyID(0, (1, 2)).depth == 2

    def test_ancestor_descendant(self):
        ancestor = DeweyID(1, (0,))
        descendant = DeweyID(1, (0, 3, 2))
        assert ancestor.is_ancestor_of(descendant)
        assert descendant.is_descendant_of(ancestor)
        assert not descendant.is_ancestor_of(ancestor)
        assert not ancestor.is_ancestor_of(ancestor)  # proper

    def test_no_ancestry_across_documents(self):
        assert not DeweyID(1).is_ancestor_of(DeweyID(2, (0,)))

    def test_contains_is_reflexive(self):
        dewey = DeweyID(1, (2,))
        assert dewey.contains(dewey)
        assert dewey.contains(dewey.child(0))

    def test_distance_to_descendant(self):
        ancestor = DeweyID(0, (1,))
        assert ancestor.distance_to_descendant(ancestor) == 0
        assert ancestor.distance_to_descendant(DeweyID(0, (1, 2, 3))) == 2
        with pytest.raises(ValueError):
            ancestor.distance_to_descendant(DeweyID(0, (2,)))

    def test_common_ancestor(self):
        left = DeweyID(0, (1, 2, 3))
        right = DeweyID(0, (1, 4))
        assert left.common_ancestor(right) == DeweyID(0, (1,))
        assert left.common_ancestor(DeweyID(1, (1,))) is None

    def test_ordering_is_document_order(self):
        ids = [DeweyID(0, (1, 2)), DeweyID(0, (1,)), DeweyID(0, (0, 9)),
               DeweyID(1,), DeweyID(0, (1, 2, 0))]
        ordered = list(document_order(ids))
        assert [d.encode() for d in ordered] == \
            ["0.0.9", "0.1", "0.1.2", "0.1.2.0", "1"]

    def test_hash_consistency(self):
        assert len({DeweyID(0, (1,)), DeweyID(0, (1,))}) == 1

    def test_eq_other_type(self):
        assert DeweyID(0) != "0"


class TestMemo:
    """The hash and the dotted form are memoized; the memo is derived
    state and never changes what an ID means."""

    @staticmethod
    def memoized(doc_id, path):
        dewey = DeweyID(doc_id, path)
        hash(dewey)
        dewey.encode()
        return dewey

    def test_memoized_and_fresh_ids_are_interchangeable(self):
        memo = self.memoized(4, (0, 2))
        fresh = DeweyID(4, (0, 2))
        assert memo == fresh and fresh == memo
        assert hash(memo) == hash(fresh)
        assert len({memo, fresh}) == 1
        assert memo.encode() == fresh.encode() == "4.0.2"
        later, earlier = self.memoized(4, (0, 3)), DeweyID(4, (0,))
        assert sorted([later, memo, earlier]) == \
            sorted([DeweyID(4, (0, 3)), fresh, earlier])
        assert earlier < memo < later and not memo < fresh

    @pytest.mark.parametrize("warm", [False, True])
    def test_pickle_round_trip(self, warm):
        dewey = self.memoized(12, (3, 0, 7)) if warm \
            else DeweyID(12, (3, 0, 7))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(dewey, protocol))
            assert restored == dewey
            assert hash(restored) == hash(dewey)
            assert restored.encode() == dewey.encode() == "12.3.0.7"

    def test_no_instance_dict(self):
        dewey = self.memoized(0, (1,))
        assert not hasattr(dewey, "__dict__")
        with pytest.raises(AttributeError):
            dewey.extra = 1


class TestAssignment:
    def build_document(self):
        root = XMLNode("a")
        b = root.add("b")
        b.add("d")
        b.add("e")
        root.add("c")
        return XMLDocument(doc_id=9, root=root)

    def test_assign_matches_structure(self):
        document = self.build_document()
        ids = assign_dewey_ids(document)
        by_tag = {node.tag: dewey.encode() for node, dewey in ids.items()}
        assert by_tag == {"a": "9", "b": "9.0", "d": "9.0.0",
                          "e": "9.0.1", "c": "9.1"}

    def test_node_at_inverts_assignment(self):
        document = self.build_document()
        for node, dewey in assign_dewey_ids(document).items():
            assert node_at(document, dewey) is node

    def test_node_at_checks_document(self):
        document = self.build_document()
        with pytest.raises(ValueError):
            node_at(document, DeweyID(1))

    def test_node_at_missing_path(self):
        document = self.build_document()
        with pytest.raises(LookupError):
            node_at(document, DeweyID(9, (5,)))
