"""Tests for the document store and its filter language."""

import copy
import json
import pickle

import pytest

from repro.errors import QueryError, StorageError
from repro.storage.document import Collection, DocumentStore, matches, project
from repro.storage.document.store import StoredDocument, find_in


@pytest.fixture
def people():
    collection = Collection("people")
    collection.insert_many(
        [
            {"name": "ann", "age": 30, "skills": ["python", "sql"], "address": {"city": "SF"}},
            {"name": "bob", "age": 25, "skills": ["java"], "address": {"city": "NY"}},
            {"name": "cam", "age": 35, "skills": ["python"], "address": {"city": "SF"}},
        ]
    )
    return collection


class TestFilterLanguage:
    def test_equality(self):
        assert matches({"a": 1}, {"a": 1})
        assert not matches({"a": 1}, {"a": 2})

    def test_missing_field_no_match(self):
        assert not matches({"a": 1}, {"b": 1})

    def test_comparisons(self):
        doc = {"n": 5}
        assert matches(doc, {"n": {"$gt": 4}})
        assert matches(doc, {"n": {"$gte": 5}})
        assert matches(doc, {"n": {"$lt": 6}})
        assert matches(doc, {"n": {"$lte": 5}})
        assert matches(doc, {"n": {"$ne": 4}})
        assert not matches(doc, {"n": {"$gt": 5}})

    def test_in_nin(self):
        assert matches({"c": "SF"}, {"c": {"$in": ["SF", "NY"]}})
        assert matches({"c": "LA"}, {"c": {"$nin": ["SF", "NY"]}})

    def test_contains_on_list_and_string(self):
        assert matches({"skills": ["python"]}, {"skills": {"$contains": "python"}})
        assert matches({"bio": "Loves Python dearly"}, {"bio": {"$contains": "python"}})
        assert not matches({"n": 5}, {"n": {"$contains": "x"}})

    def test_regex(self):
        assert matches({"bio": "senior data scientist"}, {"bio": {"$regex": "data.scientist"}})

    def test_exists(self):
        assert matches({"a": 1}, {"a": {"$exists": True}})
        assert matches({}, {"a": {"$exists": False}})

    def test_size(self):
        assert matches({"skills": ["a", "b"]}, {"skills": {"$size": 2}})

    def test_dotted_paths(self):
        assert matches({"address": {"city": "SF"}}, {"address.city": "SF"})

    def test_or_and_not(self):
        doc = {"a": 1, "b": 2}
        assert matches(doc, {"$or": [{"a": 9}, {"b": 2}]})
        assert matches(doc, {"$and": [{"a": 1}, {"b": 2}]})
        assert matches(doc, {"$not": {"a": 9}})
        assert not matches(doc, {"$not": {"a": 1}})

    def test_unknown_operator(self):
        with pytest.raises(QueryError):
            matches({"a": 1}, {"a": {"$bogus": 1}})

    def test_bad_or_clause(self):
        with pytest.raises(QueryError):
            matches({"a": 1}, {"$or": "not-a-list"})

    def test_project(self):
        doc = {"a": 1, "b": 2, "address": {"city": "SF"}}
        assert project(doc, ["a", "address.city"]) == {"a": 1, "address.city": "SF"}
        assert project(doc, None) == doc


class TestCollection:
    def test_insert_assigns_ids(self, people):
        assert len(people) == 3
        assert people.find_one({"name": "ann"})["_id"].startswith("doc-")

    def test_explicit_id_and_duplicates(self):
        collection = Collection("c")
        collection.insert({"x": 1}, doc_id="mine")
        assert collection.get("mine")["x"] == 1
        with pytest.raises(StorageError):
            collection.insert({"x": 2}, doc_id="mine")

    def test_insert_copies_document(self, people):
        original = {"name": "dee"}
        people.insert(original)
        assert "_id" not in original

    def test_find_with_filter(self, people):
        found = people.find({"address.city": "SF"})
        assert sorted(d["name"] for d in found) == ["ann", "cam"]

    def test_find_sort_and_limit(self, people):
        found = people.find(sort="age", descending=True, limit=2)
        assert [d["name"] for d in found] == ["cam", "ann"]

    def test_find_with_projection(self, people):
        found = people.find({"name": "ann"}, fields=["age"])
        assert found == [{"age": 30}]

    def test_find_one_missing(self, people):
        assert people.find_one({"name": "zed"}) is None

    def test_get_missing_raises(self, people):
        with pytest.raises(QueryError):
            people.get("doc-999999")

    def test_count(self, people):
        assert people.count({"age": {"$gte": 30}}) == 2

    def test_distinct(self, people):
        assert sorted(people.distinct("address.city")) == ["NY", "SF"]

    def test_update(self, people):
        assert people.update({"name": "ann"}, {"age": 31}) == 1
        assert people.find_one({"name": "ann"})["age"] == 31

    def test_update_cannot_change_id(self, people):
        with pytest.raises(StorageError):
            people.update({"name": "ann"}, {"_id": "hack"})

    def test_delete(self, people):
        assert people.delete({"address.city": "SF"}) == 2
        assert len(people) == 1

    def test_field_index_used_and_maintained(self, people):
        people.create_index("name")
        assert people.indexed_fields() == ["name"]
        assert people.find({"name": "bob"})[0]["age"] == 25
        people.update({"name": "bob"}, {"name": "robert"})
        assert people.find({"name": "robert"})[0]["age"] == 25
        assert people.find({"name": "bob"}) == []

    def test_index_with_in_filter(self, people):
        people.create_index("name")
        found = people.find({"name": {"$in": ["ann", "cam"]}})
        assert len(found) == 2


class TestAccessPaths:
    """An index selects candidates; it never changes an answer."""

    def test_candidates_come_back_in_insertion_order(self):
        """An index's ids used to be read in ``sorted`` order, so ``limit=1``
        returned a different document once ``create_index`` existed."""
        plain, indexed = Collection("c"), Collection("c")
        indexed.create_index("x")
        indexed.create_index("n", kind="sorted")
        for collection in (plain, indexed):
            for position, doc_id in enumerate(["b", "a", "c10", "c9"]):
                collection.insert({"x": 1, "n": position}, doc_id=doc_id)
            collection.delete({"_id": "a"})
            collection.insert({"x": 1, "n": 9}, doc_id="a")  # re-inserted: now last
        for filter_spec in ({"x": 1}, {"n": {"$gte": 0}}, {"x": 1, "n": {"$lt": 99}}):
            found = [d["_id"] for d in indexed.find(filter_spec)]
            assert found == [d["_id"] for d in plain.find(filter_spec)] == ["b", "c10", "c9", "a"]
            assert indexed.find(filter_spec, limit=1) == plain.find(filter_spec, limit=1)

    def test_unlike_types_are_no_match_not_a_type_error(self, people):
        people.insert({"name": "odd", "age": "seven"})
        people.insert({"name": "none", "age": None})
        people.insert({"name": "list", "age": [40]})
        assert sorted(d["name"] for d in people.find({"age": {"$gte": 30}})) == ["ann", "cam"]
        assert [d["name"] for d in people.find({"age": {"$gt": "a"}})] == ["odd"]
        assert people.find({"age": {"$lt": None}}) == people.find({"age": {"$gte": [1]}}) == []
        assert people.count({"age": {"$lte": True}}) == 0  # bool is a number: 25 > 1
        people.create_index("age", kind="sorted")  # did raise at insert of "seven"
        assert sorted(d["name"] for d in people.find({"age": {"$gte": 30}})) == ["ann", "cam"]
        assert [d["name"] for d in people.find({"age": {"$gt": "a"}})] == ["odd"]
        assert people.update({"age": {"$gt": "a"}}, {"age": 7}) == 1
        assert [d["name"] for d in people.find({"age": {"$lt": 10}})] == ["odd"]

    def test_sorted_index_answers_ranges_and_is_maintained(self, people):
        people.create_index("age", kind="sorted")
        people.create_index("address.city")
        assert people.indexed_fields() == ["address.city", "age"]
        _, examined, used = find_in([people], {"age": {"$gt": 25, "$lte": 35}}, None, None, False, None)
        assert (examined, used) == (2, ["age"])
        found, examined, used = find_in(
            [people], {"address.city": "SF", "age": {"$gte": 31}, "name": {"$ne": "x"}},
            None, None, False, None,
        )
        assert ([d["name"] for d in found], examined, used) == (["cam"], 1, ["address.city", "age"])
        people.update({"name": "bob"}, {"age": 50})
        people.delete({"name": "cam"})
        assert [d["name"] for d in people.find({"age": {"$gte": 31}})] == ["bob"]
        with pytest.raises(StorageError):
            people.create_index("name", kind="btree")

    def test_id_is_the_primary_key(self, people):
        ann = people.find_one({"name": "ann"})["_id"]
        bob = people.find_one({"name": "bob"})["_id"]
        for filter_spec, names, candidates in [
            ({"_id": ann}, ["ann"], 1),
            ({"_id": {"$in": [bob, "nope", ann]}}, ["ann", "bob"], 2),
            ({"_id": ann, "name": "bob"}, [], 1),
            ({"_id": "nope"}, [], 0),
        ]:
            found, examined, used = find_in([people], filter_spec, None, None, False, None)
            assert [d["name"] for d in found] == names
            assert (examined, used) == (candidates, ["_id"])  # never the whole collection
        assert people.delete({"_id": ann}) == 1 and people.count({"_id": ann}) == 0


class TestDocumentStore:
    def test_create_and_get(self):
        store = DocumentStore("docs")
        store.create_collection("a")
        assert store.has_collection("a")
        assert store.collection("a").name == "a"

    def test_duplicate_collection(self):
        store = DocumentStore("docs")
        store.create_collection("a")
        with pytest.raises(StorageError):
            store.create_collection("a")

    def test_unknown_collection(self):
        with pytest.raises(StorageError):
            DocumentStore("docs").collection("nope")

    def test_describe(self):
        store = DocumentStore("docs")
        collection = store.create_collection("a", "things")
        collection.insert({"x": 1})
        described = store.describe()
        assert described["collections"][0]["documents"] == 1


MUTATIONS = [
    lambda d: d.__setitem__("name", "zed"),
    lambda d: d.__delitem__("name"),
    lambda d: d.__ior__({"name": "zed"}),
    lambda d: d.clear(),
    lambda d: d.pop("name"),
    lambda d: d.popitem(),
    lambda d: d.setdefault("extra", 1),
    lambda d: d.update(name="zed"),
]


class TestReadOnlyDocuments:
    """A stored document is read-only, so every read hands out the stored
    object itself; a read used to copy each returned document."""

    def stored(self, collection):
        return [dict(document) for document in collection._heap.select(()).rows]

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_mutating_a_result_raises_and_changes_nothing(self, people, mutate):
        before = self.stored(people)
        ann = people.find_one({"name": "ann"})
        for result in (people.find()[0], ann, people.get(ann["_id"])):
            with pytest.raises(TypeError, match="read-only"):
                mutate(result)
        assert self.stored(people) == before

    def test_reads_hand_out_the_stored_object(self, people):
        doc_id = people.find_one({"name": "bob"})["_id"]
        stored = people._heap.get(doc_id)
        assert people.find({"_id": doc_id})[0] is people.get(doc_id) is stored
        assert isinstance(stored, StoredDocument)
        assert [d for d in people.find() if d["_id"] == doc_id][0] is stored

    def test_update_swaps_in_a_new_read_only_document(self, people):
        old = people.find_one({"name": "ann"})
        assert people.update({"name": "ann"}, {"age": 31}) == 1
        new = people.get(old["_id"])
        assert new is not old and old["age"] == 30
        assert new == {**old, "age": 31} and isinstance(new, StoredDocument)
        with pytest.raises(TypeError):
            new["age"] = 32

    def test_a_projection_and_a_copy_are_plain_dicts(self, people):
        (projected,) = people.find({"name": "ann"}, fields=["age"])
        projected["age"] = 99  # a new dict, not the stored one
        ann = people.find_one({"name": "ann"})
        assert ann["age"] == 30
        for copied in (dict(ann), {**ann}, ann.copy(), ann | {}):
            assert type(copied) is dict and copied == ann
            copied["age"] = 31
        for copied in (copy.copy(ann), copy.deepcopy(ann), pickle.loads(pickle.dumps(ann))):
            assert copied == ann and copied is not ann
        assert copy.deepcopy(ann)["skills"] is not ann["skills"]

    def test_json_repr_and_equality_match_a_plain_dict(self, people):
        for document in people.find():
            plain = dict(document)
            assert json.dumps(document) == json.dumps(plain)
            assert json.dumps(document, sort_keys=True, indent=2) == json.dumps(
                plain, sort_keys=True, indent=2
            )
            assert repr(document) == repr(plain) and str(document) == str(plain)
            assert document == plain and plain == document

    def test_nested_values_are_shared_as_a_copy_shared_them(self, people):
        ann = people.find_one({"name": "ann"})
        assert ann["address"] is people.get(ann["_id"])["address"]
        assert people.find_one({"address.city": "SF"}) is ann  # a dotted path reads it

    def test_count_and_distinct_read_without_find(self, people, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("count and distinct read the selection, not find")

        monkeypatch.setattr(people, "find", refused)
        assert people.count({"address.city": "SF"}) == 2
        assert people.count() == 3
        assert people.distinct("address.city") == ["SF", "NY"]
