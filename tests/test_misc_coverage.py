"""Coverage for smaller public surfaces not exercised elsewhere."""

import pytest

from repro.storage import ColumnType, Database, quick_table


class TestDatabaseCatalog:
    def test_table_name_case_insensitive(self):
        db = Database("d")
        quick_table(db, "Jobs", [("a", ColumnType.INT)])
        assert db.has_table("JOBS")
        assert db.table("jobs").name == "Jobs"

    def test_describe(self):
        db = Database("d", description="test db")
        quick_table(db, "t", [("a", ColumnType.INT)], description="things")
        described = db.describe()
        assert described["database"] == "d"
        assert described["tables"][0]["table"] == "t"


class TestStreamDescribe:
    def test_eos_describe(self, store):
        store.create_stream("s")
        message = store.close_stream("s", producer="app")
        assert "eos" in message.describe()

    def test_stream_metadata(self, store):
        stream = store.create_stream("s", tags=("A",), creator="me")
        assert stream.creator == "me"
        assert "A" in stream.tags


class TestScopePaths:
    def test_deep_nesting(self):
        from repro.core.session import Scope

        root = Scope("SESSION:1")
        deep = root.child("A").child("B").child("C")
        assert deep.path == "SESSION:1:A:B:C"
        root.set("global", 1)
        assert deep.get("global") == 1


class TestUsageTracker:
    def test_per_model_breakdown(self, catalog):
        catalog.client("mega-s").complete("one")
        catalog.client("mega-m").complete("two")
        catalog.client("mega-s").complete("three")
        tracker = catalog.tracker
        assert tracker.per_model["mega-s"]["calls"] == 2
        assert tracker.per_model["mega-m"]["calls"] == 1
        assert tracker.cost == pytest.approx(
            tracker.per_model["mega-s"]["cost"] + tracker.per_model["mega-m"]["cost"]
        )


class TestMatchExplainTask:
    def test_explanation_grounded(self, catalog):
        from repro.llm import prompts

        response = catalog.client("mega-xl").complete(
            prompts.match_explain(
                "Data Scientist", "Senior Data Scientist", ["python", "sql"],
                "located in Oakland",
            )
        )
        assert "Senior Data Scientist" in response.text
        assert "python" in response.text
        assert "Oakland" in response.text
        assert response.domain == "hr"

    def test_quality_trims_skills(self, catalog):
        from repro.llm import prompts

        prompt = prompts.match_explain(
            "DS", "ML", ["a", "b", "c", "d", "e", "f"], ""
        )
        strong = catalog.client("mega-xl").complete(prompt).text
        weak = catalog.client("mega-nano").complete(prompt).text
        assert strong.count(",") >= weak.count(",")
