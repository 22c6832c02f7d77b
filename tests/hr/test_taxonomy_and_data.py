"""Tests for the title taxonomy and synthetic enterprise data."""

import numpy as np
import pytest

from repro.hr.data import (
    build_enterprise,
    generate_applications,
    generate_jobs,
    generate_seekers,
)
from repro.hr.taxonomy import all_titles, base_titles, build_title_taxonomy, node_id_for


class TestTaxonomy:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_title_taxonomy()

    def test_all_base_titles_present(self, graph):
        for title in base_titles():
            assert graph.has_node(node_id_for(title))

    def test_seniority_specializations(self, graph):
        senior = graph.node(node_id_for("Senior Data Scientist"))
        assert senior.get("seniority") == "senior"
        targets = [e.target for e in graph.out_edges(senior.node_id, "specializes")]
        assert targets == [node_id_for("Data Scientist")]

    def test_family_anchors_relate_members(self, graph):
        anchor = node_id_for("Data Scientist")
        related = {n.get("name") for n in graph.neighbors(anchor, "related")}
        assert "Machine Learning Engineer" in related
        assert "Data Analyst" in related

    def test_families_are_disconnected(self, graph):
        ds = node_id_for("Data Scientist")
        pm = node_id_for("Product Manager")
        assert pm not in {node.node_id for node in graph.traverse(ds)}

    def test_all_titles_count(self):
        # every base title plus two seniority variants each
        assert len(all_titles()) == len(base_titles()) * 3

    def test_node_id_normalization(self):
        assert node_id_for("Data Scientist") == "title:data_scientist"


class TestGenerators:
    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(3)

    def test_jobs_shape(self, rng):
        jobs = generate_jobs(50, rng)
        assert len(jobs) == 50
        assert all(j["salary"] > 50_000 for j in jobs)
        assert all(j["skills"] for j in jobs)
        assert len({j["id"] for j in jobs}) == 50

    def test_jobs_deterministic_under_seed(self):
        a = generate_jobs(20, np.random.default_rng(5))
        b = generate_jobs(20, np.random.default_rng(5))
        assert a == b

    def test_bay_area_bias(self):
        jobs = generate_jobs(300, np.random.default_rng(1))
        bay = {"San Francisco", "Oakland", "San Jose", "Berkeley", "Palo Alto",
               "Mountain View", "Sunnyvale", "Santa Clara", "Fremont", "Redwood City"}
        in_bay = sum(1 for j in jobs if j["city"] in bay)
        assert in_bay > len(jobs) * 0.5

    def test_seekers_shape(self, rng):
        seekers = generate_seekers(30, rng)
        assert len(seekers) == 30
        assert all(" " in s["name"] for s in seekers)
        assert all(0 <= s["years_experience"] < 20 for s in seekers)

    def test_applications_reference_real_entities(self, rng):
        jobs = generate_jobs(10, rng)
        seekers = generate_seekers(10, rng)
        applications = generate_applications(jobs, seekers, rng, rate=0.5)
        job_ids = {j["id"] for j in jobs}
        seeker_ids = {s["id"] for s in seekers}
        assert applications
        for app in applications:
            assert app["job_id"] in job_ids
            assert app["seeker_id"] in seeker_ids
            assert 0 <= app["match_score"] <= 1


class TestEnterprise:
    def test_tables_populated(self, shared_enterprise):
        db = shared_enterprise.database
        assert db.execute("SELECT COUNT(*) AS n FROM jobs").scalar() == 120
        assert db.execute("SELECT COUNT(*) AS n FROM seekers").scalar() == 80
        assert db.execute("SELECT COUNT(*) AS n FROM applications").scalar() > 0
        assert db.execute("SELECT COUNT(*) AS n FROM companies").scalar() == 15

    def test_documents_mirror_seekers(self, shared_enterprise):
        profiles = shared_enterprise.documents.collection("profiles")
        resumes = shared_enterprise.documents.collection("resumes")
        assert len(profiles) == 80
        assert len(resumes) == 80
        assert profiles.get("profile-1")["seeker_id"] == 1

    def test_registry_covers_all_modalities(self, shared_enterprise):
        registry = shared_enterprise.registry
        assert {e.kind for e in registry.entries()} == {
            "relational_table", "document_collection", "graph", "keyvalue", "llm",
        }

    def test_registry_handles_are_live(self, shared_enterprise):
        registry = shared_enterprise.registry
        db = registry.handle("JOBS")
        assert db.execute("SELECT COUNT(*) AS n FROM jobs").scalar() == 120
        graph = registry.handle("TITLE_TAXONOMY")
        assert graph.node_count() > 0

    def test_jobs_indexed_for_planner(self, shared_enterprise):
        indices = shared_enterprise.database.table("jobs").indexed_columns()
        assert indices["title"] == "hash"
        assert indices["city"] == "hash"
        assert indices["salary"] == "sorted"

    def test_deterministic_build(self):
        a = build_enterprise(seed=3, n_jobs=10, n_seekers=5)
        b = build_enterprise(seed=3, n_jobs=10, n_seekers=5)
        assert a.jobs == b.jobs
