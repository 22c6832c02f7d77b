"""YourJourney's synthetic enterprise data.

Stands in for the proprietary "extensive resume, job posting, and
application data hosted on several databases (document, relational)"
(Section II).  Everything is generated deterministically from a seed:

* relational ``hr`` database — JOBS, COMPANIES, SEEKERS, APPLICATIONS,
* document store — PROFILES (rich seeker documents) and RESUMES,
* graph store — the title taxonomy,
* key-value store — session scratch space.

:func:`build_enterprise` assembles all of it and registers every source in
a :class:`~repro.core.registries.DataRegistry`, which is the "touch point"
the paper's architecture plugs into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registries import DataRegistry
from ..llm.knowledge import REGION_CITIES, TITLE_SKILLS
from ..storage import (
    Collection,
    ColumnType,
    Database,
    DocumentStore,
    GraphStore,
    KeyValueStore,
    quick_table,
)
from ..storage.schema import Column, TableSchema
from .taxonomy import base_titles, build_title_taxonomy

COMPANY_NAMES = (
    "Acme Analytics", "Blue Harbor", "Cloudline", "DataForge", "Everbright",
    "Fathom Labs", "Gridworks", "Helios Systems", "Inkwell", "Juniper Tech",
    "Kestrel AI", "Lumen Works", "Meridian Soft", "Northbeam", "Orchid Cloud",
)

FIRST_NAMES = (
    "Alex", "Bailey", "Casey", "Devon", "Emery", "Finley", "Gray", "Harper",
    "Indra", "Jordan", "Kai", "Logan", "Morgan", "Noor", "Oakley", "Parker",
    "Quinn", "Riley", "Sasha", "Taylor",
)

LAST_NAMES = (
    "Adams", "Brooks", "Chen", "Diaz", "Evans", "Flores", "Garcia", "Hughes",
    "Ito", "Jones", "Kim", "Lopez", "Meyer", "Nguyen", "Okafor", "Patel",
    "Quinn", "Rivera", "Singh", "Tran",
)

OTHER_CITIES = ("New York", "Seattle", "Austin", "Chicago", "Denver")

#: Salary bands (base, spread) per title family anchor.
SALARY_BANDS = {
    "Data Scientist": (150_000, 30_000),
    "Machine Learning Engineer": (165_000, 30_000),
    "Applied Scientist": (170_000, 25_000),
    "Data Analyst": (110_000, 20_000),
    "Research Scientist": (175_000, 30_000),
    "Software Engineer": (155_000, 30_000),
    "Backend Engineer": (150_000, 25_000),
    "Frontend Engineer": (145_000, 25_000),
    "Full Stack Engineer": (150_000, 25_000),
    "Systems Engineer": (160_000, 25_000),
    "Data Engineer": (150_000, 25_000),
    "Analytics Engineer": (140_000, 20_000),
    "ETL Developer": (125_000, 20_000),
    "Product Manager": (160_000, 30_000),
    "Technical Program Manager": (155_000, 25_000),
    "Product Owner": (140_000, 20_000),
}

APPLICATION_STATUSES = ("submitted", "screened", "interviewing", "offer", "rejected")


@dataclass
class Enterprise:
    """All of YourJourney's data substrates plus the registry mapping them."""

    database: Database
    documents: DocumentStore
    taxonomy: GraphStore
    scratch: KeyValueStore
    registry: DataRegistry

    @property
    def jobs(self) -> list[dict]:
        return self.database.table("jobs").rows()

    @property
    def profiles(self) -> Collection:
        return self.documents.collection("profiles")


def _skills_for(title: str, rng: np.random.Generator) -> list[str]:
    pool = list(TITLE_SKILLS.get(title.lower(), TITLE_SKILLS["software engineer"]))
    count = int(rng.integers(3, len(pool) + 1))
    picked = list(rng.choice(pool, size=count, replace=False))
    return sorted(picked)


def generate_jobs(n: int, rng: np.random.Generator) -> list[dict]:
    """Job posting rows for the relational JOBS table."""
    titles = base_titles()
    bay_cities = list(REGION_CITIES["sf bay area"])
    cities = bay_cities + list(OTHER_CITIES)
    # Bias toward bay-area cities (YourJourney's core market).
    weights = np.array([2.0] * len(bay_cities) + [1.0] * len(OTHER_CITIES))
    weights /= weights.sum()
    jobs = []
    for job_id in range(1, n + 1):
        title = titles[int(rng.integers(len(titles)))]
        if rng.random() < 0.25:
            title = f"Senior {title}"
        base_title = title.removeprefix("Senior ").removeprefix("Staff ")
        base, spread = SALARY_BANDS.get(base_title, (130_000, 20_000))
        if title.startswith("Senior"):
            base = int(base * 1.2)
        salary = int(base + rng.normal(0, spread / 3))
        city = str(rng.choice(cities, p=weights))
        company = COMPANY_NAMES[int(rng.integers(len(COMPANY_NAMES)))]
        skills = _skills_for(base_title, rng)
        jobs.append(
            {
                "id": job_id,
                "title": title,
                "company": company,
                "city": city,
                "salary": salary,
                "remote": bool(rng.random() < 0.3),
                "posted_days_ago": int(rng.integers(0, 60)),
                "skills": ", ".join(skills),
                "description": (
                    f"{company} is hiring a {title} in {city}. "
                    f"Key skills: {', '.join(skills)}."
                ),
            }
        )
    return jobs


def generate_seekers(n: int, rng: np.random.Generator) -> list[dict]:
    """Job seeker rows (relational SEEKERS) and documents share this shape."""
    titles = base_titles()
    bay_cities = list(REGION_CITIES["sf bay area"])
    cities = bay_cities + list(OTHER_CITIES)
    seekers = []
    for seeker_id in range(1, n + 1):
        first = FIRST_NAMES[int(rng.integers(len(FIRST_NAMES)))]
        last = LAST_NAMES[int(rng.integers(len(LAST_NAMES)))]
        title = titles[int(rng.integers(len(titles)))]
        base_title = title
        skills = _skills_for(base_title, rng)
        years = int(rng.integers(0, 20))
        seekers.append(
            {
                "id": seeker_id,
                "name": f"{first} {last}",
                "title": title,
                "city": str(rng.choice(cities)),
                "years_experience": years,
                "skills": ", ".join(skills),
                "desired_salary": int(100_000 + years * 6_000 + rng.integers(0, 20_000)),
            }
        )
    return seekers


def generate_applications(
    jobs: list[dict], seekers: list[dict], rng: np.random.Generator, rate: float = 0.08
) -> list[dict]:
    """Application rows linking seekers to jobs."""
    applications = []
    app_id = 0
    for job in jobs:
        for seeker in seekers:
            if rng.random() >= rate:
                continue
            app_id += 1
            applications.append(
                {
                    "id": app_id,
                    "job_id": job["id"],
                    "seeker_id": seeker["id"],
                    "status": str(rng.choice(APPLICATION_STATUSES)),
                    "match_score": float(np.round(rng.uniform(0.2, 0.99), 3)),
                    "days_ago": int(rng.integers(0, 30)),
                }
            )
    return applications


def generate_seekers_fast(n: int, rng: np.random.Generator) -> list[dict]:
    """Vectorized seeker generation for cluster-scale populations.

    ``generate_seekers`` draws one ``rng.choice`` permutation per row for
    skills, which dominates runtime past ~10k rows.  This variant draws
    every column as one numpy array and picks skills as a rotated window
    of the title's pool — a different (but equally deterministic)
    distribution, so it is a separate generator rather than a silent
    change to the small-scale data the planner tests snapshot against.
    """
    titles = base_titles()
    bay_cities = list(REGION_CITIES["sf bay area"])
    cities = bay_cities + list(OTHER_CITIES)
    pools = [
        list(TITLE_SKILLS.get(t.lower(), TITLE_SKILLS["software engineer"]))
        for t in titles
    ]
    first_idx = rng.integers(0, len(FIRST_NAMES), size=n)
    last_idx = rng.integers(0, len(LAST_NAMES), size=n)
    title_idx = rng.integers(0, len(titles), size=n)
    city_idx = rng.integers(0, len(cities), size=n)
    years = rng.integers(0, 20, size=n)
    salary_extra = rng.integers(0, 20_000, size=n)
    skill_start = rng.integers(0, 64, size=n)
    skill_extra = rng.integers(0, 8, size=n)
    seekers = []
    for i in range(n):
        pool = pools[title_idx[i]]
        count = 3 + int(skill_extra[i]) % max(1, len(pool) - 2)
        start = int(skill_start[i]) % len(pool)
        window = [pool[(start + j) % len(pool)] for j in range(count)]
        y = int(years[i])
        seekers.append(
            {
                "id": i + 1,
                "name": f"{FIRST_NAMES[first_idx[i]]} {LAST_NAMES[last_idx[i]]}",
                "title": titles[title_idx[i]],
                "city": cities[city_idx[i]],
                "years_experience": y,
                "skills": ", ".join(sorted(set(window))),
                "desired_salary": int(100_000 + y * 6_000 + salary_extra[i]),
            }
        )
    return seekers


def generate_applications_fast(
    n_jobs: int, n_seekers: int, rng: np.random.Generator, per_seeker: float = 2.0
) -> list[dict]:
    """Vectorized applications: ``per_seeker`` random applications each.

    ``generate_applications`` rolls jobs x seekers coin flips — 20M rolls
    at 200 jobs x 100k seekers.  Here the application count is fixed up
    front and every column is one array draw.
    """
    n_apps = int(n_seekers * per_seeker)
    job_ids = rng.integers(1, n_jobs + 1, size=n_apps)
    seeker_ids = rng.integers(1, n_seekers + 1, size=n_apps)
    status_idx = rng.integers(0, len(APPLICATION_STATUSES), size=n_apps)
    scores = np.round(rng.uniform(0.2, 0.99, size=n_apps), 3)
    days = rng.integers(0, 30, size=n_apps)
    return [
        {
            "id": i + 1,
            "job_id": int(job_ids[i]),
            "seeker_id": int(seeker_ids[i]),
            "status": APPLICATION_STATUSES[status_idx[i]],
            "match_score": float(scores[i]),
            "days_ago": int(days[i]),
        }
        for i in range(n_apps)
    ]


def _resume_text(seeker: dict) -> str:
    return (
        f"{seeker['name']} — {seeker['title']} based in {seeker['city']} with "
        f"{seeker['years_experience']} years of experience. "
        f"Skills: {seeker['skills']}. Seeking roles around "
        f"${seeker['desired_salary']:,}."
    )


def _jobs_schema() -> TableSchema:
    return TableSchema(
        "jobs",
        (
            Column("id", ColumnType.INT, primary_key=True),
            Column("title", ColumnType.TEXT, description="job title"),
            Column("company", ColumnType.TEXT),
            Column("city", ColumnType.TEXT, description="job location city"),
            Column("salary", ColumnType.INT, description="annual salary in USD"),
            Column("remote", ColumnType.BOOL),
            Column("posted_days_ago", ColumnType.INT),
            Column("skills", ColumnType.TEXT, description="comma-separated required skills"),
            Column("description", ColumnType.TEXT),
        ),
        description="Open job postings",
    )


def _seekers_schema() -> TableSchema:
    return TableSchema(
        "seekers",
        (
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT),
            Column("title", ColumnType.TEXT, description="current job title"),
            Column("city", ColumnType.TEXT),
            Column("years_experience", ColumnType.INT),
            Column("skills", ColumnType.TEXT, description="comma-separated skills"),
            Column("desired_salary", ColumnType.INT),
        ),
        description="Registered job seekers",
    )


def _applications_schema() -> TableSchema:
    return TableSchema(
        "applications",
        (
            Column("id", ColumnType.INT, primary_key=True),
            Column("job_id", ColumnType.INT),
            Column("seeker_id", ColumnType.INT),
            Column("status", ColumnType.TEXT),
            Column("match_score", ColumnType.FLOAT),
            Column("days_ago", ColumnType.INT),
        ),
        description="Applications of seekers to jobs",
    )


def _register_sources(
    registry: DataRegistry,
    database,
    profiles,
    resumes,
    taxonomy,
    scratch,
    embed_resumes: bool,
) -> None:
    registry.register_table(
        database, "jobs", name="JOBS",
        description="Open job postings with title, company, city, salary, and required skills",
        keywords=("jobs", "positions", "openings", "postings"),
    )
    registry.register_table(
        database, "companies", name="COMPANIES",
        description="Employer companies and their headcounts",
        keywords=("companies", "employers"),
    )
    registry.register_table(
        database, "seekers", name="SEEKERS",
        description="Registered job seekers with titles, skills, and experience",
        keywords=("seekers", "candidates", "applicants", "people"),
    )
    registry.register_table(
        database, "applications", name="APPLICATIONS",
        description="Applications linking seekers to job postings with status and match score",
        keywords=("applications", "applicants", "pipeline"),
    )
    registry.register_collection(
        profiles, name="PROFILES",
        description="Job seeker profile documents with skills and preferences",
        fields=("name", "title", "city", "skills", "years_experience"),
        keywords=("profiles", "seekers"),
    )
    registry.register_collection(
        resumes, name="RESUMES",
        description="Raw resume texts of job seekers",
        fields=("seeker_id", "text"),
        keywords=("resumes", "cv"),
        # Retrieval backbone for RAG plans; embedding every resume is
        # O(corpus), so cluster-scale builds skip it.
        embed_field="text" if embed_resumes else None,
    )
    registry.register_graph(
        taxonomy, name="TITLE_TAXONOMY",
        description="Job title taxonomy graph with related titles and seniority hierarchy",
        keywords=("titles", "taxonomy", "hierarchy", "roles"),
    )
    registry.register_keyvalue(
        scratch, name="SCRATCH", description="Session scratch key-value store"
    )
    registry.register_llm(
        "mega-xl",
        name="LLM:WORLD",
        description="General world knowledge (regions, cities, common sense) served by an LLM",
        knowledge_domains=("world knowledge", "geography", "general"),
    )


def build_enterprise(
    seed: int = 7,
    n_jobs: int = 200,
    n_seekers: int = 150,
    application_rate: float = 0.05,
) -> Enterprise:
    """Generate the full enterprise and register every source."""
    rng = np.random.default_rng(seed)
    jobs = generate_jobs(n_jobs, rng)
    seekers = generate_seekers(n_seekers, rng)
    applications = generate_applications(jobs, seekers, rng, application_rate)

    database = Database("hr", description="YourJourney HR relational database")
    jobs_table = database.create_table(_jobs_schema())
    jobs_table.insert_many(jobs)
    jobs_table.create_index("title", kind="hash")
    jobs_table.create_index("city", kind="hash")
    jobs_table.create_index("salary", kind="sorted")

    quick_table(
        database,
        "companies",
        [
            Column("name", ColumnType.TEXT, primary_key=True),
            Column("headcount", ColumnType.INT),
        ],
        [
            {"name": name, "headcount": int(rng.integers(50, 5000))}
            for name in COMPANY_NAMES
        ],
        description="Employer companies",
    )

    seekers_table = database.create_table(_seekers_schema())
    seekers_table.insert_many(seekers)
    seekers_table.create_index("title", kind="hash")
    seekers_table.create_index("city", kind="hash")
    seekers_table.create_index("years_experience", kind="sorted")

    applications_table = database.create_table(_applications_schema())
    applications_table.insert_many(applications)
    applications_table.create_index("job_id", kind="hash")
    applications_table.create_index("seeker_id", kind="hash")

    documents = DocumentStore("hr-docs", description="YourJourney document databases")
    profiles = documents.create_collection("profiles", "Job seeker profile documents")
    for seeker in seekers:
        profiles.insert({**seeker, "seeker_id": seeker["id"]}, doc_id=f"profile-{seeker['id']}")
    profiles.create_index("title")
    profiles.create_index("city")
    profiles.create_index("years_experience", kind="sorted")
    resumes = documents.create_collection("resumes", "Raw resume texts")
    for seeker in seekers:
        resumes.insert(
            {"seeker_id": seeker["id"], "text": _resume_text(seeker)},
            doc_id=f"resume-{seeker['id']}",
        )

    taxonomy = build_title_taxonomy()
    scratch = KeyValueStore("scratch", description="Session scratch space")

    registry = DataRegistry()
    _register_sources(
        registry, database, profiles, resumes, taxonomy, scratch, embed_resumes=True
    )
    return Enterprise(
        database=database,
        documents=documents,
        taxonomy=taxonomy,
        scratch=scratch,
        registry=registry,
    )


def build_sharded_enterprise(
    seed: int = 7,
    n_jobs: int = 200,
    n_seekers: int = 100_000,
    applications_per_seeker: float = 2.0,
    n_shards: int = 8,
    n_replicas: int = 3,
    clock=None,
    **cluster_options,
) -> Enterprise:
    """The enterprise on the sharded substrate, at cluster scale.

    Same shape as :func:`build_enterprise` but every store is replicated
    and partitioned: the relational database and document store shard by
    ``city`` (the query axis the planner prunes on), resumes and scratch
    shard by key.  Seekers and applications come from the vectorized
    generators, so 100k+ seekers load in seconds.  Resume embeddings are
    skipped past 2 000 seekers (embedding is O(corpus)).
    """
    from ..clock import SimClock
    from ..storage import (
        ClusteredDocumentStore,
        ClusteredKeyValueStore,
        ShardedDatabase,
    )

    rng = np.random.default_rng(seed)
    clock = clock or SimClock()
    jobs = generate_jobs(n_jobs, rng)
    seekers = generate_seekers_fast(n_seekers, rng)
    applications = generate_applications_fast(
        n_jobs, n_seekers, rng, applications_per_seeker
    )

    database = ShardedDatabase(
        "hr",
        n_shards=n_shards,
        n_replicas=n_replicas,
        clock=clock,
        seed=seed,
        description="YourJourney HR relational database (sharded)",
        **cluster_options,
    )
    jobs_table = database.create_table(_jobs_schema(), partition_column="city")
    jobs_table.insert_many(jobs)
    jobs_table.create_index("title", kind="hash")
    jobs_table.create_index("city", kind="hash")
    jobs_table.create_index("salary", kind="sorted")

    companies = database.create_table(
        TableSchema.build(
            "companies",
            [
                Column("name", ColumnType.TEXT, primary_key=True),
                Column("headcount", ColumnType.INT),
            ],
            description="Employer companies",
        )
    )
    companies.insert_many(
        {"name": name, "headcount": int(rng.integers(50, 5000))}
        for name in COMPANY_NAMES
    )

    seekers_table = database.create_table(_seekers_schema(), partition_column="city")
    seekers_table.insert_many(seekers)
    seekers_table.create_index("title", kind="hash")
    seekers_table.create_index("city", kind="hash")
    seekers_table.create_index("years_experience", kind="sorted")

    applications_table = database.create_table(
        _applications_schema(), partition_column="job_id"
    )
    applications_table.insert_many(applications)
    del applications  # the largest generated list: loaded, so not held through the document build
    applications_table.create_index("job_id", kind="hash")
    applications_table.create_index("seeker_id", kind="hash")

    documents = ClusteredDocumentStore(
        "hr-docs",
        n_shards=n_shards,
        n_replicas=n_replicas,
        clock=clock,
        seed=seed,
        description="YourJourney document databases (sharded)",
        **cluster_options,
    )
    profiles = documents.create_collection(
        "profiles", "Job seeker profile documents", partition_field="city"
    )
    profiles.insert_many(
        ({**seeker, "seeker_id": seeker["id"]} for seeker in seekers),
        doc_ids=[f"profile-{seeker['id']}" for seeker in seekers],
    )
    profiles.create_index("title")
    profiles.create_index("city")
    profiles.create_index("years_experience", kind="sorted")
    resumes = documents.create_collection("resumes", "Raw resume texts")
    resumes.insert_many(
        (
            {"seeker_id": seeker["id"], "text": _resume_text(seeker)}
            for seeker in seekers
        ),
        doc_ids=[f"resume-{seeker['id']}" for seeker in seekers],
    )

    taxonomy = build_title_taxonomy()
    scratch = ClusteredKeyValueStore(
        "scratch",
        n_shards=n_shards,
        n_replicas=n_replicas,
        clock=clock,
        seed=seed,
        description="Session scratch space (sharded)",
        **cluster_options,
    )

    registry = DataRegistry()
    _register_sources(
        registry,
        database,
        profiles,
        resumes,
        taxonomy,
        scratch,
        embed_resumes=n_seekers <= 2000,
    )
    return Enterprise(
        database=database,
        documents=documents,
        taxonomy=taxonomy,
        scratch=scratch,
        registry=registry,
    )
