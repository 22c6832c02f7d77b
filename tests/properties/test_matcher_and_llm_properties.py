"""Property-based tests: matcher score bounds, LLM degradation contracts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hr.matching import JobMatcher
from repro.hr.taxonomy import SENIORITY_LEVELS, TITLE_FAMILIES, build_title_taxonomy
from repro.llm import ModelCatalog, ModelSpec, SimulatedLLM, prompts
from repro.llm.knowledge import NOISE_CITIES, REGION_CITIES

MATCHER = JobMatcher(build_title_taxonomy())
#: Every title in the taxonomy: each base title, then its seniority variants.
TITLES = [
    name
    for titles in TITLE_FAMILIES.values()
    for title in titles
    for name in (title, *(f"{level} {title}" for level in SENIORITY_LEVELS))
]

PROFILE = st.fixed_dictionaries(
    {
        "title": st.one_of(st.none(), st.sampled_from(TITLES)),
        "city": st.one_of(st.none(), st.sampled_from(["Oakland", "Austin", "SF"])),
        "skills": st.lists(
            st.sampled_from(["python", "sql", "spark", "git", "mlops"]), max_size=4
        ),
    }
)

JOB = st.fixed_dictionaries(
    {
        "id": st.integers(min_value=1, max_value=999),
        "title": st.sampled_from(TITLES),
        "company": st.just("Acme"),
        "city": st.sampled_from(["Oakland", "Austin", "SF"]),
        "remote": st.booleans(),
        "skills": st.sampled_from(
            ["python, sql", "spark", "", "git, mlops, python"]
        ),
        "salary": st.integers(min_value=50_000, max_value=300_000),
    }
)


class TestMatcherProperties:
    @given(PROFILE, JOB)
    @settings(max_examples=80, deadline=None)
    def test_score_bounded(self, profile, job):
        result = MATCHER.score(profile, job)
        assert 0.0 <= result.score <= 1.0
        assert len(result.reasons) == 3

    @given(PROFILE, st.lists(JOB, max_size=10), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_match_sorted_and_capped(self, profile, jobs, k):
        results = MATCHER.match(profile, jobs, top_k=k)
        assert len(results) <= k
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    @given(PROFILE, JOB)
    @settings(max_examples=40, deadline=None)
    def test_remote_never_hurts_location(self, profile, job):
        remote_score = MATCHER.location_score(profile.get("city"), {**job, "remote": True})
        onsite_score = MATCHER.location_score(profile.get("city"), {**job, "remote": False})
        assert remote_score >= onsite_score


def make_model(quality: float) -> SimulatedLLM:
    spec = ModelSpec(
        name=f"prop-{quality:.2f}",
        tier="t",
        quality=quality,
        cost_per_1k_input=0.001,
        cost_per_1k_output=0.002,
        latency_base=0.1,
        latency_per_token=0.001,
    )
    return ModelCatalog(specs=(spec,)).client(spec.name)


class TestDegradationProperties:
    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from(sorted(REGION_CITIES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_within_truth_or_noise(self, quality, region):
        response = make_model(quality).complete(prompts.list_cities(region))
        truth = set(REGION_CITIES[region])
        allowed = truth | set(NOISE_CITIES)
        assert set(response.items()) <= allowed
        assert len(response.items()) >= 1  # never totally silent

    @given(st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_usage_always_positive(self, quality):
        response = make_model(quality).complete(prompts.list_cities("sf bay area"))
        assert response.usage.cost > 0
        assert response.usage.latency > 0
        assert response.usage.input_tokens > 0

    @given(st.floats(min_value=0.05, max_value=1.0), st.text(max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_same_prompt_same_answer(self, quality, suffix):
        prompt = prompts.list_cities("sf bay area") + f"\nNOTE: {suffix}"
        first = make_model(quality).complete(prompt)
        second = make_model(quality).complete(prompt)
        assert first.structured == second.structured

    def test_perfect_quality_is_lossless(self):
        response = make_model(1.0).complete(prompts.list_cities("sf bay area"))
        assert set(response.items()) == set(REGION_CITIES["sf bay area"])
