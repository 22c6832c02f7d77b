"""Tests for the task planner: templates, classification, wiring, modes."""

import pytest

from repro.core.agent import FunctionAgent
from repro.core.params import Parameter
from repro.core.plan import Binding
from repro.core.planners.task_planner import StepSpec, TaskPlanner, TaskTemplate
from repro.core.registries import AgentRegistry
from repro.errors import PlanningError


def build_registry():
    registry = AgentRegistry()
    registry.register_agent(
        FunctionAgent(
            "PROFILER",
            lambda i: None,
            inputs=(Parameter("CRITERIA", "text"),),
            outputs=(Parameter("PROFILE", "profile"),),
            description="Builds a job seeker profile from search criteria",
        )
    )
    registry.register_agent(
        FunctionAgent(
            "JOB_MATCHER",
            lambda i: None,
            inputs=(
                Parameter("PROFILE", "profile"),
                Parameter("JOBS", "jobs", required=False),
            ),
            outputs=(Parameter("MATCHES", "matches"),),
            description="Matches a job seeker profile with available job listings",
        )
    )
    registry.register_agent(
        FunctionAgent(
            "PRESENTER",
            lambda i: None,
            inputs=(Parameter("MATCHES", "matches"),),
            outputs=(Parameter("PRESENTATION", "text"),),
            description="Presents matched jobs to the end user",
        )
    )
    return registry


JOB_SEARCH = TaskTemplate(
    intent="job_search",
    keywords=("looking for", "position", "job"),
    steps=(
        StepSpec("build a job seeker profile from search criteria"),
        StepSpec("match the profile with available job listings"),
        StepSpec("present matched jobs to the end user"),
    ),
)

GREETING = TaskTemplate(
    intent="greeting",
    keywords=("hello", "hi"),
    steps=(StepSpec("build a job seeker profile from search criteria"),),
)


@pytest.fixture
def planner():
    planner = TaskPlanner(build_registry())  # no catalog: keyword classification
    planner.register_template(JOB_SEARCH)
    planner.register_template(GREETING)
    return planner


class TestTemplates:
    def test_duplicate_template_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.register_template(JOB_SEARCH)

    def test_templates_listed_sorted(self, planner):
        assert [t.intent for t in planner.templates()] == ["greeting", "job_search"]

    def test_keyword_score(self):
        assert JOB_SEARCH.keyword_score("I am looking for a job") == 2


class TestClassification:
    def test_keyword_classification(self, planner):
        assert planner.classify_intent("I am looking for a position") == "job_search"
        assert planner.classify_intent("hello there") == "greeting"

    def test_no_templates(self):
        with pytest.raises(PlanningError):
            TaskPlanner(build_registry()).classify_intent("x")


class TestPlanning:
    def test_figure6_plan_shape(self, planner):
        """The running example yields PROFILER -> JOB_MATCHER -> PRESENTER."""
        plan = planner.plan(
            "I am looking for a data scientist position in SF bay area.", "user"
        )
        assert [n.agent for n in plan.order()] == ["PROFILER", "JOB_MATCHER", "PRESENTER"]

    def test_first_step_binds_user_stream(self, planner):
        plan = planner.plan("I am looking for a position", "sess:user")
        first = plan.order()[0]
        assert first.bindings["CRITERIA"].stream == "sess:user"

    def test_downstream_binds_upstream_by_name(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        matcher = plan.order()[1]
        assert matcher.bindings["PROFILE"].node == "step1"
        presenter = plan.order()[2]
        assert presenter.bindings["MATCHES"].node == "step2"

    def test_optional_unproducible_param_left_unbound(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        matcher = plan.order()[1]
        assert "JOBS" not in matcher.bindings

    def test_explicit_binding_wins(self, planner):
        template = TaskTemplate(
            intent="pinned",
            keywords=("pinned-keyword",),
            steps=(
                StepSpec(
                    "build a job seeker profile",
                    bindings={"CRITERIA": Binding.const("fixed text")},
                ),
            ),
        )
        planner.register_template(template)
        plan = planner.plan("pinned-keyword", "user")
        assert plan.order()[0].bindings["CRITERIA"].value == "fixed text"

    def test_pinned_agent_bypasses_search(self, planner):
        template = TaskTemplate(
            intent="direct",
            keywords=("direct-keyword",),
            steps=(StepSpec("whatever text", agent="PRESENTER"),),
        )
        planner.register_template(template)
        plan = planner.plan("direct-keyword", "user")
        node = plan.order()[0]
        assert node.agent == "PRESENTER"
        # PRESENTER's required MATCHES input has no upstream: extracted from user.
        assert node.bindings["MATCHES"].transform == "extract:matches"

    def test_planning_records_usage(self, planner):
        planner.plan("I am looking for a position", "user")
        assert planner.registry.get("PROFILER").usage_count == 1


class TestModes:
    def test_incremental_iteration(self, planner):
        steps = list(planner.iter_steps("I am looking for a position", "user"))
        assert [s.agent for s in steps] == ["PROFILER", "JOB_MATCHER", "PRESENTER"]

    def test_revise_remove_node(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        revised = planner.revise(plan, remove=("step3",))
        assert [n.agent for n in revised.order()] == ["PROFILER", "JOB_MATCHER"]

    def test_revise_removed_node_rewires_downstream(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        revised = planner.revise(plan, remove=("step2",))
        presenter = revised.order()[-1]
        # PRESENTER's MATCHES falls back to step2's own primary source.
        assert presenter.bindings["MATCHES"].node == "step1"

    def test_revise_replace_agent(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        revised = planner.revise(plan, replace={"step3": "PROFILER"})
        assert revised.order()[2].agent == "PROFILER"

    def test_feedback_adjusts_usage(self, planner):
        plan = planner.plan("I am looking for a position", "user")
        planner.record_feedback(plan, success=False)
        entry = planner.registry.get("PROFILER")
        assert entry.usage_count == 2  # once from planning, once from feedback
        assert entry.usage_successes == 1
