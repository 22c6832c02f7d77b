"""Tests covering every data-plan operator handler."""

import pytest

from repro.core.budget import Budget
from repro.core.plan import DataOperator, DataPlan, Op, OperatorChoice
from repro.core.planners.data_executor import DataPlanExecutor
from repro.errors import PlanError, QueryError
from repro.llm import ModelCatalog


@pytest.fixture
def executor(enterprise, clock):
    return DataPlanExecutor(enterprise.registry, ModelCatalog(clock=clock))


def single_op_plan(op, params=None, choices=(), inputs_value=None):
    """A plan that feeds a constant row set into one operator under test."""
    plan = DataPlan("t")
    input_ids = ()
    if inputs_value is not None:
        plan.add_op(
            "src", Op.SQL,
            params={"sql": inputs_value, "parameters": {}},
            choices=(OperatorChoice(source="JOBS"),),
        )
        input_ids = ("src",)
    plan.add_op("op", op, params=dict(params or {}), inputs=input_ids, choices=choices)
    return plan


ROWS_SQL = "SELECT id, title, city, salary FROM jobs ORDER BY id LIMIT 10"


class TestRowOperators:
    def test_select_eq(self, executor, enterprise):
        plan = single_op_plan(
            Op.SELECT, {"column": "city", "op": "eq", "value": "Oakland"},
            inputs_value=ROWS_SQL,
        )
        result = executor.execute(plan)
        assert all(row["city"] == "Oakland" for row in result.final())

    @pytest.mark.parametrize("op,value,check", [
        ("gt", 150000, lambda v: v > 150000),
        ("gte", 150000, lambda v: v >= 150000),
        ("lt", 150000, lambda v: v < 150000),
        ("lte", 150000, lambda v: v <= 150000),
        ("ne", 150000, lambda v: v != 150000),
    ])
    def test_select_comparators(self, executor, op, value, check):
        plan = single_op_plan(
            Op.SELECT, {"column": "salary", "op": op, "value": value},
            inputs_value=ROWS_SQL,
        )
        for row in executor.execute(plan).final():
            assert check(row["salary"])

    def test_select_in_and_contains(self, executor):
        plan = single_op_plan(
            Op.SELECT, {"column": "city", "op": "in", "value": ["Oakland", "Berkeley"]},
            inputs_value=ROWS_SQL,
        )
        for row in executor.execute(plan).final():
            assert row["city"] in {"Oakland", "Berkeley"}
        plan = single_op_plan(
            Op.SELECT, {"column": "title", "op": "contains", "value": "engineer"},
            inputs_value=ROWS_SQL,
        )
        for row in executor.execute(plan).final():
            assert "engineer" in row["title"].lower()

    def test_select_unknown_op(self, executor):
        plan = single_op_plan(
            Op.SELECT, {"column": "city", "op": "sounds_like", "value": "x"},
            inputs_value=ROWS_SQL,
        )
        with pytest.raises(QueryError):
            executor.execute(plan)

    def test_project(self, executor):
        plan = single_op_plan(Op.PROJECT, {"columns": ["id", "city"]}, inputs_value=ROWS_SQL)
        rows = executor.execute(plan).final()
        assert all(set(row) == {"id", "city"} for row in rows)

    def test_rank_and_limit(self, executor):
        plan = DataPlan("rl")
        plan.add_op("src", Op.SQL, params={"sql": ROWS_SQL}, choices=(OperatorChoice(source="JOBS"),))
        plan.add_op("rank", Op.RANK, params={"by": "salary"}, inputs=("src",))
        plan.add_op("top", Op.LIMIT, params={"n": 3}, inputs=("rank",))
        rows = executor.execute(plan).final()
        assert len(rows) == 3
        salaries = [row["salary"] for row in rows]
        assert salaries == sorted(salaries, reverse=True)

    def test_rank_ascending(self, executor):
        plan = single_op_plan(Op.RANK, {"by": "salary", "descending": False}, inputs_value=ROWS_SQL)
        salaries = [row["salary"] for row in executor.execute(plan).final()]
        assert salaries == sorted(salaries)

    def test_rank_puts_rows_without_a_score_last(self, executor):
        """Ranked by ``sort_key``, as ``ORDER BY`` and ``find(sort=)`` are: a
        row with no score (NULL or no such field) used to rank *first* in the
        default descending order — ``None, missing, 300, 100``."""
        rows = [{"id": 1, "salary": 100}, {"id": 2, "salary": None},
                {"id": 3, "salary": 300}, {"id": 4}]
        ranked, *_ = executor._run(DataOperator("r", Op.RANK, {"by": "salary"}), [rows])
        assert [row["id"] for row in ranked] == [3, 1, 2, 4]
        # ascending, NULL comes first as in SQL (it came last: [1, 3, 2, 4])
        ascending = DataOperator("r", Op.RANK, {"by": "salary", "descending": False})
        assert [row["id"] for row in executor._run(ascending, [rows])[0]] == [2, 4, 1, 3]

    def test_select_matches_as_find_does(self, executor):
        """``select`` is ``compile_filter({column: {"$" + op: value}})``: a
        range across types is no match (it raised ``TypeError``), and a
        missing field matches no ``eq`` / ``ne``."""
        rows = [{"v": 1}, {"v": "a"}, {"v": None}, {}]

        def select(op, value):
            operator = DataOperator("s", Op.SELECT, {"column": "v", "op": op, "value": value})
            return executor._run(operator, [rows])[0]

        assert select("gt", 0) == [{"v": 1}]
        assert select("eq", None) == [{"v": None}]
        assert select("ne", 1) == [{"v": "a"}, {"v": None}]
        assert select("in", [1, "a"]) == [{"v": 1}, {"v": "a"}]

    def test_join(self, executor):
        plan = DataPlan("j")
        plan.add_op("jobs", Op.SQL, params={"sql": "SELECT id, title, company FROM jobs LIMIT 20"},
                    choices=(OperatorChoice(source="JOBS"),))
        plan.add_op("apps", Op.SQL, params={"sql": "SELECT job_id, status FROM applications LIMIT 50"},
                    choices=(OperatorChoice(source="APPLICATIONS"),))
        plan.add_op("joined", Op.JOIN, params={"left_on": "id", "right_on": "job_id"},
                    inputs=("jobs", "apps"))
        rows = executor.execute(plan).final()
        for row in rows:
            assert row["id"] == row["job_id"]
            assert "status" in row and "title" in row

    def test_join_requires_two_inputs(self, executor):
        plan = single_op_plan(Op.JOIN, {"left_on": "id", "right_on": "id"}, inputs_value=ROWS_SQL)
        with pytest.raises(PlanError, match="two inputs"):
            executor.execute(plan)

    def test_union(self, executor):
        plan = DataPlan("u")
        plan.add_op("a", Op.SQL, params={"sql": "SELECT id FROM jobs LIMIT 2"},
                    choices=(OperatorChoice(source="JOBS"),))
        plan.add_op("b", Op.SQL, params={"sql": "SELECT id FROM jobs LIMIT 3"},
                    choices=(OperatorChoice(source="JOBS"),))
        plan.add_op("all", Op.UNION, inputs=("a", "b"))
        assert len(executor.execute(plan).final()) == 5

    def test_rows_input_required(self, executor):
        plan = DataPlan("bad")
        plan.add_op("lonely", Op.PROJECT, params={"columns": ["a"]})
        with pytest.raises(PlanError, match="row-set input"):
            executor.execute(plan)


class TestSourceOperators:
    def test_doc_find(self, executor):
        plan = DataPlan("d")
        plan.add_op(
            "find", Op.DOC_FIND,
            params={"filter": {"title": {"$contains": "Data"}}, "limit": 5},
            choices=(OperatorChoice(source="PROFILES"),),
        )
        documents = executor.execute(plan).final()
        assert documents
        assert all("Data" in doc["title"] for doc in documents)

    def test_doc_find_with_sort_and_fields(self, executor):
        plan = DataPlan("d2")
        plan.add_op(
            "find", Op.DOC_FIND,
            params={"filter": {}, "sort": "years_experience", "descending": True,
                    "fields": ["name", "years_experience"], "limit": 3},
            choices=(OperatorChoice(source="PROFILES"),),
        )
        documents = executor.execute(plan).final()
        years = [d["years_experience"] for d in documents]
        assert years == sorted(years, reverse=True)
        assert all(set(d) == {"name", "years_experience"} for d in documents)

    def test_graph_query(self, executor):
        from repro.hr.taxonomy import node_id_for

        plan = DataPlan("g")
        plan.add_op(
            "related", Op.GRAPH_QUERY,
            params={"start": node_id_for("Data Scientist"), "edge_label": "related",
                    "direction": "both", "max_depth": 1},
            choices=(OperatorChoice(source="TITLE_TAXONOMY"),),
        )
        nodes = executor.execute(plan).final()
        names = {node["name"] for node in nodes}
        assert "Machine Learning Engineer" in names

    def test_kv_get(self, executor, enterprise):
        enterprise.scratch.put("prefs", "theme", "dark")
        plan = DataPlan("k")
        plan.add_op(
            "get", Op.KV_GET, params={"namespace": "prefs", "key": "theme"},
            choices=(OperatorChoice(source="SCRATCH"),),
        )
        assert executor.execute(plan).final() == "dark"

    def test_discover(self, executor):
        plan = DataPlan("disc")
        plan.add_op("d", Op.DISCOVER, params={"concept": "job postings", "k": 2})
        names = executor.execute(plan).final()
        assert "JOBS" in names

    def test_wrong_handle_type_rejected(self, executor):
        plan = DataPlan("w")
        plan.add_op(
            "find", Op.DOC_FIND, params={"filter": {}},
            choices=(OperatorChoice(source="JOBS"),),  # a Database, not a Collection
        )
        with pytest.raises(PlanError, match="expected a Collection"):
            executor.execute(plan)


class TestLLMOperators:
    def test_summarize_rows(self, executor):
        plan = DataPlan("s")
        plan.add_op("src", Op.SQL, params={"sql": "SELECT title, city FROM jobs LIMIT 3"},
                    choices=(OperatorChoice(source="JOBS"),))
        plan.add_op("sum", Op.SUMMARIZE, inputs=("src",),
                    choices=(OperatorChoice(model="mega-m"),))
        summary = executor.execute(plan).final()
        assert isinstance(summary, str) and summary

    def test_summarize_text(self, executor):
        plan = DataPlan("s2")
        plan.add_op("sum", Op.SUMMARIZE, params={"text": "a " * 200},
                    choices=(OperatorChoice(model="mega-m"),))
        assert executor.execute(plan).final()

    def test_llm_op_without_model_rejected(self, executor):
        plan = DataPlan("bad")
        plan.add_op("sum", Op.SUMMARIZE, params={"text": "x"})
        with pytest.raises(PlanError, match="model choice"):
            executor.execute(plan)

    def test_budget_charged_per_operator(self, executor, clock):
        budget = Budget(clock=clock)
        plan = single_op_plan(Op.PROJECT, {"columns": ["id"]}, inputs_value=ROWS_SQL)
        executor.execute(plan, budget=budget)
        assert len(budget.charges()) == 2  # SQL + PROJECT
