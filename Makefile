.PHONY: test bench reliability observability recovery parallel streams fleet overload shard e2e-smoke examples artifacts all

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

reliability:
	PYTHONPATH=src python -m pytest benchmarks/bench_reliability.py benchmarks/bench_chaos.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_resilience.py tests/properties/test_chaos_properties.py -q

observability:
	PYTHONPATH=src python -m pytest benchmarks/bench_tracing.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_observability.py tests/properties/test_chaos_properties.py -q

recovery:
	PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_recovery.py tests/properties/test_recovery_properties.py tests/properties/test_persistence_properties.py -q

parallel:
	PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_scheduler.py tests/llm/test_cache.py tests/properties/test_parallel_properties.py -q

streams:
	PYTHONPATH=src python -m pytest benchmarks/bench_streams.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/streams tests/core/test_agent.py tests/properties/test_hotpath_goldens.py -q

fleet:
	PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_fleet.py tests/llm/test_capacity_singleflight.py tests/properties/test_fleet_properties.py tests/properties/test_llm_ladder_properties.py -q

overload:
	PYTHONPATH=src python -m pytest benchmarks/bench_overload.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/core/test_overload.py tests/properties/test_overload_properties.py -q

shard:
	PYTHONPATH=src python -m pytest benchmarks/bench_shard.py --benchmark-disable
	PYTHONPATH=src python -m pytest tests/storage tests/streams/test_partitioned.py tests/core/test_shard_pruning.py tests/properties/test_shard_properties.py tests/properties/test_sharded_sql_properties.py tests/properties/test_clustered_find_properties.py tests/properties/test_compiled_predicate_properties.py tests/test_one_row_heap.py -q

e2e-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

examples:
	@for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src python $$f > /dev/null && echo OK || exit 1; done

artifacts: bench
	@ls benchmarks/results

all: test bench examples
