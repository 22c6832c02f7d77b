"""store_mix: point reads, writes and scans directly on the clustered stores.

Closed loop, one client.  The same storage layer ``interactive_mix``
reaches through planners is used here *differently*: writes beside
reads, a control-loop tick every ``TICK_EVERY`` ops and one replica kill
part-way, so failure detection, promotion and anti-entropy execute.  An
index or cache that speeds scans but taxes writes moves
``op_wall_p50_ms`` (point reads and writes are 80 % of ops) against
``op_wall_p95_ms`` / ``ops_per_s`` (scans carry the wall time).

The benchmark keeps a shadow of what it wrote: every ``get`` / ``find``
/ SQL count is checked against it, and after ``settle()`` every acked
write must still be readable.
"""

from __future__ import annotations

from time import perf_counter

from repro.clock import SimClock
from repro.errors import ReproError
from repro.hr import build_sharded_enterprise
from repro.hr.data import OTHER_CITIES
from repro.llm.knowledge import REGION_CITIES

from harness import Outcome, Workload

OPS = 3000
SEEKERS = 6000
SHARDS, REPLICAS = 4, 3
TICK_EVERY = 50
KILL_AT = 0.40
KILLED = "s1.r0"  # shard 1's initial primary, on each of the three clusters
TTL = 10.0  # simulated seconds = 10 ticks = 500 ops

#: Mix by exact count (the seed shuffles the order): 60 % point reads,
#: 20 % writes, 20 % scans.  The shares keep both latency percentiles
#: *inside* an op class rather than on the border between two: at 50 %
#: reads the median op is the slowest read or the fastest write
#: depending on the seed; with these scan shares the p95 op (rank 150
#: of 3 000) is a fan-out ``find``, well clear of the ~75 slower ops
#: (fan-out SQL and the ~15 ops that meet a full garbage collection).
MIX = (
    ("kv_get", 0.30), ("doc_get", 0.30),
    ("kv_put", 0.10), ("doc_insert", 0.10),
    ("find_pruned", 0.08), ("find_fanout", 0.06),
    ("sql_pruned", 0.04), ("sql_fanout", 0.02),
)
CITIES = tuple(REGION_CITIES["sf bay area"]) + tuple(OTHER_CITIES)
TITLES = ("Data Scientist", "Data Analyst", "Software Engineer", "Data Engineer")
NAMESPACE = "bench"
YEARS = 20  # years_experience is drawn from range(20)


class StoreMix(Workload):
    name = "store_mix"
    op = "store op"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        started = perf_counter()
        self.seekers = self.sized(SEEKERS, floor=500)
        self.ops = self._generate(self.sized(OPS, floor=100))
        self.generator_s = perf_counter() - started
        self.enterprise = None
        self.clock: SimClock | None = None
        self.expected: list = []
        self.results: list = []
        self.walls: list[float] = []
        self.errors: list[str] = []
        self.scan_stats = {"finds": 0, "docs_scanned": 0, "shards": 0, "shards_total": 0}

    # -- inputs ---------------------------------------------------------
    def _generate(self, count: int) -> list[tuple]:
        """The op list: a pure function of the seed.

        Keys and ids to read are drawn from what earlier ops wrote, so
        the list itself fixes which reads should hit.
        """
        rng = self.rng
        order = [kind for kind, share in MIX for _ in range(round(share * count))]
        rng.shuffle(order)
        keys: list[str] = []
        docs: list[str] = []
        ops: list[tuple] = []
        for index, kind in enumerate(order):
            if kind == "kv_get":
                known = keys and rng.random() < 0.85
                ops.append((kind, rng.choice(keys) if known else f"absent-{index}"))
            elif kind == "kv_put":
                # a third of the puts overwrite, a third carry a TTL
                key = rng.choice(keys) if keys and rng.random() < 0.33 else f"k{index}"
                keys.append(key)
                ttl = TTL if rng.random() < 0.33 else None
                ops.append((kind, key, {"op": index, "blob": "x" * rng.randrange(8, 64)}, ttl))
            elif kind == "doc_get":
                fresh = docs and rng.random() < 0.30
                doc_id = (
                    rng.choice(docs) if fresh
                    else f"profile-{rng.randrange(1, self.seekers + 1)}"
                )
                ops.append((kind, doc_id))
            elif kind == "doc_insert":
                doc_id = f"bench-{index}"
                docs.append(doc_id)
                ops.append((kind, doc_id, {
                    "seeker_id": 10_000_000 + index,
                    "name": f"Bench Seeker {index}",
                    "title": rng.choice(TITLES),
                    "city": rng.choice(CITIES),
                    "years_experience": rng.randrange(YEARS),
                }))
            elif kind in ("find_pruned", "sql_pruned"):
                ops.append((kind, rng.choice(CITIES), rng.randrange(8, 16)))
            else:  # find_fanout, sql_fanout
                ops.append((kind, rng.randrange(12, YEARS)))
        return ops

    def _expectations(self, doc_hist, sql_hist, now: float) -> list:
        """Replay the op list against the shadow: what each op must return."""
        kv: dict[str, tuple[dict, float | None]] = {}
        docs: dict[str, dict] = {}
        expected: list = []
        for index, op in enumerate(self.ops):
            kind = op[0]
            if index and index % TICK_EVERY == 0:
                now += 1.0
            if kind == "kv_get":
                value, expires = kv.get(op[1], (None, None))
                expected.append(value if expires is None or now < expires else None)
            elif kind == "kv_put":
                kv[op[1]] = (op[2], None if op[3] is None else now + op[3])
                expected.append(None)
            elif kind == "doc_get":
                expected.append(docs.get(op[1], op[1]))
            elif kind == "doc_insert":
                docs[op[1]] = op[2]
                doc_hist[op[2]["city"]][op[2]["years_experience"]] += 1
                expected.append(op[1])
            elif kind == "find_pruned":
                expected.append(sum(doc_hist[op[1]][op[2]:]))
            elif kind == "find_fanout":
                expected.append(sum(sum(row[op[1]:]) for row in doc_hist.values()))
            elif kind == "sql_pruned":
                expected.append(sum(sql_hist[op[1]][op[2]:]))
            else:
                expected.append(sum(sum(row[op[1]:]) for row in sql_hist.values()))
        self._kv_shadow, self._doc_shadow = kv, docs
        return expected

    # -- the round ------------------------------------------------------
    def setup(self) -> None:
        self.clock = SimClock()
        ent = self.enterprise = build_sharded_enterprise(
            seed=self.seed,
            n_seekers=self.seekers,
            n_shards=SHARDS,
            n_replicas=REPLICAS,
            clock=self.clock,
        )
        self.clusters = [ent.scratch.cluster, ent.documents.cluster, ent.database.cluster]
        # The shadow's starting point is what the freshly built stores
        # hold; the two scans double as the warm-up of the scan paths.
        doc_hist = {city: [0] * YEARS for city in CITIES}
        for doc in ent.profiles.find(fields=["city", "years_experience"]):
            doc_hist[doc["city"]][doc["years_experience"]] += 1
        sql_hist = {city: [0] * YEARS for city in CITIES}
        for row in ent.database.execute(
            "SELECT city, years_experience, COUNT(*) AS n FROM seekers "
            "GROUP BY city, years_experience"
        ).rows:
            sql_hist[row["city"]][row["years_experience"]] = row["n"]
        ent.database.execute(
            "SELECT COUNT(*) AS n FROM seekers WHERE city = 'Oakland' "
            "AND years_experience >= 19"
        )
        ent.scratch.put("warmup", "k", 1, ttl=TTL)
        ent.scratch.get("warmup", "k")
        ent.profiles.get("profile-1")
        self.expected = self._expectations(doc_hist, sql_hist, self.clock.now())

    def run(self, recorder=None) -> None:
        ent = self.enterprise
        kv, profiles, database = ent.scratch, ent.profiles, ent.database
        results: list = []
        walls: list[float] = []
        errors: list[str] = []
        stats = {"finds": 0, "docs_scanned": 0, "shards": 0, "shards_total": 0}
        kill_at = int(len(self.ops) * KILL_AT)
        for index, op in enumerate(self.ops):
            if index and index % TICK_EVERY == 0:
                kv.tick()  # advances the shared clock one heartbeat
                ent.documents.tick(advance=0.0)
                database.tick(advance=0.0)
            if index == kill_at:
                for cluster in self.clusters:
                    cluster.kill_replica(KILLED)
            if recorder is not None:
                recorder.request = index
            kind = op[0]
            started = perf_counter()
            try:
                if kind == "kv_get":
                    result = kv.get(NAMESPACE, op[1])
                elif kind == "kv_put":
                    result = kv.put(NAMESPACE, op[1], op[2], ttl=op[3])
                elif kind == "doc_get":
                    result = profiles.get(op[1])
                elif kind == "doc_insert":
                    result = profiles.insert(op[2], doc_id=op[1])
                elif kind == "find_pruned":
                    result = len(profiles.find(
                        {"city": op[1], "years_experience": {"$gte": op[2]}}
                    ))
                elif kind == "find_fanout":
                    result = len(profiles.find({"years_experience": {"$gte": op[1]}}))
                elif kind == "sql_pruned":
                    result = database.execute(
                        "SELECT COUNT(*) AS n FROM seekers "
                        "WHERE city = :city AND years_experience >= :years",
                        {"city": op[1], "years": op[2]},
                    ).scalar()
                else:
                    result = database.execute(
                        "SELECT COUNT(*) AS n FROM seekers WHERE years_experience >= :years",
                        {"years": op[1]},
                    ).scalar()
            except ReproError as error:
                result = error
                errors.append(f"op {index} {kind}: {type(error).__name__}: {error}")
            walls.append(perf_counter() - started)
            results.append(result)
            if kind in ("find_pruned", "find_fanout"):
                found = profiles.last_find_stats
                stats["finds"] += 1
                stats["docs_scanned"] += found["docs_scanned"]
                stats["shards"] += found["shards_scanned"]
                stats["shards_total"] += found["shards_total"]
        self.results, self.walls, self.errors, self.scan_stats = results, walls, errors, stats

    def outcome(self) -> Outcome:
        by_kind: dict[str, list[float]] = {kind: [] for kind, _ in MIX}
        wrong = 0
        problems = list(self.errors[:3])
        rows = []
        for index, (op, want, got, wall) in enumerate(
            zip(self.ops, self.expected, self.results, self.walls)
        ):
            kind = op[0]
            by_kind[kind].append(wall)
            if kind == "doc_get" and isinstance(got, dict):
                # base profiles are known by id only; inserted ones in full
                got_cmp = (
                    {k: v for k, v in got.items() if k != "_id"}
                    if isinstance(want, dict) else got.get("_id")
                )
            else:
                got_cmp = got
            if got_cmp != want:
                wrong += 1
                if len(problems) < 3:
                    problems.append(f"op {index} {op[:2]}: got {got_cmp!r}, shadow says {want!r}")
            rows.append((index, kind, repr(got_cmp)))

        # Every acked write must survive the kill once the cluster settled.
        for cluster in self.clusters:
            cluster.settle()
        ent = self.enterprise
        now = self.clock.now()
        lost = 0
        for key, (value, expires) in self._kv_shadow.items():
            if expires is not None and now >= expires:
                continue
            if ent.scratch.get(NAMESPACE, key) != value:
                lost += 1
        for doc_id, doc in self._doc_shadow.items():
            try:
                stored = ent.profiles.get(doc_id)
            except ReproError:
                lost += 1
                continue
            if {k: v for k, v in stored.items() if k != "_id"} != doc:
                lost += 1
        if lost:
            problems.append(f"{lost} acked writes unreadable after settle()")
        if not any(
            event["kind"] == "promotion" for c in self.clusters for event in c.events
        ):
            problems.append("the replica kill caused no promotion")

        return Outcome(
            attempted=len(self.ops),
            completed=len(self.ops) - wrong,  # an op that raised also reads wrong
            errored=wrong,
            refused=0,
            latencies=by_kind,
            timeline=list(self.walls),
            digest_rows=rows,
            problems=problems,
        )

    def teardown(self) -> None:
        super().teardown()
        self.enterprise = None
