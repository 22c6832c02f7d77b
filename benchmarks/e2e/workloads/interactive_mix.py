"""interactive_mix: one user talking to the two HR applications.

Closed loop, one client: the next turn is sent when the previous reply
is in.  Each turn goes task planner -> data planner -> executor ->
registries / embedding -> sharded SQL and document stores -> LLM ->
streams with a *few* subscribers, and reads ``StreamStore.trace()``
back for the reply — streams used as a log, not as fan-out.
"""

from __future__ import annotations

import itertools
from time import perf_counter

from repro.hr import build_sharded_enterprise
from repro.hr.apps.agentic_employer import AgenticEmployerApp
from repro.hr.apps.career_assistant import CareerAssistant

from harness import Outcome, Workload
from workloads.plans import TITLES

TURNS = 300
SEEKERS = 5000
SHARDS, REPLICAS = 4, 3
JOBS = 200
#: Mix by exact count; the seed shuffles the order.
MIX = (("career_ask", 0.60), ("employer_say", 0.25), ("employer_click", 0.15))

#: Bay-area cities plus Seattle: every title x city x template below was
#: checked to get a text-determined reply from the cheap intent classifier.
CITIES = ("San Francisco", "Oakland", "San Jose", "Palo Alto", "Berkeley", "Seattle")
SKILLS = (
    "python", "sql", "statistics", "machine learning", "git", "testing",
    "system design", "debugging",
)
#: Employer questions; ~50 distinct texts per template, so planners and
#: SQL see repeats but not one hot key.  Both templates route to intents
#: whose reply depends on the text alone (a question the cheap intent
#: classifier sends to "cluster the applicants" would answer about
#: whichever job was clicked last, and the recurrence check below would
#: be testing the click order, not the program).
QUESTIONS = (
    "how many applicants are {title}s in {city}?",
    "how many applicants in {city} have {skill} skills?",
)


class InteractiveMix(Workload):
    name = "interactive_mix"
    op = "turn"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        started = perf_counter()
        rng = self.rng
        # Exact counts per kind, and texts dealt from shuffled decks of
        # every title x city (x skill) combination rather than drawn with
        # replacement: an employer turn costs 2-3x a career turn and a
        # city's shard holds more or fewer rows, so binomial draws would
        # move ``ops_per_s`` between seeds for reasons that are not the
        # program's.  The seed decides the order, the data and the jobs.
        count = self.sized(TURNS, floor=40)
        order = [kind for kind, share in MIX for _ in range(round(share * count))]
        rng.shuffle(order)
        asks = self._deck(f"I am looking for a {title} position in {city}."
                          for title in TITLES for city in CITIES)
        says = itertools.cycle([  # the two templates take turns
            self._deck(QUESTIONS[0].format(title=title, city=city)
                       for title in TITLES for city in CITIES),
            self._deck(QUESTIONS[1].format(city=city, skill=skill)
                       for city in CITIES for skill in SKILLS),
        ])
        jobs = self._deck(range(1, JOBS + 1))
        self.turns: list[tuple[str, object]] = []
        for kind in order:
            if kind == "career_ask":
                self.turns.append((kind, next(asks)))
            elif kind == "employer_say":
                self.turns.append((kind, next(next(says))))
            else:
                self.turns.append((kind, next(jobs)))
        self.generator_s = perf_counter() - started
        self.seekers = self.sized(SEEKERS, floor=400)
        self.enterprise = None
        self.career = None
        self.employer = None
        self.replies: list[str] = []
        self.walls: list[float] = []

    def _deck(self, items):
        """Deal ``items`` in seeded order, reshuffling when the deck runs out."""
        cards = list(items)
        while True:
            self.rng.shuffle(cards)
            yield from cards

    def _apps(self):
        career = CareerAssistant(self.enterprise)
        employer = AgenticEmployerApp(self.enterprise)
        return career, employer

    def _turn(self, career, employer, kind: str, arg) -> str:
        if kind == "career_ask":
            return career.ask(arg).text
        if kind == "employer_say":
            return employer.say(arg)
        return employer.click_job(arg)

    def setup(self) -> None:
        self.enterprise = build_sharded_enterprise(
            seed=self.seed,
            n_jobs=JOBS,
            n_seekers=self.seekers,
            n_shards=SHARDS,
            n_replicas=REPLICAS,
        )
        # Warm-up on throwaway apps over the same data: one turn of each
        # kind pays first-call parser / regex / embedding caches.
        career, employer = self._apps()
        for kind in ("career_ask", "employer_say", "employer_click"):
            arg = next(a for k, a in self.turns if k == kind)
            self._turn(career, employer, kind, arg)
        self.career, self.employer = self._apps()
        self.blueprints = [self.career.blueprint, self.employer.blueprint]
        self.clusters = [
            self.enterprise.database.cluster,
            self.enterprise.documents.cluster,
            self.enterprise.scratch.cluster,
        ]

    def run(self, recorder=None) -> None:
        career, employer, turn = self.career, self.employer, self._turn
        replies: list[str] = []
        walls: list[float] = []
        for index, (kind, arg) in enumerate(self.turns):
            if recorder is not None:
                recorder.request = index
            started = perf_counter()
            reply = turn(career, employer, kind, arg)
            walls.append(perf_counter() - started)
            replies.append(reply)
        self.replies, self.walls = replies, walls

    def outcome(self) -> Outcome:
        problems = []
        first_reply: dict[tuple[str, object], str] = {}
        empty = 0
        by_kind: dict[str, list[float]] = {kind: [] for kind, _ in MIX}
        for (kind, arg), reply, wall in zip(self.turns, self.replies, self.walls):
            by_kind[kind].append(wall)
            if not reply or not reply.strip() or reply == "(no response)":
                empty += 1
                continue
            seen = first_reply.setdefault((kind, arg), reply)
            if seen != reply and len(problems) < 3:
                problems.append(f"{kind} {arg!r}: reply changed between recurrences")
        if empty:
            problems.append(f"{empty} turns got no reply")
        if len(self.replies) != len(self.turns):
            problems.append(f"{len(self.turns)} turns sent, {len(self.replies)} replies")
        cost = sum(bp.tracker.cost for bp in self.blueprints)
        return Outcome(
            attempted=len(self.turns),
            completed=len(self.replies) - empty,
            errored=empty,
            refused=0,
            latencies=by_kind,
            timeline=list(self.walls),
            digest_rows=[
                (index, kind, reply)
                for index, ((kind, _), reply) in enumerate(zip(self.turns, self.replies))
            ],
            sim={"sim_cost_per_op_usd": cost / len(self.turns)},
            problems=problems,
        )

    def teardown(self) -> None:
        super().teardown()
        self.enterprise = self.career = self.employer = None
