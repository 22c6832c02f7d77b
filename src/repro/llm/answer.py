"""What a simulated model says: a pure function of (model, seed, prompt).

Prompts follow a simple *task directive* convention (see
:mod:`repro.llm.prompts`): a ``TASK:`` line selects a capability, further
``KEY: value`` lines parameterize it, and the remainder is free text.  This
mirrors how production systems prompt models into structured behaviors, and
gives the knowledge-backed tasks (list cities, related titles, extraction)
answers that the planners and benchmarks can score.

Model *quality* in [0, 1] controls answer fidelity: list-valued answers keep
each item with probability ``quality`` and may gain a plausible-but-wrong
item (a hallucination) with probability ``1 - quality``.  Degradation is
seeded from (model name, seed, prompt), so a given model answers a given
prompt identically every time.  Nothing here reads a clock, a cache or a
call counter — which is what lets :mod:`repro.llm.model` synthesize the
answer before it decides how the call is paid for, and what makes every
reuse rung answer-preserving by construction.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import LLMError
from . import knowledge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ModelSpec

#: ``(text, structured form, knowledge domain the task drew on)``.
Answer = tuple[str, Any, str]

_DIRECTIVE_RE = re.compile(r"^([A-Z_]+):\s*(.*)$")


def seeded_rng(model: str, seed: int, prompt: str, salt: str) -> np.random.Generator:
    """The one randomness source: answer degradation and the failure roll."""
    digest = hashlib.md5(f"{model}|{seed}|{salt}|{prompt}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def answer(spec: "ModelSpec", seed: int, prompt: str) -> Answer:
    """Route *prompt* to its task; raises :class:`LLMError` if unanswerable."""
    directives, body = _parse_directives(prompt)
    task = directives.get("TASK", "").upper()
    if task in _LIST_TASKS:
        return _list_task(spec, seed, prompt, directives, task)
    if task == "EXTRACT":
        return _extract(spec, seed, prompt, directives, body)
    if task == "SUMMARIZE":
        return _summarize(spec, directives, body)
    if task == "CLASSIFY":
        return _classify(spec, seed, prompt, directives, body)
    if task == "Q2NL":
        text = f"List the {directives.get('FRAGMENT', body).strip()}."
        return text, text, "general"
    if task == "MATCH_EXPLAIN":
        return _match_explain(spec, directives)
    if task == "GENERATE":
        return _generate(spec, body or prompt)
    return _generate(spec, prompt)


# -- knowledge-backed list tasks ---------------------------------------
#: task -> (directive naming the subject, knowledge lookup, noise pool,
#: domain whose quality applies, ``(text, items)`` for an unknown subject —
#: an unknown title's only related title is itself).
_LIST_TASKS = {
    "LIST_CITIES": (
        "REGION", knowledge.lookup_region, knowledge.NOISE_CITIES, "general",
        lambda region: (f"I do not know the cities of {region!r}.", []),
    ),
    "RELATED_TITLES": (
        "TITLE", knowledge.lookup_related_titles, knowledge.NOISE_TITLES, "hr",
        lambda title: (title.title(), [title.title()] if title else []),
    ),
    "LIST_SKILLS": (
        "TITLE", knowledge.lookup_skills, knowledge.NOISE_SKILLS, "hr",
        lambda title: (f"I do not know the core skills for {title!r}.", []),
    ),
}


def _list_task(spec, seed, prompt, directives: dict[str, str], task: str) -> Answer:
    """Look the subject up; drop items with probability 1-quality and
    maybe add one noise item."""
    directive, lookup, noise_pool, domain, unknown = _LIST_TASKS[task]
    subject = directives.get(directive, "")
    truth = lookup(subject)
    if truth is None:
        return (*unknown(subject), domain)
    quality = spec.quality_for(domain)
    rng = seeded_rng(spec.name, seed, prompt, "list")
    kept = [item for item in truth if rng.random() <= quality]
    if not kept and truth:
        kept = [truth[0]]  # even weak models recall the most salient fact
    if noise_pool and rng.random() > quality:
        kept.append(noise_pool[int(rng.integers(len(noise_pool)))])
    return ", ".join(kept), kept, domain


# -- text tasks ---------------------------------------------------------
def _extract(spec, seed, prompt, directives: dict[str, str], body: str) -> Answer:
    fields = [f.strip().lower() for f in directives.get("FIELDS", "").split(",") if f.strip()]
    lowered = directives.get("TEXT", body).lower()
    quality = spec.quality_for("hr")
    extracted: dict[str, Any] = {}
    if "title" in fields or not fields:
        extracted["title"] = _find_title(lowered)
    if "location" in fields or not fields:
        extracted["location"] = _find_location(lowered)
    if "skills" in fields:
        extracted["skills"] = _find_skills(lowered)
    # Low-quality models miss secondary fields deterministically.
    rng = seeded_rng(spec.name, seed, prompt, "extract")
    for key in list(extracted):
        if extracted[key] and rng.random() > quality and key != "title":
            extracted[key] = None
    return json.dumps(extracted), extracted, "hr"


def _summarize(spec, directives: dict[str, str], body: str) -> Answer:
    # Multiline TEXT spans the directive line plus the remaining body.
    text = "\n".join(part for part in (directives.get("TEXT", ""), body) if part)
    quality = spec.quality_for("general")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) > 1:
        # Extractive over items: keep the head of each line so every
        # summarized row/document contributes content.
        per_line = max(4, int(4 + 8 * quality))
        kept_lines = lines[: max(2, int(len(lines) * max(quality, 0.3)))]
        snippets = []
        for line in kept_lines:
            words = line.split()
            snippet = " ".join(words[:per_line])
            if len(words) > per_line:
                snippet += " ..."
            snippets.append(snippet)
        summary = " | ".join(snippets)
    else:
        words = text.split()
        keep = max(5, int(len(words) * min(0.3, 0.1 + 0.2 * quality)))
        summary = " ".join(words[:keep])
        if len(words) > keep:
            summary += " ..."
    return f"Summary: {summary}", summary, "general"


def _classify(spec, seed, prompt, directives: dict[str, str], body: str) -> Answer:
    labels = [l.strip() for l in directives.get("LABELS", "").split(",") if l.strip()]
    if not labels:
        raise LLMError("CLASSIFY task requires a LABELS directive")
    chosen = _heuristic_label(directives.get("TEXT", body).lower(), labels)
    rng = seeded_rng(spec.name, seed, prompt, "classify")
    if rng.random() > spec.quality_for("general") and len(labels) > 1:
        wrong = [label for label in labels if label != chosen]
        chosen = wrong[int(rng.integers(len(wrong)))]
    return chosen, chosen, "general"


def _match_explain(spec, directives: dict[str, str]) -> Answer:
    """Explain why a job matches a seeker (the explanation module)."""
    seeker_title = directives.get("SEEKER_TITLE", "the seeker's background")
    job_title = directives.get("JOB_TITLE", "this role")
    shared = [s.strip() for s in directives.get("SHARED_SKILLS", "").split(",") if s.strip()]
    location = directives.get("LOCATION_FIT", "")
    parts = [f"{job_title} fits a {seeker_title} profile"]
    if shared:
        keep = max(1, int(round(len(shared) * spec.quality_for("hr"))))
        parts.append(f"shares the key skills {', '.join(shared[:keep])}")
    if location:
        parts.append(location)
    text = "; ".join(parts) + "."
    return text, text, "hr"


def _generate(spec, prompt: str) -> Answer:
    opener = " ".join(prompt.split()[:12])
    text = (
        f"Considering your request ({opener} ...), here is a concise, "
        f"helpful response produced by {spec.name}."
    )
    return text, None, "general"


# -- prompt/extraction helpers -----------------------------------------
def _parse_directives(prompt: str) -> tuple[dict[str, str], str]:
    """Split ``KEY: value`` directive lines from the free-text body."""
    directives: dict[str, str] = {}
    body_lines: list[str] = []
    for line in prompt.splitlines():
        match = _DIRECTIVE_RE.match(line.strip())
        if match and match.group(1).isupper():
            directives[match.group(1)] = match.group(2).strip()
        else:
            body_lines.append(line)
    return directives, "\n".join(body_lines).strip()


def _find_title(text: str) -> str | None:
    for canonical in knowledge.RELATED_TITLES:
        if canonical in text:
            return canonical.title()
    for canonical, variants in knowledge.RELATED_TITLES.items():
        for variant in variants:
            if variant.lower() in text:
                return canonical.title()
    return None


def _find_location(text: str) -> str | None:
    for region, cities in knowledge.REGION_CITIES.items():
        if region in text:
            return region
        for city in cities:
            if city.lower() in text:
                return city
    return None


def _find_skills(text: str) -> list[str]:
    found = []
    for skills in knowledge.TITLE_SKILLS.values():
        for skill in skills:
            if skill in text and skill not in found:
                found.append(skill)
    return found


def _heuristic_label(text: str, labels: list[str]) -> str:
    """Keyword routing used by the intent classifier."""
    rules = {
        "summarize": ("summarize", "summary", "overview", "tl;dr"),
        "list_edit": ("add ", "remove ", "create a list", "shortlist"),
        "rank": ("rank", "top candidates", "best candidates", "order by fit"),
        "cluster": ("cluster", "group the candidates", "segment the"),
        "open_query": ("how many", "which", "what", "who", "show", "find", "average", "count"),
        "greeting": ("hello", "hi ", "hey"),
    }
    for label in labels:
        for keyword in rules.get(label, ()):
            if keyword in text:
                return label
    return labels[0]
