"""The enterprise job-title taxonomy graph.

The data planner's running example needs a graph database "which contains
a title taxonomy" to expand "data scientist" into related titles
(Section V-G).  This module builds that graph: title nodes related across
families and specialized within them.
"""

from __future__ import annotations

from ..storage import GraphStore

#: family -> (canonical member titles).  The first member is the family
#: anchor; all members are mutually ``related``.
TITLE_FAMILIES: dict[str, tuple[str, ...]] = {
    "data science": (
        "Data Scientist",
        "Machine Learning Engineer",
        "Applied Scientist",
        "Data Analyst",
        "Research Scientist",
    ),
    "software": (
        "Software Engineer",
        "Backend Engineer",
        "Frontend Engineer",
        "Full Stack Engineer",
        "Systems Engineer",
    ),
    "data engineering": (
        "Data Engineer",
        "Analytics Engineer",
        "ETL Developer",
    ),
    "product": (
        "Product Manager",
        "Technical Program Manager",
        "Product Owner",
    ),
}

#: seniority prefixes generate ``specializes`` children of each base title.
SENIORITY_LEVELS = ("Senior", "Staff")


def node_id_for(title: str) -> str:
    return "title:" + title.lower().replace(" ", "_")


def build_title_taxonomy(name: str = "title_taxonomy") -> GraphStore:
    """Build the taxonomy: family anchors, related edges, seniority tree."""
    graph = GraphStore(
        name,
        description="Job title taxonomy: families of related titles and seniority specializations",
    )
    for family, titles in TITLE_FAMILIES.items():
        for title in titles:
            graph.add_node(node_id_for(title), "title", name=title, family=family)
        anchor = titles[0]
        for title in titles[1:]:
            graph.add_edge(node_id_for(anchor), node_id_for(title), "related")
    for titles in TITLE_FAMILIES.values():
        for title in titles:
            for level in SENIORITY_LEVELS:
                specialized = f"{level} {title}"
                graph.add_node(
                    node_id_for(specialized),
                    "title",
                    name=specialized,
                    family=_family_of(title),
                    seniority=level.lower(),
                )
                graph.add_edge(node_id_for(specialized), node_id_for(title), "specializes")
    return graph


def base_titles() -> list[str]:
    return [title for titles in TITLE_FAMILIES.values() for title in titles]


def _family_of(title: str) -> str:
    for family, titles in TITLE_FAMILIES.items():
        if title in titles:
            return family
    return "other"
