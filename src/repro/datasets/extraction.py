"""Information extraction dataset (SWDE NBA-player style, Appendix E).

Each document is a semi-structured (HTML-flavoured) biography of a basketball
player; the closed extraction schema is ``player / height / position /
college``.  Documents come in several templates of varying messiness so that a
regex-synthesis baseline (Evaporate-code) generalises poorly across templates
while LLM-style reading does better, and an ensemble over templates
(Evaporate-code+) does best — the ordering of Table 11.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tasks.information_extraction import InformationExtractionTask
from ..core.types import TaskType
from ..datalake.schema import Attribute, Schema
from ..datalake.table import Table
from ..llm.knowledge import WorldKnowledge
from .base import BenchmarkDataset, DatasetBuilder

_FIRST_NAMES = [
    "Kevin", "Magic", "Dirk", "Tim", "Allen", "Steve", "Ray", "Paul",
    "Jason", "Vince", "Tony", "Grant", "Chris", "Shawn", "Alonzo", "Reggie",
]
_LAST_NAMES = [
    "Durant", "Johnson", "Nowitzki", "Duncan", "Iverson", "Nash", "Allen",
    "Pierce", "Kidd", "Carter", "Parker", "Hill", "Webber", "Kemp",
    "Mourning", "Miller",
]
_POSITIONS = [
    "point guard", "shooting guard", "small forward", "power forward", "center",
]
_COLLEGES = [
    "Texas", "Michigan State", "Wake Forest", "Georgetown", "Santa Clara",
    "Connecticut", "Kansas", "California", "North Carolina", "Duke", "UCLA",
    "Arizona",
]
_TEAMS = [
    "Phoenix Suns", "Dallas Mavericks", "San Antonio Spurs", "Boston Celtics",
    "Miami Heat", "Indiana Pacers", "Seattle SuperSonics", "New Jersey Nets",
]

#: Document templates; ``{player}`` etc. are filled per record.  Later templates
#: are progressively less regular (extra markup, reordered fields, prose).
_TEMPLATES = (
    (
        "<h1>{player}</h1>\n"
        "<p>{player} is an American professional basketball player for the "
        "{team} of the NBA.</p>\n"
        "<ul><li>Height: {height}</li><li>Position: {position}</li>"
        "<li>College: {college}</li></ul>"
    ),
    (
        "<div class='infobox'><span>{player}</span>"
        "<table><tr><td>Listed height</td><td>{height}</td></tr>"
        "<tr><td>Playing position</td><td>{position}</td></tr>"
        "<tr><td>College career</td><td>{college}</td></tr></table>"
        "<p>{player} spent his college years at {college} before joining the {team}.</p></div>"
    ),
    (
        "<article>{player}, standing {height}, made his name as a {position} "
        "after leaving {college}. He currently suits up for the {team}. "
        "Scouts praise how {player} reads the game.</article>"
    ),
    (
        "<body><p>Profile page.</p><p>Name - {player}. Team - {team}.</p>"
        "<p>The franchise lists him at {height}; he lines up at the {position} "
        "spot. Before the draft he attended {college}.</p></body>"
    ),
)

ATTRIBUTES = ("player", "height", "position", "college")


@dataclass(frozen=True)
class PlayerDocument:
    """One generated document with its ground-truth attribute values."""

    document: str
    template_index: int
    values: dict[str, str]


class NBAPlayersDataset(DatasetBuilder):
    """SWDE-style closed information extraction over NBA player pages."""

    name = "nba_players"
    task_type = TaskType.INFORMATION_EXTRACTION

    def __init__(self, seed: int = 0, n_documents: int = 60):
        super().__init__(seed)
        self.n_documents = n_documents

    def _make_document(self, index: int) -> PlayerDocument:
        player = (
            f"{_FIRST_NAMES[index % len(_FIRST_NAMES)]} "
            f"{_LAST_NAMES[(index * 7 + index // len(_FIRST_NAMES)) % len(_LAST_NAMES)]}"
        )
        height = f"{int(self.rng.integers(6, 8))} ft {int(self.rng.integers(0, 12))} in"
        values = {
            "player": player,
            "height": height,
            "position": self.choice(_POSITIONS),
            "college": self.choice(_COLLEGES),
        }
        # Real SWDE sites render most pages from one dominant template plus a
        # long tail of variants; the skew is what separates a single-function
        # extractor (Evaporate-code) from an ensemble (Evaporate-code+).
        template_index = int(
            self.rng.choice(len(_TEMPLATES), p=[0.45, 0.25, 0.20, 0.10])
        )
        document = _TEMPLATES[template_index].format(team=self.choice(_TEAMS), **values)
        return PlayerDocument(document=document, template_index=template_index, values=values)

    def build(self) -> BenchmarkDataset:
        knowledge = WorldKnowledge()
        knowledge.add_domain_values("position", _POSITIONS)
        knowledge.add_domain_values("college", _COLLEGES)

        documents = [self._make_document(i) for i in range(self.n_documents)]
        # A reference structured view (the target table of the extraction task).
        schema = Schema(
            [Attribute("player", primary_key=True)] + [Attribute(a) for a in ATTRIBUTES[1:]]
        )
        reference = Table("nba_players", schema, [d.values for d in documents])

        tasks: list[InformationExtractionTask] = []
        ground_truth: list[str] = []
        for doc in documents:
            for attribute in ATTRIBUTES:
                tasks.append(InformationExtractionTask(doc.document, attribute))
                ground_truth.append(doc.values[attribute])

        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables={reference.name: reference},
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=ground_truth,
            extra={"documents": documents, "attributes": ATTRIBUTES},
        )
