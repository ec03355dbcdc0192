"""Join discovery dataset (NextiaJD style, Appendix D / Figure 5).

The benchmark labels pairs of columns (drawn from different tables) as
joinable or not.  Joinability comes in two flavours:

* **value-overlap joins** — the two columns literally share values
  (``city`` <-> ``city_name``), which embedding baselines such as WarpGate can
  detect;
* **semantic joins** — the columns are linked through an equivalence the LLM
  knows (``country`` <-> ISO-3 code, ``state`` <-> abbreviation), which is
  where UniDM's knowledge-driven pipeline gains over pure embeddings
  (Figure 5's gap).

Non-joinable pairs mix unrelated columns and *near-miss* columns of the same
type but disjoint vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tasks.join_discovery import CONTAINS_ATTR, JoinDiscoveryTask
from ..core.types import TaskType
from ..datalake.schema import Attribute, Schema
from ..datalake.table import Table
from ..llm.knowledge import WorldKnowledge
from .base import BenchmarkDataset, DatasetBuilder
from .transformation import COUNTRY_ISO3, US_STATE_ABBREV

_CITIES = [
    "madrid", "lisbon", "vienna", "prague", "dublin", "helsinki", "warsaw",
    "athens", "oslo", "zurich", "brussels", "budapest", "copenhagen", "rome",
]
_PRODUCTS = [
    "laptop", "monitor", "keyboard", "printer", "router", "webcam", "tablet",
    "speaker", "mouse", "headset", "charger", "projector",
]
_DEPARTMENTS = [
    "engineering", "marketing", "finance", "operations", "legal", "research",
    "support", "design",
]
_COLORS = ["red", "blue", "green", "amber", "violet", "teal", "ivory", "slate"]


@dataclass(frozen=True)
class ColumnPair:
    """One labelled candidate pair for join discovery."""

    table_a: str
    column_a: str
    table_b: str
    column_b: str
    joinable: bool
    kind: str  # "overlap" | "semantic" | "negative"


class NextiaJDDataset(DatasetBuilder):
    """Synthetic NextiaJD-style join discovery benchmark."""

    name = "nextiajd"
    task_type = TaskType.JOIN_DISCOVERY

    def __init__(
        self,
        seed: int = 0,
        n_pairs: int = 120,
        positive_fraction: float = 0.5,
        semantic_fraction: float = 0.5,
        rows_per_table: int = 12,
    ):
        super().__init__(seed)
        self.n_pairs = n_pairs
        self.positive_fraction = positive_fraction
        self.semantic_fraction = semantic_fraction
        self.rows_per_table = rows_per_table

    # -- table builders -----------------------------------------------------------
    def _two_column_table(
        self, name: str, col_a: str, col_b: str, rows: list[tuple[str, str]]
    ) -> Table:
        schema = Schema([Attribute(col_a, primary_key=True), Attribute(col_b)])
        return Table(name, schema, [{col_a: a, col_b: b} for a, b in rows])

    def _build_tables(self, knowledge: WorldKnowledge) -> dict[str, Table]:
        tables: dict[str, Table] = {}

        countries = self.sample(sorted(COUNTRY_ISO3), self.rows_per_table)
        tables["fifa_ranking"] = self._two_column_table(
            "fifa_ranking",
            "country_full",
            "country_abrv",
            [(c.title(), COUNTRY_ISO3[c]) for c in countries],
        )
        other_countries = self.sample(sorted(COUNTRY_ISO3), self.rows_per_table)
        tables["countries_and_continents"] = self._two_column_table(
            "countries_and_continents",
            "name",
            "ISO",
            [(c.title(), COUNTRY_ISO3[c]) for c in other_countries],
        )

        states = self.sample(
            sorted(US_STATE_ABBREV), min(self.rows_per_table, len(US_STATE_ABBREV))
        )
        tables["us_census"] = self._two_column_table(
            "us_census",
            "state_name",
            "state_code",
            [(s.title(), US_STATE_ABBREV[s]) for s in states],
        )
        tables["weather_stations"] = self._two_column_table(
            "weather_stations",
            "station_city",
            "state",
            [(self.choice(_CITIES).title(), US_STATE_ABBREV[s]) for s in states],
        )

        cities_a = self.sample(_CITIES, self.rows_per_table)
        cities_b = self.sample(_CITIES, self.rows_per_table)
        tables["airports"] = self._two_column_table(
            "airports", "city", "iata", [(c.title(), c[:3].upper()) for c in cities_a]
        )
        tables["hotels"] = self._two_column_table(
            "hotels",
            "city_name",
            "stars",
            [(c.title(), str(int(self.rng.integers(1, 6)))) for c in cities_b],
        )

        tables["inventory"] = self._two_column_table(
            "inventory",
            "product",
            "quantity",
            [
                (p, str(int(self.rng.integers(1, 500))))
                for p in self.sample(_PRODUCTS, self.rows_per_table)
            ],
        )
        tables["orders"] = self._two_column_table(
            "orders",
            "item_name",
            "order_id",
            [
                (p, f"o{int(self.rng.integers(1000, 9999))}")
                for p in self.sample(_PRODUCTS, self.rows_per_table)
            ],
        )
        tables["staff"] = self._two_column_table(
            "staff",
            "department",
            "headcount",
            [(d, str(int(self.rng.integers(3, 80)))) for d in _DEPARTMENTS],
        )
        tables["palette"] = self._two_column_table(
            "palette",
            "color",
            "hex",
            [(c, f"#{int(self.rng.integers(0, 0xFFFFFF)):06x}") for c in _COLORS],
        )

        # Relation templates: abbreviation-style columns read naturally as
        # '"Germany" is abbreviated as "GER"', which is the evidence the final
        # prompt needs (Figure 4).
        for abbr_col in ("country_abrv", "ISO", "state_code", "state", "iata"):
            knowledge.set_relation_template(
                abbr_col, "{subject} is abbreviated as {value}"
            )
        knowledge.set_relation_template(
            CONTAINS_ATTR, 'Column "{subject}" contains {value}'
        )
        # Equivalences the LLM "knows" from pre-training.
        for country, iso in COUNTRY_ISO3.items():
            knowledge.add_equivalence(country, iso)
            knowledge.add_equivalence(country.title(), iso)
        for state, code in US_STATE_ABBREV.items():
            knowledge.add_equivalence(state, code)
            knowledge.add_equivalence(state.title(), code)
        return tables

    # -- pair construction -----------------------------------------------------------
    def _candidate_pairs(self) -> tuple[list[ColumnPair], list[ColumnPair]]:
        semantic_positive = [
            ColumnPair(
                "fifa_ranking", "country_abrv", "countries_and_continents", "ISO", True, "semantic"
            ),
            ColumnPair(
                "fifa_ranking", "country_full", "countries_and_continents", "ISO", True, "semantic"
            ),
            ColumnPair("us_census", "state_name", "weather_stations", "state", True, "semantic"),
            ColumnPair("us_census", "state_code", "weather_stations", "state", True, "overlap"),
            ColumnPair(
                "fifa_ranking", "country_full", "countries_and_continents", "name", True, "overlap"
            ),
            ColumnPair("airports", "city", "hotels", "city_name", True, "overlap"),
            ColumnPair("inventory", "product", "orders", "item_name", True, "overlap"),
        ]
        negative = [
            ColumnPair("fifa_ranking", "country_abrv", "palette", "color", False, "negative"),
            ColumnPair("airports", "iata", "orders", "order_id", False, "negative"),
            ColumnPair("inventory", "quantity", "hotels", "stars", False, "negative"),
            ColumnPair("staff", "department", "inventory", "product", False, "negative"),
            ColumnPair("palette", "hex", "orders", "order_id", False, "negative"),
            ColumnPair("us_census", "state_name", "palette", "color", False, "negative"),
            ColumnPair("airports", "city", "staff", "department", False, "negative"),
            ColumnPair("hotels", "stars", "staff", "headcount", False, "negative"),
        ]
        return semantic_positive, negative

    def build(self) -> BenchmarkDataset:
        knowledge = WorldKnowledge()
        tables = self._build_tables(knowledge)
        positives, negatives = self._candidate_pairs()

        n_pos = int(round(self.n_pairs * self.positive_fraction))
        n_neg = self.n_pairs - n_pos
        chosen: list[ColumnPair] = []
        for i in range(n_pos):
            chosen.append(positives[i % len(positives)])
        for i in range(n_neg):
            chosen.append(negatives[i % len(negatives)])
        chosen = self.shuffled(chosen)

        tasks: list[JoinDiscoveryTask] = []
        ground_truth: list[bool] = []
        for index, pair in enumerate(chosen):
            tasks.append(
                JoinDiscoveryTask(
                    tables[pair.table_a],
                    pair.column_a,
                    tables[pair.table_b],
                    pair.column_b,
                    seed=self.seed * 10_000 + index,
                )
            )
            ground_truth.append(pair.joinable)

        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables=tables,
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=ground_truth,
            extra={"pairs": chosen},
        )
