"""Entity resolution benchmarks: Beer, Amazon-Google, iTunes-Amazon, Walmart-Amazon.

These follow the Magellan benchmark setting: two structured tables with the
same schema, a set of candidate record pairs, and a binary label per pair.
Synthetic pairs are built from a clean entity catalogue:

* **positives** are two differently-formatted descriptions of the same entity
  (abbreviations, token reordering, typos, price formatting, edition suffixes);
* **negatives** pair different entities, with a controlled fraction of *hard*
  negatives (same brand / artist / product family) whose textual similarity
  approaches that of the positives.

The per-dataset difficulty (perturbation strength and hard-negative fraction)
reproduces the ordering of Table 4: iTunes-Amazon and Beer are easy,
Walmart-Amazon intermediate, Amazon-Google hard.  Walmart-Amazon also carries a
labelled training split used by the fine-tuning experiment (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.serialization import serialize_record
from ..core.tasks.entity_resolution import EntityResolutionTask
from ..core.types import TaskType
from ..datalake.schema import Attribute, AttributeType, Schema
from ..datalake.table import Record, Table
from ..llm.finetune import LabeledPair
from ..llm.knowledge import WorldKnowledge
from .base import BenchmarkDataset, DatasetBuilder


@dataclass(frozen=True)
class ERDifficulty:
    """Knobs controlling how ambiguous the candidate pairs are."""

    positive_perturbation: float  # 0 (verbatim copy) .. 1 (heavy rewriting)
    hard_negative_fraction: float
    price_noise: float


def _typo(value: str, rng: np.random.Generator) -> str:
    value = str(value)
    if len(value) < 4:
        return value
    index = int(rng.integers(1, len(value) - 1))
    return value[:index] + value[index + 1 :]


def _drop_token(value: str, rng: np.random.Generator) -> str:
    tokens = str(value).split()
    if len(tokens) <= 2:
        return str(value)
    index = int(rng.integers(len(tokens)))
    return " ".join(t for i, t in enumerate(tokens) if i != index)


def _shuffle_tokens(value: str, rng: np.random.Generator) -> str:
    tokens = str(value).split()
    if len(tokens) <= 2:
        return str(value)
    head, tail = tokens[0], tokens[1:]
    rng.shuffle(tail)
    return " ".join([head] + tail)


_ABBREVIATIONS = {
    "india pale ale": "ipa",
    "imperial stout": "imp stout",
    "professional": "pro",
    "edition": "ed",
    "version": "v",
    "deluxe": "dlx",
    "anniversary": "anniv",
    "company": "co",
    "brewing": "brwg",
    "software": "sw",
    "system": "sys",
    "wireless": "wl",
}


def _abbreviate(value: str, rng: np.random.Generator) -> str:
    out = str(value)
    for long_form, short_form in _ABBREVIATIONS.items():
        if long_form in out and rng.random() < 0.7:
            out = out.replace(long_form, short_form)
    return out


def _perturb_text(value: str, strength: float, rng: np.random.Generator) -> str:
    """Apply a strength-scaled mix of perturbations to a textual value."""
    out = _abbreviate(value, rng)
    if rng.random() < strength:
        out = _drop_token(out, rng)
    if rng.random() < strength * 0.8:
        out = _shuffle_tokens(out, rng)
    if rng.random() < strength * 0.6:
        out = _typo(out, rng)
    return out


class _ERBenchmark(DatasetBuilder):
    """Shared machinery for the four ER datasets."""

    task_type = TaskType.ENTITY_RESOLUTION
    difficulty = ERDifficulty(0.35, 0.25, 0.05)
    domain = "products"
    text_attributes: tuple[str, ...] = ()
    numeric_attributes: tuple[str, ...] = ()

    def __init__(
        self,
        seed: int = 0,
        n_entities: int = 90,
        n_pairs: int = 160,
        positive_fraction: float = 0.40,
        n_train_pairs: int = 200,
    ):
        super().__init__(seed)
        self.n_entities = n_entities
        self.n_pairs = n_pairs
        self.positive_fraction = positive_fraction
        self.n_train_pairs = n_train_pairs

    # -- to be provided by subclasses ------------------------------------------------
    def schema(self) -> Schema:
        raise NotImplementedError

    def make_entity(self, index: int) -> dict[str, object]:
        raise NotImplementedError

    def hard_sibling(self, entity: dict[str, object]) -> dict[str, object]:
        """A different real-world entity that looks similar to ``entity``."""
        raise NotImplementedError

    # -- pair construction --------------------------------------------------------------
    def _perturbed_copy(self, entity: dict[str, object]) -> dict[str, object]:
        strength = self.difficulty.positive_perturbation
        out: dict[str, object] = {}
        for key, value in entity.items():
            if key in self.numeric_attributes:
                noise = 1.0 + float(self.rng.normal(0.0, self.difficulty.price_noise))
                try:
                    out[key] = round(float(value) * max(noise, 0.01), 2)
                except (TypeError, ValueError):
                    out[key] = value
            elif key in self.text_attributes:
                out[key] = _perturb_text(str(value), strength, self.rng)
            else:
                out[key] = value
        return out

    def _build_pairs(
        self, n_pairs: int
    ) -> tuple[list[tuple[dict, dict]], list[bool]]:
        entities = [self.make_entity(i) for i in range(self.n_entities)]
        pairs: list[tuple[dict, dict]] = []
        labels: list[bool] = []
        n_pos = int(round(n_pairs * self.positive_fraction))
        for _ in range(n_pos):
            entity = self.choice(entities)
            pairs.append((entity, self._perturbed_copy(entity)))
            labels.append(True)
        n_neg = n_pairs - n_pos
        n_hard = int(round(n_neg * self.difficulty.hard_negative_fraction))
        for i in range(n_neg):
            entity = self.choice(entities)
            if i < n_hard:
                other = self.hard_sibling(entity)
            else:
                other = self.choice([e for e in entities if e is not entity])
                other = self._perturbed_copy(other)
            pairs.append((entity, other))
            labels.append(False)
        order = self.rng.permutation(len(pairs))
        pairs = [pairs[int(i)] for i in order]
        labels = [labels[int(i)] for i in order]
        return pairs, labels

    # -- dataset assembly -----------------------------------------------------------------
    def build(self) -> BenchmarkDataset:
        schema = self.schema()
        table_a = Table(f"{self.name}_a", schema)
        table_b = Table(f"{self.name}_b", schema)
        knowledge = WorldKnowledge()
        self._register_knowledge(knowledge)

        pairs, labels = self._build_pairs(self.n_pairs)
        tasks: list[EntityResolutionTask] = []
        for left, right in pairs:
            record_a = table_a.append({k: left.get(k) for k in schema.names})
            record_b = table_b.append({k: right.get(k) for k in schema.names})
            tasks.append(EntityResolutionTask(record_a, record_b))

        train_pairs: list[LabeledPair] = []
        if self.n_train_pairs > 0:
            raw_pairs, raw_labels = self._build_pairs(self.n_train_pairs)
            for (left, right), label in zip(raw_pairs, raw_labels):
                record_a = Record(schema, {k: left.get(k) for k in schema.names})
                record_b = Record(schema, {k: right.get(k) for k in schema.names})
                train_pairs.append(
                    LabeledPair(
                        left=serialize_record(record_a),
                        right=serialize_record(record_b),
                        label=label,
                    )
                )

        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables={table_a.name: table_a, table_b.name: table_b},
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=labels,
            train_pairs=train_pairs,
            extra={"domain": self.domain},
        )

    def _register_knowledge(self, knowledge: WorldKnowledge) -> None:
        for long_form, short_form in _ABBREVIATIONS.items():
            knowledge.add_equivalence(long_form, short_form)


# --------------------------------------------------------------------------
# Beer
# --------------------------------------------------------------------------

_BEER_ADJECTIVES = ["hoppy", "golden", "dark", "wild", "old", "burning", "frozen", "velvet"]
_BEER_NOUNS = ["river", "fox", "anchor", "summit", "harbor", "meadow", "raven", "canyon"]
_BEER_STYLES = ["india pale ale", "imperial stout", "pilsner", "amber lager", "wheat ale", "porter"]
_BREWERIES = [
    "stone brewing company", "cascade brewing", "north coast brewing company",
    "blue point brewing", "lakefront brewing", "highland brewing company",
]


class BeerDataset(_ERBenchmark):
    """Beer ER benchmark (easy: distinctive names, light perturbation)."""

    name = "beer"
    domain = "beverages"
    difficulty = ERDifficulty(
        positive_perturbation=0.45, hard_negative_fraction=0.40, price_noise=0.04
    )
    text_attributes = ("beer_name", "brewery", "style")
    numeric_attributes = ("abv",)

    def schema(self) -> Schema:
        return Schema(
            [
                Attribute("beer_name", primary_key=True, domain="beverages"),
                Attribute("brewery", domain="beverages"),
                Attribute("style", AttributeType.CATEGORICAL, domain="beverages"),
                Attribute("abv", AttributeType.NUMERIC),
            ]
        )

    def make_entity(self, index: int) -> dict[str, object]:
        name = (
            f"{_BEER_ADJECTIVES[index % len(_BEER_ADJECTIVES)]} "
            f"{_BEER_NOUNS[(index // len(_BEER_ADJECTIVES)) % len(_BEER_NOUNS)]} "
            f"{self.choice(_BEER_STYLES)}"
        )
        return {
            "beer_name": name,
            "brewery": self.choice(_BREWERIES),
            "style": self.choice(_BEER_STYLES),
            "abv": round(float(self.rng.uniform(4.0, 11.0)), 1),
        }

    def hard_sibling(self, entity: dict[str, object]) -> dict[str, object]:
        # Same brewery and style, but a genuinely different beer: this fools a
        # global-similarity matcher (most fields agree) while a reader that
        # attends to the beer name tells them apart.
        sibling = self.make_entity(int(self.rng.integers(self.n_entities)))
        sibling["brewery"] = entity["brewery"]
        sibling["style"] = entity["style"]
        return sibling


# --------------------------------------------------------------------------
# Amazon-Google (software products, hard)
# --------------------------------------------------------------------------

_SOFTWARE_BRANDS = ["punch software", "adobe", "microsoft", "intuit", "corel", "symantec", "nuance"]
_SOFTWARE_LINES = [
    "home design architectural series", "photoshop elements", "office small business",
    "quickbooks premier", "paint shop pro", "norton internet security", "dragon naturallyspeaking",
]
_EDITIONS = ["standard", "professional", "deluxe", "premier", "academic"]


class AmazonGoogleDataset(_ERBenchmark):
    """Amazon-Google ER benchmark (hard: near-duplicate versions and editions)."""

    name = "amazon_google"
    domain = "products.software"
    difficulty = ERDifficulty(
        positive_perturbation=0.75, hard_negative_fraction=0.65, price_noise=0.35
    )
    text_attributes = ("title", "manufacturer")
    numeric_attributes = ("price",)

    def schema(self) -> Schema:
        return Schema(
            [
                Attribute("title", primary_key=True, domain="products.software"),
                Attribute("manufacturer", domain="products.software"),
                Attribute("price", AttributeType.NUMERIC),
            ]
        )

    def make_entity(self, index: int) -> dict[str, object]:
        brand = _SOFTWARE_BRANDS[index % len(_SOFTWARE_BRANDS)]
        line = _SOFTWARE_LINES[index % len(_SOFTWARE_LINES)]
        version = int(self.rng.integers(1, 20))
        edition = self.choice(_EDITIONS)
        return {
            "title": f"{brand} {line} {version} {edition} edition",
            "manufacturer": brand,
            "price": round(float(self.rng.uniform(19, 499)), 2),
        }

    def hard_sibling(self, entity: dict[str, object]) -> dict[str, object]:
        sibling = dict(entity)
        title = str(entity["title"])
        tokens = title.split()
        # Same product family, different version/edition: classic hard negative.
        for i, token in enumerate(tokens):
            if token.isdigit():
                tokens[i] = str(int(token) + int(self.rng.integers(1, 8)))
                break
        sibling["title"] = " ".join(tokens).replace(
            str(entity["title"]).split()[-2], self.choice(_EDITIONS)
        )
        # Vendors often list adjacent versions at the same price point, so the
        # numeric features do not give the pair away either.
        if self.rng.random() < 0.5:
            sibling["price"] = entity["price"]
        else:
            sibling["price"] = round(float(self.rng.uniform(19, 499)), 2)
        return sibling


# --------------------------------------------------------------------------
# iTunes-Amazon (songs, easy)
# --------------------------------------------------------------------------

_ARTISTS = [
    "the blue herons", "maya lane", "dj orbit", "static fields", "aurora kane", "the wandering"
]
_SONG_WORDS = [
    "midnight", "river", "echoes", "golden", "fading", "summer", "shadow", "neon", "quiet"
]
_ALBUMS = ["first light", "city maps", "afterglow", "paper moons", "silver lines"]


class ItunesAmazonDataset(_ERBenchmark):
    """iTunes-Amazon ER benchmark (easy: titles plus artist/album/time agree)."""

    name = "itunes_amazon"
    domain = "music"
    difficulty = ERDifficulty(
        positive_perturbation=0.40, hard_negative_fraction=0.35, price_noise=0.05
    )
    text_attributes = ("song", "artist", "album")
    numeric_attributes = ("price",)

    def schema(self) -> Schema:
        return Schema(
            [
                Attribute("song", primary_key=True, domain="music"),
                Attribute("artist", domain="music"),
                Attribute("album", domain="music"),
                Attribute("time", domain="music"),
                Attribute("price", AttributeType.NUMERIC),
            ]
        )

    def make_entity(self, index: int) -> dict[str, object]:
        song = (
            f"{_SONG_WORDS[index % len(_SONG_WORDS)]} "
            f"{_SONG_WORDS[(index * 3 + 1) % len(_SONG_WORDS)]}"
        )
        return {
            "song": song,
            "artist": _ARTISTS[index % len(_ARTISTS)],
            "album": self.choice(_ALBUMS),
            "time": f"{int(self.rng.integers(2, 6))}:{int(self.rng.integers(0, 60)):02d}",
            "price": round(float(self.rng.uniform(0.69, 1.29)), 2),
        }

    def hard_sibling(self, entity: dict[str, object]) -> dict[str, object]:
        sibling = dict(self.make_entity(int(self.rng.integers(self.n_entities))))
        sibling["artist"] = entity["artist"]
        sibling["album"] = entity["album"]
        return sibling


# --------------------------------------------------------------------------
# Walmart-Amazon (electronics, medium) — also the fine-tuning split (Table 5)
# --------------------------------------------------------------------------

_ELECTRONICS_BRANDS = ["sony", "samsung", "hp", "dell", "canon", "garmin", "logitech", "toshiba"]
_ELECTRONICS_ITEMS = [
    "wireless mouse", "laptop computer", "digital camera", "gps navigator",
    "led monitor", "inkjet printer", "bluetooth headset", "external hard drive",
]


class WalmartAmazonDataset(_ERBenchmark):
    """Walmart-Amazon ER benchmark (medium difficulty, with a training split)."""

    name = "walmart_amazon"
    domain = "products.electronics"
    difficulty = ERDifficulty(
        positive_perturbation=0.60, hard_negative_fraction=0.60, price_noise=0.20
    )
    text_attributes = ("title", "brand")
    numeric_attributes = ("price",)

    def __init__(
        self,
        seed: int = 0,
        n_entities: int = 90,
        n_pairs: int = 160,
        positive_fraction: float = 0.40,
        n_train_pairs: int = 600,
    ):
        super().__init__(
            seed=seed,
            n_entities=n_entities,
            n_pairs=n_pairs,
            positive_fraction=positive_fraction,
            n_train_pairs=n_train_pairs,
        )

    def schema(self) -> Schema:
        return Schema(
            [
                Attribute("title", primary_key=True, domain="products.electronics"),
                Attribute("brand", domain="products.electronics"),
                Attribute("model", AttributeType.IDENTIFIER),
                Attribute("price", AttributeType.NUMERIC),
            ]
        )

    def make_entity(self, index: int) -> dict[str, object]:
        brand = _ELECTRONICS_BRANDS[index % len(_ELECTRONICS_BRANDS)]
        item = _ELECTRONICS_ITEMS[(index // len(_ELECTRONICS_BRANDS)) % len(_ELECTRONICS_ITEMS)]
        model = f"{brand[:2].upper()}-{int(self.rng.integers(100, 9999))}"
        return {
            "title": f"{brand} {item} {model}",
            "brand": brand,
            "model": model,
            "price": round(float(self.rng.uniform(15, 899)), 2),
        }

    def hard_sibling(self, entity: dict[str, object]) -> dict[str, object]:
        sibling = dict(entity)
        model = f"{str(entity['brand'])[:2].upper()}-{int(self.rng.integers(100, 9999))}"
        sibling["model"] = model
        sibling["title"] = f"{entity['brand']} {self.choice(_ELECTRONICS_ITEMS)} {model}"
        sibling["price"] = round(float(self.rng.uniform(15, 899)), 2)
        return sibling
