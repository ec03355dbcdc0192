"""Shared fixtures: a small cities table, its world knowledge, and cached datasets."""

from __future__ import annotations

import gc
import re
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import TransformationSpec, encode_request
from repro.cluster.workers import ThreadWorker
from repro.core import UniDM, UniDMConfig
from repro.datalake import Attribute, AttributeType, Schema, Table
from repro.datasets import load_dataset
from repro.llm import SimulatedLLM, WorldKnowledge
from repro.llm.base import LanguageModel
from repro.serving.engine import ExecutionEngine
from repro.serving.service import ServingService


#: The test whose teardown is running (see the fixture below).
_finishing: list = []


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    _finishing[:] = [item]


@pytest.fixture(autouse=True, scope="module")
def no_engine_thread_left_behind(request):
    """A resident engine's loop thread must not outlive the module that made it.

    An engine nobody closes is stopped when it is collected, so after a
    collection only an engine something still holds keeps its thread: that
    is a missing ``close()`` (or ``with``), reported where it was written.
    """
    before = set(threading.enumerate())  # an earlier module's leak is its own
    yield
    # pytest keeps the last test's fixture values until its teardown — this
    # included — is over; their finalizers have run, so let go of them now.
    for item in _finishing:
        (getattr(item, "funcargs", None) or {}).clear()
    gc.collect()
    deadline = time.monotonic() + 5.0
    leaked = [
        thread
        for thread in set(threading.enumerate()) - before
        if thread.name == "repro-engine"
    ]
    for thread in leaked:  # a collected engine's loop is on its way out
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [thread for thread in leaked if thread.is_alive()]
    assert not leaked, f"{len(leaked)} repro-engine thread(s) left running"


class GatedLLM(LanguageModel):
    """Prompt-pure backend whose round trips wait for the test to open a gate.

    Every ``complete_batch`` logs ``(kind, prompts)``, releases ``entered``
    and then blocks until ``gate`` is set — so a test can hold the engine's
    one LLM thread, line work up behind it, and let it all go at once.
    """

    name = "gated"

    def __init__(self, open_gate: bool = False):
        super().__init__()
        self.gate = threading.Event()
        if open_gate:
            self.gate.set()
        self.entered = threading.Semaphore(0)
        self.batches: list[tuple[str, list[str]]] = []
        self.prompts: list[str] = []

    def _complete_text(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if "Yes or No" in prompt:
            return "Yes" if len(prompt) % 2 else "No"
        return f"w{sum(ord(c) for c in prompt) % 89}"

    def complete_batch(self, prompts, kind="other"):
        self.batches.append((kind, list(prompts)))
        self.entered.release()
        if not self.gate.wait(30.0):
            raise TimeoutError("the test never opened the gate")
        return super().complete_batch(prompts, kind=kind)

    def tag_order(self) -> list[str]:
        """Tags (``<tag>`` in a task's source value) in the order their tasks
        first reached the backend."""
        order: list[str] = []
        for prompt in self.prompts:
            for tag in re.findall(r"<([^>]+)>", prompt):
                if tag not in order:
                    order.append(tag)
        return order


@pytest.fixture
def gated_llm():
    """Factory of :class:`GatedLLM` backends (closed unless ``open_gate=True``)."""
    return GatedLLM


class LineUpEngine(ExecutionEngine):
    """An engine that says when a run's tasks are in line for its slots.

    ``run`` blocks its caller, so a test that lines several callers up gives
    each its own thread.  ``handed`` is released once a caller's tasks have
    been handed to the engine's loop (which takes hand-offs in order), so a
    test that waits for it before starting the next caller makes the line-up
    order the call order, without sleeping.
    """

    def __init__(self, config=None):
        super().__init__(config)
        self.handed = threading.Semaphore(0)

    def _started(self):
        resident = super()._started()

        def submit(pipeline, tasks):
            run = resident.submit(pipeline, tasks)
            self.handed.release()
            return run

        return SimpleNamespace(submit=submit)


class Callers:
    """Callers of one :class:`ThreadWorker` over a gated backend, one thread each.

    The closed gate holds the engine's one LLM thread while batches line up
    behind it; each batch is started only once the one before it is in the
    engine's line, so arrival order is call order.
    """

    def __init__(self, engine_config=None, **worker_options):
        self.backend = GatedLLM()
        self.engine = LineUpEngine(engine_config)
        service = ServingService(UniDM(self.backend, UniDMConfig.full(seed=0)), self.engine)
        self.worker = ThreadWorker("w0", service, **worker_options)
        self.outcomes: dict = {}
        self.threads: dict = {}

    def start(self, name, tags, **share):
        """Submit one batch of ``<tag>``-valued transformation specs, the
        share's priority in every envelope as the router sends it."""
        requests = [
            encode_request(
                TransformationSpec(f"<{tag}>", [["20000101", "2000-01-01"]]),
                request_id=index,
                priority=share.get("priority", 0),
            )
            for index, tag in enumerate(tags)
        ]

        def call():
            try:
                self.outcomes[name] = self.worker.submit(requests, **share)
            except Exception as exc:
                self.outcomes[name] = exc

        self.threads[name] = threading.Thread(target=call)
        self.threads[name].start()

    def line_up(self, name, tags, **share):
        """``start``, and return once the batch waits in the engine's line."""
        self.start(name, tags, **share)
        assert self.engine.handed.acquire(timeout=10)

    def hold(self, tag="holder"):
        """One one-spec batch whose first round trip the closed gate holds."""
        self.line_up(tag, [tag])
        assert self.backend.entered.acquire(timeout=10)

    def release(self, *names):
        """Open the gate and wait for the named (default: all) callers."""
        self.backend.gate.set()
        self.finish(*names)

    def finish(self, *names):
        for name in names or list(self.threads):
            self.threads[name].join(timeout=30)
            assert not self.threads[name].is_alive()

    def close(self):
        self.release()
        self.worker.close()


@pytest.fixture
def gated_worker():
    """Factory of :class:`Callers` (``EngineConfig`` and worker options in);
    every one made is released and its worker closed at teardown."""
    made: list[Callers] = []

    def make(engine_config=None, **worker_options):
        made.append(Callers(engine_config, **worker_options))
        return made[-1]

    yield make
    for callers in made:
        callers.close()


CITY_ROWS = [
    {"city": "Florence", "country": "Italy", "population": 382000, "timezone": "Central European Time"},
    {"city": "Alicante", "country": "Spain", "population": 337482, "timezone": "Central European Time"},
    {"city": "Antwerp", "country": "Belgium", "population": 530000, "timezone": "Central European Time"},
    {"city": "London", "country": "United Kingdom", "population": 8900000, "timezone": "Greenwich Mean Time"},
    {"city": "Helsinki", "country": "Finland", "population": 656000, "timezone": "Eastern European Time"},
    {"city": "Copenhagen", "country": "Denmark", "population": 809314, "timezone": None},
]


def build_city_schema() -> Schema:
    return Schema(
        [
            Attribute("city", primary_key=True, domain="geography.city"),
            Attribute("country", domain="geography.country"),
            Attribute("population", AttributeType.NUMERIC),
            Attribute("timezone", AttributeType.CATEGORICAL, domain="geography.timezone"),
        ]
    )


def build_city_table() -> Table:
    return Table("cities", build_city_schema(), [dict(row) for row in CITY_ROWS])


def build_city_knowledge() -> WorldKnowledge:
    knowledge = WorldKnowledge()
    knowledge.set_relation_template("country", "{subject} is a city in the country {value}")
    knowledge.set_relation_template("timezone", "{subject} is in the timezone {value}")
    knowledge.add_attribute_link("country", "timezone", 0.9)
    knowledge.add_attribute_link("population", "timezone", 0.1)
    for row in CITY_ROWS:
        knowledge.add_fact(row["city"], "country", row["country"], 0.95, "geography")
        if row["timezone"]:
            knowledge.add_fact(row["city"], "timezone", row["timezone"], 0.9, "geography")
        knowledge.add_domain_value("country", row["country"])
        if row["timezone"]:
            knowledge.add_domain_value("timezone", row["timezone"])
    knowledge.add_fact("Copenhagen", "timezone", "Central European Time", 0.9, "geography")
    return knowledge


@pytest.fixture
def city_table() -> Table:
    return build_city_table()


@pytest.fixture
def city_schema() -> Schema:
    return build_city_schema()


@pytest.fixture
def city_knowledge() -> WorldKnowledge:
    return build_city_knowledge()


@pytest.fixture
def city_llm(city_knowledge) -> SimulatedLLM:
    return SimulatedLLM(knowledge=city_knowledge, seed=7)


# -- cached benchmark datasets (built once per test session) ---------------------

@pytest.fixture(scope="session")
def restaurant_dataset():
    return load_dataset("restaurant", seed=0, n_records=80, n_tasks=20)


@pytest.fixture(scope="session")
def buy_dataset():
    return load_dataset("buy", seed=0, n_records=60, n_tasks=15)


@pytest.fixture(scope="session")
def hospital_dataset():
    return load_dataset("hospital", seed=0, n_records=50)


@pytest.fixture(scope="session")
def stackoverflow_dataset():
    return load_dataset("stackoverflow", seed=0, n_cases=40)


@pytest.fixture(scope="session")
def beer_dataset():
    return load_dataset("beer", seed=0, n_entities=40, n_pairs=60, n_train_pairs=60)


@pytest.fixture(scope="session")
def walmart_dataset():
    return load_dataset("walmart_amazon", seed=0, n_entities=40, n_pairs=60, n_train_pairs=120)


@pytest.fixture(scope="session")
def nextiajd_dataset():
    return load_dataset("nextiajd", seed=0, n_pairs=20)


@pytest.fixture(scope="session")
def nba_dataset():
    return load_dataset("nba_players", seed=0, n_documents=20)


@pytest.fixture(scope="session")
def tableqa_dataset():
    return load_dataset("wiki_table_questions", seed=0, n_tables=3)
