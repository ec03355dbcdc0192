"""Error detection benchmarks: Hospital and Adult (HoloClean / HoloDetect).

Both datasets start from a clean synthetic table, register each attribute's
clean value domain in the knowledge store (the "domain knowledge" an LLM or a
rule system could consult), then corrupt 5% of the cells with realistic typos
(the paper's error rate).  A task instance asks whether one specific cell is
erroneous; ground truth is the injection record.
"""

from __future__ import annotations

from ..core.tasks.error_detection import ErrorDetectionTask
from ..core.types import TaskType
from ..datalake.schema import Attribute, AttributeType, Schema
from ..datalake.table import Table
from ..llm.knowledge import WorldKnowledge
from .base import BenchmarkDataset, DatasetBuilder
from .corruption import inject_errors

# --------------------------------------------------------------------------
# Hospital
# --------------------------------------------------------------------------

_HOSPITAL_CITIES = [
    ("birmingham", "al", "jefferson"),
    ("sheffield", "al", "colbert"),
    ("boaz", "al", "marshall"),
    ("dothan", "al", "houston"),
    ("florence", "al", "lauderdale"),
    ("huntsville", "al", "madison"),
    ("mobile", "al", "mobile"),
    ("montgomery", "al", "montgomery"),
    ("tuscaloosa", "al", "tuscaloosa"),
    ("gadsden", "al", "etowah"),
]

_HOSPITAL_NAMES = [
    "regional medical center", "community hospital", "baptist medical center",
    "memorial hospital", "general hospital", "health center",
]

_MEASURES = [
    ("AMI-1", "aspirin at arrival"),
    ("AMI-2", "aspirin prescribed at discharge"),
    ("HF-1", "discharge instructions"),
    ("HF-2", "evaluation of lvs function"),
    ("PN-2", "pneumococcal vaccination"),
    ("SCIP-INF-1", "prophylactic antibiotic received within one hour"),
]


class HospitalDataset(DatasetBuilder):
    """Synthetic counterpart of the Hospital data-cleaning benchmark."""

    name = "hospital"
    task_type = TaskType.ERROR_DETECTION

    #: Attributes that receive injected errors and are checked by tasks.
    checked_attributes = ("city", "county", "hospital_name", "measure_name")

    def __init__(self, seed: int = 0, n_records: int = 120, error_rate: float = 0.05):
        super().__init__(seed)
        self.n_records = n_records
        self.error_rate = error_rate

    def build(self) -> BenchmarkDataset:
        schema = Schema(
            [
                Attribute("provider_number", AttributeType.IDENTIFIER, primary_key=True),
                Attribute("hospital_name", domain="healthcare"),
                Attribute("address", domain="healthcare.address"),
                Attribute("city", AttributeType.CATEGORICAL, domain="geography.city"),
                Attribute("state", AttributeType.CATEGORICAL, domain="geography.state"),
                Attribute("zip", AttributeType.IDENTIFIER),
                Attribute("county", AttributeType.CATEGORICAL, domain="geography.county"),
                Attribute("phone", domain="healthcare.phone"),
                Attribute("measure_code", AttributeType.CATEGORICAL),
                Attribute("measure_name", AttributeType.CATEGORICAL, domain="healthcare.measure"),
            ]
        )
        table = Table("hospital", schema, description="CMS hospital quality measures")
        knowledge = WorldKnowledge()
        self._register_templates(knowledge)

        for index in range(self.n_records):
            city, state, county = self.choice(_HOSPITAL_CITIES)
            hospital = f"{city} {self.choice(_HOSPITAL_NAMES)}"
            measure_code, measure_name = self.choice(_MEASURES)
            table.append(
                {
                    "provider_number": f"1{index:04d}",
                    "hospital_name": hospital,
                    "address": f"{int(self.rng.integers(100, 9999))} u s highway "
                    f"{int(self.rng.integers(1, 500))} north",
                    "city": city,
                    "state": state,
                    "zip": f"35{int(self.rng.integers(100, 999)):03d}",
                    "county": county,
                    "phone": f"256{int(self.rng.integers(1000000, 9999999))}",
                    "measure_code": measure_code,
                    "measure_name": measure_name,
                }
            )

        # Register the clean domains BEFORE corrupting cells.
        for attribute in self.checked_attributes:
            knowledge.add_domain_values(attribute, [str(v) for v in table.distinct(attribute)])

        errors = inject_errors(table, self.checked_attributes, self.error_rate, self.rng)
        error_cells = {(e.record_index, e.attribute) for e in errors}

        tasks: list[ErrorDetectionTask] = []
        ground_truth: list[bool] = []
        records = table.records
        for record_index, record in enumerate(records):
            for attribute in self.checked_attributes:
                tasks.append(ErrorDetectionTask(table, record, attribute))
                ground_truth.append((record_index, attribute) in error_cells)

        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables={table.name: table},
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=ground_truth,
            extra={"errors": errors, "checked_attributes": self.checked_attributes},
        )

    @staticmethod
    def _register_templates(knowledge: WorldKnowledge) -> None:
        knowledge.set_relation_template("city", "{subject} is located in the city of {value}")
        knowledge.set_relation_template("county", "{subject} belongs to the county of {value}")
        knowledge.set_relation_template("measure_name", "{subject} reports the measure {value}")
        knowledge.add_attribute_link("city", "county", 0.85)
        knowledge.add_attribute_link("city", "zip", 0.60)
        knowledge.add_attribute_link("hospital_name", "city", 0.70)
        knowledge.add_attribute_link("measure_code", "measure_name", 0.90)


# --------------------------------------------------------------------------
# Adult
# --------------------------------------------------------------------------

_WORKCLASSES = [
    "private", "self-emp-not-inc", "self-emp-inc", "federal-gov", "local-gov", "state-gov"
]
_EDUCATION = ["bachelors", "hs-grad", "11th", "masters", "some-college", "assoc-acdm", "doctorate"]
_MARITAL = ["married-civ-spouse", "divorced", "never-married", "separated", "widowed"]
_OCCUPATIONS = [
    "tech-support", "craft-repair", "sales", "exec-managerial", "prof-specialty",
    "handlers-cleaners", "machine-op-inspct", "adm-clerical", "farming-fishing",
]
#: Legitimate but rare categories; they appear only once or twice, which is
#: what trips purely frequency-based detectors (HoloClean) into false alarms.
_RARE_OCCUPATIONS = ["armed-forces", "priv-house-serv", "protective-serv"]
_RARE_WORKCLASSES = ["without-pay", "never-worked"]
_RACES = ["white", "black", "asian-pac-islander", "amer-indian-eskimo", "other"]
_SEXES = ["male", "female"]
_INCOME = ["<=50k", ">50k"]


class AdultDataset(DatasetBuilder):
    """Synthetic counterpart of the Adult (census) error-detection benchmark."""

    name = "adult"
    task_type = TaskType.ERROR_DETECTION

    checked_attributes = ("workclass", "education", "occupation", "marital_status")

    def __init__(self, seed: int = 0, n_records: int = 150, error_rate: float = 0.05):
        super().__init__(seed)
        self.n_records = n_records
        self.error_rate = error_rate

    def build(self) -> BenchmarkDataset:
        schema = Schema(
            [
                Attribute("record_id", AttributeType.IDENTIFIER, primary_key=True),
                Attribute("age", AttributeType.NUMERIC),
                Attribute("workclass", AttributeType.CATEGORICAL, domain="census"),
                Attribute("education", AttributeType.CATEGORICAL, domain="census"),
                Attribute("marital_status", AttributeType.CATEGORICAL, domain="census"),
                Attribute("occupation", AttributeType.CATEGORICAL, domain="census"),
                Attribute("race", AttributeType.CATEGORICAL, domain="census"),
                Attribute("sex", AttributeType.CATEGORICAL, domain="census"),
                Attribute("hours_per_week", AttributeType.NUMERIC),
                Attribute("income", AttributeType.CATEGORICAL, domain="census"),
            ]
        )
        table = Table("adult", schema, description="Census income records")
        knowledge = WorldKnowledge()
        knowledge.set_relation_template("occupation", "{subject} works as {value}")
        knowledge.set_relation_template("education", "{subject} holds a {value} education")
        knowledge.add_attribute_link("occupation", "education", 0.6)
        knowledge.add_attribute_link("workclass", "occupation", 0.6)
        knowledge.add_attribute_link("income", "education", 0.5)

        for index in range(self.n_records):
            occupation = (
                self.choice(_RARE_OCCUPATIONS)
                if self.rng.random() < 0.03
                else self.choice(_OCCUPATIONS)
            )
            workclass = (
                self.choice(_RARE_WORKCLASSES)
                if self.rng.random() < 0.02
                else self.choice(_WORKCLASSES)
            )
            table.append(
                {
                    "record_id": f"a{index:05d}",
                    "age": int(self.rng.integers(18, 80)),
                    "workclass": workclass,
                    "education": self.choice(_EDUCATION),
                    "marital_status": self.choice(_MARITAL),
                    "occupation": occupation,
                    "race": self.choice(_RACES),
                    "sex": self.choice(_SEXES),
                    "hours_per_week": int(self.rng.integers(10, 80)),
                    "income": self.choice(_INCOME),
                }
            )

        for attribute in self.checked_attributes:
            knowledge.add_domain_values(attribute, [str(v) for v in table.distinct(attribute)])
        # The paper notes the Adult result benefits from data-source information:
        # the full category vocabulary is public, so register it as well.
        knowledge.add_domain_values("workclass", _WORKCLASSES + _RARE_WORKCLASSES)
        knowledge.add_domain_values("education", _EDUCATION)
        knowledge.add_domain_values("occupation", _OCCUPATIONS + _RARE_OCCUPATIONS)
        knowledge.add_domain_values("marital_status", _MARITAL)

        errors = inject_errors(table, self.checked_attributes, self.error_rate, self.rng)
        error_cells = {(e.record_index, e.attribute) for e in errors}

        tasks: list[ErrorDetectionTask] = []
        ground_truth: list[bool] = []
        for record_index, record in enumerate(table.records):
            for attribute in self.checked_attributes:
                tasks.append(ErrorDetectionTask(table, record, attribute))
                ground_truth.append((record_index, attribute) in error_cells)

        return BenchmarkDataset(
            name=self.name,
            task_type=self.task_type,
            tables={table.name: table},
            knowledge=knowledge,
            tasks=tasks,
            ground_truth=ground_truth,
            extra={"errors": errors, "checked_attributes": self.checked_attributes},
        )
