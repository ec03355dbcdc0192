"""Program search over the transformation operator library.

Given one or more (input, output) example pairs, find a short composition of
operators from :mod:`repro.transforms.operators` that maps every input to its
output.  This is the algorithmic core of the TDE baseline ("Transform Data by
Example" searches a large function library for consistent programs) and is also
reused by the simulated LLM to model by-example format inference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .operators import OPERATOR_LIBRARY, TransformOperator


@dataclass(frozen=True)
class TransformProgram:
    """A pipeline of operators applied left to right."""

    operators: tuple[TransformOperator, ...] = field(default_factory=tuple)

    def __call__(self, value: str) -> Optional[str]:
        current: Optional[str] = str(value)
        for op in self.operators:
            if current is None:
                return None
            current = op(current)
        return current

    @property
    def name(self) -> str:
        return " | ".join(op.name for op in self.operators) or "identity"

    def __len__(self) -> int:
        return len(self.operators)

    def is_consistent(self, examples: Sequence[tuple[str, str]]) -> bool:
        """True when the program maps every example input to its output."""
        return all(self(src) == dst for src, dst in examples)


@dataclass
class SearchResult:
    """Outcome of a program search."""

    program: Optional[TransformProgram]
    candidates_tried: int

    @property
    def found(self) -> bool:
        return self.program is not None


class ProgramSearcher:
    """Breadth-first search for operator compositions consistent with examples.

    Parameters
    ----------
    library:
        Operator library to search; defaults to the full built-in library.
    max_depth:
        Maximum composition length (TDE-style searches keep programs short).
    max_candidates:
        Safety cap on the number of candidate programs evaluated.
    """

    def __init__(
        self,
        library: Sequence[TransformOperator] = OPERATOR_LIBRARY,
        max_depth: int = 2,
        max_candidates: int = 20_000,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.library = tuple(library)
        self.max_depth = max_depth
        self.max_candidates = max_candidates

    def search(self, examples: Sequence[tuple[str, str]]) -> SearchResult:
        """Find the shortest consistent program for the given example pairs."""
        examples = [(str(a), str(b)) for a, b in examples]
        if not examples:
            raise ValueError("at least one example pair is required")

        # Identity short-circuit: inputs already equal outputs.
        identity = TransformProgram()
        if identity.is_consistent(examples):
            return SearchResult(program=identity, candidates_tried=1)

        tried = 1
        # Prune depth-1 survivors to seed depth-2 compositions: an operator can
        # only appear first in a useful program if it applies to every input.
        applicable = [
            op
            for op in self.library
            if all(op(src) is not None for src, _ in examples)
        ]
        for depth in range(1, self.max_depth + 1):
            for combo in itertools.product(applicable, repeat=depth):
                tried += 1
                if tried > self.max_candidates:
                    return SearchResult(program=None, candidates_tried=tried)
                program = TransformProgram(operators=combo)
                if program.is_consistent(examples):
                    return SearchResult(program=program, candidates_tried=tried)
        return SearchResult(program=None, candidates_tried=tried)

    def transform(
        self, examples: Sequence[tuple[str, str]], value: str
    ) -> Optional[str]:
        """Convenience: search on ``examples`` and apply the program to ``value``."""
        result = self.search(examples)
        if result.program is None:
            return None
        return result.program(value)


def infer_program(
    examples: Sequence[tuple[str, str]], max_depth: int = 2
) -> Optional[TransformProgram]:
    """Module-level helper: return a consistent program or None."""
    return ProgramSearcher(max_depth=max_depth).search(examples).program
