"""Parsing of ground-atom databases and conversion to labeled hypergraphs.

Input format is one ground atom per line, ``Pred(c1,c2,...)``, with ``//``
comments and blank lines ignored. Constants and predicates are
case-sensitive. Duplicate atoms collapse to one; each remaining atom becomes
one hyperedge labeled with its predicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import LabeledHypergraph

_PREDICATE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_CONSTANT_RE = re.compile(r"[^\s(),]+\Z")
_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\Z")


class DatabaseParseError(ValueError):
    """Malformed ground-atom input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class GroundAtom:
    predicate: str
    constants: tuple[str, ...]

    def __post_init__(self):
        if not _PREDICATE_RE.match(self.predicate):
            raise ValueError(f"invalid predicate name {self.predicate!r}")
        if len(self.constants) < 1:
            raise ValueError("atom arity must be at least 1")
        for c in self.constants:
            # "//" would start a comment once the atom is written out
            if not c or not _CONSTANT_RE.match(c) or "//" in c:
                raise ValueError(f"invalid constant {c!r}")

    @property
    def arity(self) -> int:
        return len(self.constants)

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(self.constants)})"


@dataclass
class RelationalDatabase:
    """Deduplicated ground atoms plus the arity registered per predicate."""

    atoms: tuple[GroundAtom, ...]
    predicate_arities: dict[str, int]

    @classmethod
    def from_atoms(cls, atoms: Iterable[GroundAtom]) -> "RelationalDatabase":
        arities: dict[str, int] = {}
        seen: set[GroundAtom] = set()
        kept: list[GroundAtom] = []
        for atom in atoms:
            known = arities.setdefault(atom.predicate, atom.arity)
            if known != atom.arity:
                raise ValueError(
                    f"predicate {atom.predicate} used with arity {atom.arity}, "
                    f"previously {known}"
                )
            if atom not in seen:
                seen.add(atom)
                kept.append(atom)
        return cls(atoms=tuple(kept), predicate_arities=arities)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def parse_database(text: str) -> RelationalDatabase:
    """Parse ground-atom lines into a database.

    Raises DatabaseParseError with a line number on syntax errors and on
    arity conflicts (the arity of a predicate is fixed by its first
    occurrence).
    """
    lineno = 0

    def atoms() -> Iterable[GroundAtom]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("//", 1)[0].strip()
            if not line:
                continue
            m = _ATOM_RE.match(line)
            if not m:
                raise DatabaseParseError(lineno, f"expected Pred(c1,...), got {line!r}")
            constants = tuple(a.strip() for a in m.group(2).split(","))
            try:
                atom = GroundAtom(m.group(1), constants)
            except ValueError as exc:
                raise DatabaseParseError(lineno, str(exc)) from exc
            yield atom

    try:
        return RelationalDatabase.from_atoms(atoms())
    except DatabaseParseError:
        raise
    except ValueError as exc:  # arity conflict, found at the current line
        raise DatabaseParseError(lineno, str(exc)) from exc


def serialize_database(db: RelationalDatabase) -> str:
    """Deterministic text form: atoms sorted by predicate, then constants."""
    ordered = sorted(db.atoms, key=lambda a: (a.predicate, a.constants))
    return "\n".join(str(a) for a in ordered) + ("\n" if ordered else "")


def build_hypergraph(db: RelationalDatabase) -> LabeledHypergraph:
    """One node per distinct constant, one labeled hyperedge per atom.

    Node and label ids follow first appearance. Constants repeated within an
    atom are kept once in its hyperedge.
    """
    node_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    edges = []
    for atom in db.atoms:
        label = label_ids.setdefault(atom.predicate, len(label_ids))
        members = tuple(node_ids.setdefault(c, len(node_ids)) for c in atom.constants)
        edges.append((label, members))
    return LabeledHypergraph.build(tuple(node_ids), tuple(label_ids), edges)


def hypergraph_to_atoms(h: LabeledHypergraph) -> list[GroundAtom]:
    """Recover one ground atom per hyperedge (member order preserved)."""
    return [
        GroundAtom(h.label_names[label], tuple(h.node_names[v] for v in members))
        for label, members in h.edges
    ]
