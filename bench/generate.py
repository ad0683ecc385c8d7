"""Planted-concept databases for the benchmark.

Two schemas, both pure functions of ``(schema, k, seed)``:

``dept``
    ``k`` departments. Each has a chair and two more professors, 12 students
    and 4 books. Every student is taught by 2 random professors of their
    department (``Teaches(prof,student)``) and reads one random book of it
    (``Reads(student,book)``). The chair is ``Member(chair,dept)``, and
    department ``d > 0`` is bridged to ``d - 1`` by
    ``Reads(S<d>_0,B<d-1>_0)``. At k=10, seed 1 this gives 199 nodes and
    379 atoms over 3 predicates.
``rich``
    ``dept`` plus a unary ``Tenured(chair)`` per department and a ternary
    ``Advises(prof,student,book)`` per student, naming the student's first
    teacher and their book.

Every constant carries a planted role (chair, prof, student, book or dept),
written next to the database so the benchmark can score mined concepts.

Run ``python3 bench/generate.py dept 10 1 out.db`` to write a database and
its ``out.db.roles.json``.
"""

from __future__ import annotations

import json
import random
import sys

SCHEMAS = ("dept", "rich")
PROFS, STUDENTS, BOOKS = 3, 12, 4


def generate(schema: str, k: int, seed: int) -> tuple[str, dict[str, str]]:
    """Return the ``.db`` text and the role of every constant in it."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(seed)
    lines: list[str] = []
    roles: dict[str, str] = {}
    for d in range(k):
        profs = [f"P{d}_{i}" for i in range(PROFS)]
        students = [f"S{d}_{j}" for j in range(STUDENTS)]
        books = [f"B{d}_{b}" for b in range(BOOKS)]
        dept = f"D{d}"
        chair = profs[0]
        for s in students:
            teachers = rng.sample(profs, 2)
            book = rng.choice(books)
            lines += [f"Teaches({p},{s})" for p in teachers]
            lines.append(f"Reads({s},{book})")
            if schema == "rich":
                lines.append(f"Advises({teachers[0]},{s},{book})")
        lines.append(f"Member({chair},{dept})")
        if schema == "rich":
            lines.append(f"Tenured({chair})")
        if d > 0:
            lines.append(f"Reads({students[0]},B{d - 1}_0)")
        roles.update({p: "prof" for p in profs[1:]})
        roles.update({chair: "chair", dept: "dept"})
        roles.update({s: "student" for s in students})
        roles.update({b: "book" for b in books})
    used = {c for line in lines for c in line[line.index("(") + 1 : -1].split(",")}
    return "\n".join(lines) + "\n", {c: r for c, r in roles.items() if c in used}


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: generate.py SCHEMA K SEED OUT.db", file=sys.stderr)
        return 1
    schema, k, seed, out = argv[0], int(argv[1]), int(argv[2]), argv[3]
    text, roles = generate(schema, k, seed)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(out + ".roles.json", "w", encoding="utf-8") as fh:
        json.dump(roles, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
