"""Toy ground-atom datasets shared across the test suite.

All are small teaching/reading databases over Person and Book entities with
two binary predicates. Text builders return `.db` file contents; `*_graph`
helpers return the parsed hypergraph. ``bench_db`` returns a database of
the benchmark's generator.
"""

import importlib.util
import re
from pathlib import Path

from prism.relational import build_hypergraph, parse_database


def classroom_db() -> str:
    """Two teachers (P1, P2) both teaching P3..P6, who all read B1..B3."""
    lines = []
    for student in ("P3", "P4", "P5", "P6"):
        lines.append(f"Teaches(P1,{student})")
        lines.append(f"Teaches(P2,{student})")
    for student in ("P3", "P4", "P5", "P6"):
        for book in ("B1", "B2", "B3"):
            lines.append(f"Reads({student},{book})")
    return "\n".join(lines) + "\n"


def physics_db() -> str:
    """One department: professors P4, P5; students P1..P3 read B1 and
    P6..P8 read B2. P3 is taught by both professors, P1 only by P4, P2 only
    by P5; P6..P8 by both."""
    teaches = [
        ("P4", "P1"),
        ("P4", "P3"),
        ("P4", "P6"),
        ("P4", "P7"),
        ("P4", "P8"),
        ("P5", "P2"),
        ("P5", "P3"),
        ("P5", "P6"),
        ("P5", "P7"),
        ("P5", "P8"),
    ]
    reads = [
        ("P1", "B1"),
        ("P2", "B1"),
        ("P3", "B1"),
        ("P6", "B2"),
        ("P7", "B2"),
        ("P8", "B2"),
    ]
    lines = [f"Teaches({a},{b})" for a, b in teaches]
    lines += [f"Reads({a},{b})" for a, b in reads]
    return "\n".join(lines) + "\n"


def history_db() -> str:
    """Mirror department: professors P10, P11; P12..P14 read B4 and
    P9, P15, P16 read B3."""
    teaches = [
        ("P10", "P12"),
        ("P10", "P13"),
        ("P10", "P9"),
        ("P10", "P15"),
        ("P10", "P16"),
        ("P11", "P13"),
        ("P11", "P14"),
        ("P11", "P9"),
        ("P11", "P15"),
        ("P11", "P16"),
    ]
    reads = [
        ("P12", "B4"),
        ("P13", "B4"),
        ("P14", "B4"),
        ("P9", "B3"),
        ("P15", "B3"),
        ("P16", "B3"),
    ]
    lines = [f"Teaches({a},{b})" for a, b in teaches]
    lines += [f"Reads({a},{b})" for a, b in reads]
    return "\n".join(lines) + "\n"


def two_departments_db() -> str:
    """Physics and history joined by the single spurious atom Reads(P8,B4)."""
    return physics_db() + history_db() + "Reads(P8,B4)\n"


def two_components_db() -> str:
    """``two_departments_db`` interleaved line by line with a copy whose
    constants are prefixed Z: 40 nodes in two components whose node ids
    alternate, so spectral pieces come out component by component, not in
    global order of smallest node id."""
    lines = two_departments_db().splitlines()
    copy = [re.sub(r"([(,])", r"\1Z", line) for line in lines]
    return "".join(f"{a}\n{b}\n" for a, b in zip(lines, copy))


def department_variant_db() -> str:
    """Like the physics department but P4 teaches P1 and P2 (not P3), so the
    source-P4 view groups P1 and P2 with the shared students."""
    teaches = [
        ("P4", "P1"),
        ("P4", "P2"),
        ("P4", "P6"),
        ("P4", "P7"),
        ("P4", "P8"),
        ("P5", "P2"),
        ("P5", "P3"),
        ("P5", "P6"),
        ("P5", "P7"),
        ("P5", "P8"),
    ]
    reads = [
        ("P1", "B1"),
        ("P2", "B1"),
        ("P3", "B1"),
        ("P6", "B2"),
        ("P7", "B2"),
        ("P8", "B2"),
    ]
    lines = [f"Teaches({a},{b})" for a, b in teaches]
    lines += [f"Reads({a},{b})" for a, b in reads]
    return "\n".join(lines) + "\n"


def rich_schema_db() -> str:
    """Two departments over five predicates of three arities: unary
    Tenured(chair), binary Teaches, Reads and Member, and ternary
    Advises(prof,student,book). Each department has a chair and one more
    professor, four students and two books; Reads(SX1,BY1) bridges them."""
    lines = []
    for d in ("X", "Y"):
        chair, prof = f"P{d}1", f"P{d}2"
        books = [f"B{d}1", f"B{d}2"]
        for i in range(1, 5):
            student = f"S{d}{i}"
            teachers = [chair, prof] if i % 2 else [prof]
            book = books[i % 2]
            lines += [f"Teaches({p},{student})" for p in teachers]
            lines.append(f"Reads({student},{book})")
            lines.append(f"Advises({teachers[0]},{student},{book})")
        lines.append(f"Member({chair},D{d})")
        lines.append(f"Tenured({chair})")
    lines.append("Reads(SX1,BY1)")
    return "\n".join(lines) + "\n"


def labeled_chain_db(length: int = 30) -> str:
    """A chain n0 - n1 - ... whose links cycle through the predicates A, B
    and C: diameter ``length``, three labels, and walks that go back and
    forth over nodes they have already visited."""
    return "".join(f"{'ABC'[i % 3]}(n{i},n{i + 1})\n" for i in range(length))


def layered_db(layers: int = 5, width: int = 40, n_labels: int = 50) -> str:
    """Layers of ``width`` nodes, each node linked to every node of the next
    layer by one of ``n_labels`` predicates in turn: diameter ``layers`` -
    1, and rows of up to 2 * ``width`` entries whose walks rarely share a
    label sequence, so their paths do not collapse."""
    return "".join(
        f"R{(i * width + j + a) % n_labels}(n{a}_{i},n{a + 1}_{j})\n"
        for a in range(layers - 1)
        for i in range(width)
        for j in range(width)
    )


def bench_db(schema: str, k: int, seed: int) -> str:
    """The `.db` text of ``bench/generate.py`` for (schema, k, seed)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.generate(schema, k, seed)[0]


def graph(db_text: str):
    return build_hypergraph(parse_database(db_text))


def single_edge_db() -> str:
    return "Knows(a,b)\n"


def triangle_db() -> str:
    return "Knows(a,b)\nKnows(b,c)\nKnows(c,a)\n"


def star_db(leaves: int = 5) -> str:
    return "".join(f"Knows(hub,leaf{i})\n" for i in range(leaves))


def chain_db(length: int = 3) -> str:
    return "".join(f"Next(n{i},n{i+1})\n" for i in range(length))


def small_fixture_graphs() -> dict:
    """Hypergraphs of at most 12 nodes used by estimation-accuracy checks."""
    return {
        "single_edge": graph(single_edge_db()),
        "triangle": graph(triangle_db()),
        "star5": graph(star_db(5)),
        "chain3": graph(chain_db(3)),
        "classroom": graph(classroom_db()),
        "physics": graph(physics_db()),
    }
