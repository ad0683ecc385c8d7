import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datasets
from prism.relational import (
    DatabaseParseError,
    GroundAtom,
    RelationalDatabase,
    build_hypergraph,
    hypergraph_to_atoms,
    parse_database,
    serialize_database,
)


def test_parse_two_atoms():
    db = parse_database("Teaches(P1,P3)\nReads(P3,B1)")
    assert db.n_atoms == 2
    assert db.predicate_arities == {"Teaches": 2, "Reads": 2}


def test_parse_arity_mismatch_reports_line_and_predicate():
    with pytest.raises(DatabaseParseError) as err:
        parse_database("Teaches(P1,P3)\nTeaches(P1)")
    assert err.value.line == 2
    assert "Teaches" in str(err.value)


def test_parse_empty_input():
    db = parse_database("")
    assert db.n_atoms == 0
    assert db.predicate_arities == {}


def test_parse_skips_comments_and_blanks():
    db = parse_database("// header\n\nKnows(a,b) // trailing\n")
    assert db.n_atoms == 1
    assert db.atoms[0] == GroundAtom("Knows", ("a", "b"))


def test_parse_syntax_error_has_line_number():
    with pytest.raises(DatabaseParseError) as err:
        parse_database("Knows(a,b)\nnot an atom")
    assert err.value.line == 2


def test_parse_rejects_empty_constant():
    with pytest.raises(DatabaseParseError):
        parse_database("Knows(a,)")


@pytest.mark.parametrize("constant", ["http://x", "//", "a///b"])
def test_atom_refuses_a_constant_that_would_read_as_a_comment(constant):
    with pytest.raises(ValueError, match="invalid constant"):
        GroundAtom("Link", (constant, "y"))
    # single slashes and the rest of the punctuation round-trip
    db = RelationalDatabase.from_atoms([GroundAtom("Link", ("http:/x/", "-.:y"))])
    assert parse_database(serialize_database(db)).atoms == db.atoms


def test_duplicate_atoms_collapse():
    db = parse_database("Knows(a,b)\nKnows(a,b)")
    assert db.n_atoms == 1


def test_case_sensitivity():
    db = parse_database("Knows(a,b)\nKnows(A,b)\nknows(a,b)")
    assert db.n_atoms == 3
    assert set(db.predicate_arities) == {"Knows", "knows"}


def test_build_classroom_hypergraph(classroom):
    assert classroom.n_nodes == 9
    assert set(classroom.label_names) == {"Teaches", "Reads"}
    assert classroom.n_labels == 2
    assert classroom.n_edges == 20


def test_build_self_atom_dedups_within_edge():
    h = build_hypergraph(parse_database("R(a,a)"))
    assert h.n_nodes == 1
    assert h.n_edges == 1
    assert h.edges[0][1] == (0,)


def test_build_is_bijection_on_atoms():
    db = parse_database("R(a,b)\nR(b,a)\nS(a,b)")
    h = build_hypergraph(db)
    assert h.n_edges == db.n_atoms == 3


def test_round_trip_through_hypergraph():
    text = "Teaches(P1,P3)\nReads(P3,B1)\nReads(P3,B2)\nSolo(B9)\n"
    db = parse_database(text)
    back = RelationalDatabase.from_atoms(hypergraph_to_atoms(build_hypergraph(db)))
    assert serialize_database(back) == serialize_database(db)


def test_serialize_is_sorted_deterministic():
    a = parse_database("B(x)\nA(y)\nA(x)\n")
    assert serialize_database(a) == "A(x)\nA(y)\nB(x)\n"


_names = st.text(alphabet="abcXYZ_019", min_size=1, max_size=4).filter(
    lambda s: not s[0].isdigit()
)
# constants take any character but whitespace, parentheses and commas;
# "//" would start a comment, and GroundAtom refuses it
_constants = st.text(alphabet="abcXYZ_019/-.:", min_size=1, max_size=4).filter(
    lambda s: "//" not in s
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_names, st.lists(_constants, min_size=1, max_size=3, unique=True)),
        min_size=0,
        max_size=12,
    )
)
def test_round_trip_random_databases(raw):
    # one arity per predicate; unique constants per atom so the hyperedge is lossless
    arities = {}
    atoms = []
    for pred, consts in raw:
        arity = arities.setdefault(pred, len(consts))
        if len(consts) == arity:
            atoms.append(GroundAtom(pred, tuple(consts)))
    db = RelationalDatabase.from_atoms(atoms)
    reparsed = parse_database(serialize_database(db))
    assert serialize_database(reparsed) == serialize_database(db)
    back = RelationalDatabase.from_atoms(hypergraph_to_atoms(build_hypergraph(db)))
    assert serialize_database(back) == serialize_database(db)


def test_datasets_parse_cleanly():
    for text in (
        datasets.classroom_db(),
        datasets.two_departments_db(),
        datasets.department_variant_db(),
    ):
        db = parse_database(text)
        assert db.n_atoms > 0
