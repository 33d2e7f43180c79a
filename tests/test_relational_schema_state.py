"""Tests for database schemas and states."""

import pytest

from repro.experiments.corpora import numeric_state
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState, Relation


def test_relation_schema_validation():
    schema = RelationSchema("F", 2)
    assert schema.attributes == ("a0", "a1")
    named = RelationSchema("F", 2, ("father", "son"))
    assert named.attributes == ("father", "son")
    with pytest.raises(ValueError):
        RelationSchema("F", 2, ("only-one",))
    with pytest.raises(ValueError):
        RelationSchema("F", -1)


def test_database_schema_lookup_and_duplicates():
    schema = DatabaseSchema.of(F=2, R=1)
    assert "F" in schema and "R" in schema and "X" not in schema
    assert schema.arity("F") == 2
    assert len(schema) == 2
    with pytest.raises(KeyError):
        schema.relation("X")
    with pytest.raises(ValueError):
        DatabaseSchema((RelationSchema("F", 1), RelationSchema("F", 2)))


def test_schema_extend():
    schema = DatabaseSchema.of(F=2)
    extended = schema.extend([RelationSchema("R", 1)])
    assert "R" in extended and "F" in extended
    assert "R" not in schema


def test_relation_construction_and_set_operations():
    relation = Relation(2, [(1, 2), (2, 3), (1, 2)])
    assert len(relation) == 2
    assert (1, 2) in relation and (9, 9) not in relation
    assert relation.elements() == frozenset({1, 2, 3})
    other = Relation(2, [(2, 3), (4, 5)])
    assert len(relation.union(other)) == 3
    assert len(relation.difference(other)) == 1
    assert len(relation.intersection(other)) == 1
    with pytest.raises(ValueError):
        relation.union(Relation(1, [(1,)]))
    with pytest.raises(ValueError):
        Relation(2, [(1,)])


def test_relation_from_rows():
    relation = Relation.from_rows([(1, 2)])
    assert relation.arity == 2
    with pytest.raises(ValueError):
        Relation.from_rows([])


def test_database_state_construction_and_access():
    schema = DatabaseSchema.of(F=2, R=1)
    state = DatabaseState(schema, {"F": [(1, 2)], "R": [(7,)]})
    assert (1, 2) in state["F"]
    assert state.elements() == frozenset({1, 2, 7})
    assert state.total_rows() == 2
    # missing relations default to empty
    sparse = DatabaseState(schema, {"F": [(1, 2)]})
    assert len(sparse["R"]) == 0
    with pytest.raises(ValueError):
        DatabaseState(schema, {"X": [(1,)]})
    with pytest.raises(ValueError):
        DatabaseState(schema, {"R": [(1, 2)]})
    with pytest.raises(KeyError):
        state["missing"]


def test_database_state_with_relation_and_equality():
    schema = DatabaseSchema.of(R=1)
    state = DatabaseState(schema, {"R": [(1,)]})
    updated = state.with_relation("R", [(1,), (2,)])
    assert state != updated
    assert len(updated["R"]) == 2
    assert hash(state) == hash(DatabaseState(schema, {"R": [(1,)]}))


def test_state_fingerprint_is_stable_and_memoised():
    state = numeric_state([3, 1])
    twin = numeric_state([1, 3])
    other = numeric_state([1, 4])
    # The fingerprint is a full 64-bit XOR of per-row tokens (so Delta
    # application can patch it); __hash__ derives from it, but Python's
    # hash() reduces big ints, so the two are equal only as hash keys.
    assert state.fingerprint() == twin.fingerprint()
    assert hash(state) == hash(twin)
    assert state.fingerprint() != other.fingerprint() or state != other
    assert state.elements() is state.elements()  # memoised frozenset
