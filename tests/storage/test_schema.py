"""Tests for column types and table schemas."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Column, ColumnType, TableSchema


class TestColumnType:
    def test_validate_int(self):
        assert ColumnType.INT.validate(5) == 5

    def test_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(True)

    def test_int_rejects_float(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(1.5)

    def test_float_coerces_int(self):
        assert ColumnType.FLOAT.validate(3) == 3.0
        assert isinstance(ColumnType.FLOAT.validate(3), float)

    def test_text(self):
        assert ColumnType.TEXT.validate("hi") == "hi"
        with pytest.raises(SchemaError):
            ColumnType.TEXT.validate(3)

    def test_bool(self):
        assert ColumnType.BOOL.validate(True) is True
        with pytest.raises(SchemaError):
            ColumnType.BOOL.validate(1)

    def test_none_passes_type_check(self):
        assert ColumnType.INT.validate(None) is None

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("INT", ColumnType.INT),
            ("integer", ColumnType.INT),
            ("VARCHAR", ColumnType.TEXT),
            ("real", ColumnType.FLOAT),
            ("BOOLEAN", ColumnType.BOOL),
        ],
    )
    def test_parse_aliases(self, name, expected):
        assert ColumnType.parse(name) is expected

    def test_parse_unknown(self):
        with pytest.raises(SchemaError):
            ColumnType.parse("BLOB")


class TestColumn:
    def test_nullable_accepts_none(self):
        assert Column("c", ColumnType.INT).validate(None) is None

    def test_not_null_rejects_none(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnType.INT, nullable=False).validate(None)

    def test_primary_key_rejects_none(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnType.INT, primary_key=True).validate(None)


class TestTableSchema:
    def schema(self):
        return TableSchema(
            "t",
            (
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT),
            ),
        )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", ColumnType.INT), Column("a", ColumnType.INT)))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_build_from_pairs(self):
        schema = TableSchema.build("t", [("a", ColumnType.INT), ("b", ColumnType.TEXT)])
        assert schema.column_names() == ["a", "b"]

    def test_column_lookup(self):
        assert self.schema().column("name").type is ColumnType.TEXT
        with pytest.raises(SchemaError):
            self.schema().column("missing")

    def test_primary_key(self):
        assert self.schema().primary_key().name == "id"
        no_pk = TableSchema.build("t", [("a", ColumnType.INT)])
        assert no_pk.primary_key() is None

    def test_validate_row_fills_missing_nullable(self):
        row = self.schema().validate_row({"id": 1})
        assert row == (1, None)  # the stored row: a tuple in column order

    def test_validate_row_rejects_unknown(self):
        with pytest.raises(SchemaError):
            self.schema().validate_row({"id": 1, "bogus": 2})

    def test_validate_row_rejects_missing_pk(self):
        with pytest.raises(SchemaError):
            self.schema().validate_row({"name": "x"})

    def test_describe(self):
        described = self.schema().describe()
        assert described["table"] == "t"
        assert described["columns"][0]["primary_key"] is True
