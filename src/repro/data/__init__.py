"""Column-oriented relations and tables (the functional data layer)."""

from repro.data.relation import ColumnTable, Relation

__all__ = ["ColumnTable", "Relation"]
