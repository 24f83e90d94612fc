"""Columnar table storage.

Tables store columns (not rows) as Spark's memory-optimized format does;
row views are materialised on demand.  Schemas are ordered
``(name, ColumnType)`` pairs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.db.column import Column, ColumnType

Row = Dict[str, Any]


class Table:
    """A named columnar table."""

    def __init__(self, name: str,
                 schema: Sequence[Tuple[str, ColumnType]]):
        if not schema:
            raise ValueError(f"table {name!r} needs at least one column")
        names = [col_name for col_name, _ in schema]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: Dict[str, Column] = {
            col_name: Column(col_name, ctype) for col_name, ctype in schema
        }
        self._order = names

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_rows(cls, name: str, rows: Sequence[Row]) -> "Table":
        """Build a table by inferring the schema from the first row."""
        if not rows:
            raise ValueError("cannot infer a schema from zero rows")
        schema = [(key, ColumnType.infer(value))
                  for key, value in rows[0].items()]
        table = cls(name, schema)
        table.extend(rows)
        return table

    def append(self, row: Row) -> None:
        """Append one row (dict keyed by column name)."""
        missing = set(self._order) - set(row)
        if missing:
            raise KeyError(f"row missing columns: {sorted(missing)}")
        for col_name in self._order:
            self.columns[col_name].append(row[col_name])

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many rows: transposed once and coerced per column.

        A row missing a column raises ``KeyError`` and a value its
        column type rejects ``TypeError``, before any row is stored.
        """
        rows = list(rows)
        required = set(self._order)
        for row in rows:
            if not required <= row.keys():
                raise KeyError(
                    f"row missing columns: {sorted(required - set(row))}")
        columns = [
            self.columns[name].ctype.coerce_all(row[name] for row in rows)
            for name in self._order
        ]
        for name, values in zip(self._order, columns):
            self.columns[name].values.extend(values)

    # -- access ---------------------------------------------------------------
    @property
    def schema(self) -> List[Tuple[str, ColumnType]]:
        """Ordered (name, type) pairs."""
        return [(n, self.columns[n].ctype) for n in self._order]

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return list(self._order)

    def column(self, name: str) -> Column:
        """Column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r} "
                f"(has: {self._order})"
            ) from None

    def __len__(self) -> int:
        return len(self.columns[self._order[0]])

    def row(self, index: int) -> Row:
        """Materialise one row as a dict."""
        return {n: self.columns[n][index] for n in self._order}

    def rows(self) -> Iterator[Row]:
        """Iterate rows as dicts (materialised lazily)."""
        names = self._order
        for values in zip(*[self.columns[n].values for n in names]):
            yield dict(zip(names, values))

    def select_columns(self, names: Sequence[str]) -> "Table":
        """Projection: new table with only ``names`` (metadata stream).

        This is the "relevant columns" step of late materialization —
        what CWorkers actually put on the wire.
        """
        projected = Table(self.name, [(n, self.columns[n].ctype)
                                      for n in names])
        for n in names:
            projected.columns[n] = self.column(n)
        return projected

    def take(self, indices: Sequence[int]) -> "Table":
        """Selection: new table with the rows at ``indices``."""
        picked = Table(self.name, self.schema)
        for n in self._order:
            picked.columns[n] = self.columns[n].take(indices)
        return picked

    def partition(self, parts: int) -> List["Table"]:
        """Split into ``parts`` contiguous partitions (one per worker)."""
        if parts < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        n = len(self)
        bounds = [round(i * n / parts) for i in range(parts + 1)]
        return [self.take(range(bounds[i], bounds[i + 1]))
                for i in range(parts)]

    def estimated_row_bytes(self) -> int:
        """Rough serialized row width (Fig. 5 data-volume accounting):
        8 bytes per numeric column, average length per string column."""
        total = 0
        for n in self._order:
            col = self.columns[n]
            if col.ctype is ColumnType.STR:
                if len(col):
                    total += max(1, sum(len(v) for v in col.values) // len(col))
                else:
                    total += 8
            else:
                total += 8
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"Table({self.name!r}, rows={len(self)}, cols={self._order})"
