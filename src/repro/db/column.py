"""Typed columns for the columnar table store."""

from __future__ import annotations

import enum
from typing import Any, Iterable, List, Sequence


class ColumnType(enum.Enum):
    """Column data types the engine understands.

    ``INT`` and ``FLOAT`` are switch-comparable; ``STR`` values reach the
    switch only as fingerprints (equality) and never for ordering.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"

    @classmethod
    def infer(cls, value: Any) -> "ColumnType":
        """Infer the type of a Python value."""
        if isinstance(value, bool):
            raise TypeError("boolean columns are not part of the benchmark schemas")
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, float):
            return cls.FLOAT
        if isinstance(value, str):
            return cls.STR
        raise TypeError(f"unsupported column value type: {type(value).__name__}")

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising on lossy surprises."""
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"cannot store {value!r} in an INT column")
            return int(value)
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"cannot store {value!r} in a FLOAT column")
            return float(value)
        if not isinstance(value, str):
            raise TypeError(f"cannot store {value!r} in a STR column")
        return value

    def coerce_all(self, values: Iterable[Any]) -> List[Any]:
        """``[self.coerce(v) for v in values]``; a column whose values
        already have exactly this type (the common bulk load) is
        checked with one C-level pass instead of a call per value."""
        values = list(values)
        if set(map(type, values)) <= {_EXACT[self]}:
            return values
        return [self.coerce(v) for v in values]


#: The Python type ``coerce`` maps each column type to (and leaves
#: unchanged).  ``bool`` is its own type, so it never matches INT.
_EXACT = {ColumnType.INT: int, ColumnType.FLOAT: float,
          ColumnType.STR: str}


class Column:
    """A named, typed value vector."""

    def __init__(self, name: str, ctype: ColumnType,
                 values: Iterable[Any] = ()):
        self.name = name
        self.ctype = ctype
        self.values: List[Any] = ctype.coerce_all(values)

    def append(self, value: Any) -> None:
        """Append one coerced value."""
        self.values.append(self.ctype.coerce(value))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __iter__(self):
        return iter(self.values)

    def take(self, indices: Sequence[int]) -> "Column":
        """New column with the rows at ``indices`` (selection pushdown)."""
        picked = Column(self.name, self.ctype)
        picked.values = [self.values[i] for i in indices]
        return picked

    def __repr__(self) -> str:  # pragma: no cover
        return f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"
