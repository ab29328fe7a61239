"""Base classes of the package's result records, which are dataclasses.

A dataclass generates its __repr__ and __eq__, and a frozen one its
__hash__, as fresh code for every class: about 3.6 KB a class when the
package is imported.  The records declare `repr=False, eq=False` and take
these field-wise methods, written once, from `Record` or `FrozenRecord`;
they behave as the generated ones (fields with repr=False or compare=False
are left out the same way).
"""

from __future__ import annotations

from dataclasses import fields


def _compared(rec) -> tuple:
    return tuple(getattr(rec, f.name) for f in fields(rec) if f.compare)


class Record:
    __slots__ = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    __hash__ = None  # mutable: unhashable, as a dataclass with eq is


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(_compared(self))
