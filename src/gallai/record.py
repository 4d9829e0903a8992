"""Plain value classes. A record's ``__init__`` sets exactly its fields, in
order, so its instance ``__dict__`` is the record: equality and ``repr``
read it, reports read ``vars(record)``, and pickle copies it. A record
equals only records of its own class. ``dataclasses`` would cost a cold
start more than a short CLI call's work: its import pulls in ``inspect``,
and each class it decorates compiles generated methods.
"""


class Record:
    """A mutable record; unhashable, as it defines ``__eq__`` alone."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record whose ``__init__`` writes ``__dict__``, and nothing else may;
    it hashes as the tuple of its fields."""

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
