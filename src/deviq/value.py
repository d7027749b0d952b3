"""The base of deviq's immutable value classes.

A subclass lists its fields in `_fields`, in constructor order, and sets
them in its own `__init__` with `object.__setattr__`.  From that tuple the
class gets

  * equality between instances of the same class whose fields are equal,
    unless the class defines `__eq__` (and then `__hash__`: Python sets the
    hash of a class whose body defines `__eq__` alone to None);
  * the hash of the field tuple, so sets and dicts order values as they
    would order the tuples (a class that keeps its hash keeps that one);
  * the repr `Name(field=value, ...)`, unless it defines its own;
  * immutability: assigning or deleting an attribute raises AttributeError;
  * copies and pickles made anew by the constructor from the fields, so a
    class whose constructor does not take exactly its fields (`Lagrangian`,
    whose order is derived) defines its own `__reduce__`.

`expr.Sym`, `expr.Fun` and `expr.Pow` keep one object per class and key
in process-wide tables, never cleared, that grow with every distinct atom
a process makes: an atom equals only itself, hashes by identity, and its
copies and pickles return that object.  A normal form copies as one.

Attributes that are not fields (a cached expansion, a compiled system, a
spec's memo of decoded coordinate names, a `functools.cached_property`,
such as a generated loop) take no part in equality, hashing or repr, and
are not copied or pickled: the copy builds its own.
"""

from operator import attrgetter

__all__ = ["Value"]


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        # values are compared and hashed hundreds of thousands of times in
        # one derivation, so each class gets closures over one C field
        # getter rather than a loop over `_fields`; a class may define its
        # own `__eq__` and `__hash__`
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            eq, hash_ = _comparisons(cls._fields)
            if "__eq__" not in cls.__dict__:
                cls.__eq__ = eq
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = hash_

    def __reduce__(self):
        # the slots and the frozen `__setattr__` refuse a state set after
        # construction, a kept hash holds only in one process, and a
        # generated function does not pickle
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _comparisons(fields: tuple):
    """`__eq__` and `__hash__` over the tuple of `fields`."""
    get = attrgetter(*fields)
    if len(fields) == 1:
        # one name makes attrgetter return the value, not a 1-tuple

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

    else:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

    return __eq__, __hash__
