"""Record classes: values with named fields, built without generated code.

`record` gives a class whose annotations name its fields the methods of
a frozen dataclass:

- ``__init__`` takes every field in order, by position or by keyword;
- ``__eq__`` compares the fields of two instances of the same class,
  and returns NotImplemented for any other operand; ``__hash__`` hashes
  the fields;
- ``__repr__`` is ``Name(field=value, ...)``;
- ``__setattr__`` and ``__delattr__`` raise AttributeError, and pickle
  and copy rebuild an instance from its fields.

`record` rebuilds the class, as ``dataclass(slots=True)`` does, so that
every instance is slotted and has no ``__dict__``: the new class's
``__slots__`` is its fields, then the cache slots its body declares in
``__slots__``, then ``__weakref__``, so that a value can be weakly
referenced.  A body lists only its caches there, never a field.  Each
field is set through its slot's own member descriptor
(``Cls.field.__set__``), which skips the name lookup a generic
``setattr`` makes on every call.  A body that checks its arguments does
so in ``__new__``, which ends with ``object.__new__(cls)``, not ``super()``,
whose ``__class__`` cell names the class before the rebuild; the
generated ``__init__`` then sets the fields, and pickle and copy, which
call the class, check again.

Equality and hashing read the fields through one getter per class,
``operator.attrgetter(*fields)``, or a function that returns ``()`` for
a class with none.  A record's hash is the hash of the getter's value:
of the field itself for one field, and of the tuple of the fields for
none, two or three.  ``==`` compares the two values by identity first,
as a tuple compares its items, so a field both sides share calls no
``__eq__``.

A cache slot named ``_hash`` caches the hash: ``__init__`` sets it to
None and the first ``__hash__``, the one wrapper `_cached`, fills it
with the hash of the getter's value, the value an uncached hash returns.
It starts as None rather than unset because an unset slot raises
AttributeError when read, and catching that on every node's first hash
slows reduction.  Any other cache slot starts unset until the code that
owns it fills it.  A cache takes no part in equality or repr, and pickle
and copy, which rebuild from the fields, drop it.

A method the class body defines is kept, and ``__match_args__`` is the
field list.  ``__init__`` and ``__repr__`` are templates below, for
their number of fields, with the placeholder names ``_0``, ``_1`` and
``_2`` renamed to the field names in a copy of their code object: they
read the fields as attributes, as generated code would, and making the
class compiles nothing.  These two keep a template per field count
because named parameters give keyword construction, the signature and
the TypeError texts, and because a template's f-string is a faster repr
than a format string over the getter; equality and hashing need
neither.  The templates take up to three fields, or two with a
``_hash`` cache; `record` raises TypeError for a class with more.
"""

from operator import attrgetter
from types import FunctionType


def _slot_inits(s0=None, s1=None, s2=None):
    """Initializers that set each field through its slot's setter."""

    def init1(self, _0):
        s0(self, _0)

    def init2(self, _0, _1):
        s0(self, _0)
        s1(self, _1)

    def init3(self, _0, _1, _2):
        s0(self, _0)
        s1(self, _1)
        s2(self, _2)

    return None, init1, init2, init3


def _cached_inits(clear, s0=None, s1=None):
    """`_slot_inits` that also empty the ``_hash`` slot with `clear`."""

    def init1(self, _0):
        s0(self, _0)
        clear(self, None)

    def init2(self, _0, _1):
        s0(self, _0)
        s1(self, _1)
        clear(self, None)

    return None, init1, init2


def _no_fields(self):
    return ()


def _eq(get):
    def eq(self, other):
        if other.__class__ is self.__class__:
            x, y = get(self), get(other)
            return x is y or x == y
        return NotImplemented

    return eq


def _hash(get):
    def hash_(self):
        return hash(get(self))

    return hash_


def _cached(keep, get):
    """A hash that fills the empty ``_hash`` slot with `keep` on first use:
    the hash of what `get` returns, which is read before `hash` recurses
    into the fields, so that a nested value's first hash takes one frame a
    level, as an uncached one does."""

    def cached_hash(self):
        if self._hash is None:
            keep(self, hash(get(self)))
        return self._hash

    return cached_hash


def _reprs(l0, l1=None, l2=None):
    def repr0(self):
        return f"{l0})"

    def repr1(self):
        return f"{l0}{self._0!r})"

    def repr2(self):
        return f"{l0}{self._0!r}{l1}{self._1!r})"

    def repr3(self):
        return f"{l0}{self._0!r}{l1}{self._1!r}{l2}{self._2!r})"

    return repr0, repr1, repr2, repr3


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _by_fields(self):
    return self.__class__, tuple([getattr(self, k) for k in self.__match_args__])


def _renamed(template, fields, name):
    """A copy of template named `name`, its placeholders renamed to fields."""
    names = {f"_{i}": k for i, k in enumerate(fields)}
    code = template.__code__
    code = code.replace(
        co_name=name,
        co_names=tuple([names.get(n, n) for n in code.co_names]),
        co_varnames=tuple([names.get(n, n) for n in code.co_varnames]),
    )
    return FunctionType(code, template.__globals__, name, None, template.__closure__)


def record(cls):
    """A slotted copy of cls with the methods the module docstring lists."""
    fields = tuple(cls.__annotations__)
    caches = cls.__dict__.get("__slots__", ())
    # the text before each field's value: "Name(" and "field=", or ", field="
    labels = [f"{', ' if i else ''}{k}=" for i, k in enumerate(fields)] or [""]
    labels[0] = f"{cls.__qualname__}({labels[0]}"
    n, cached = len(fields), "_hash" in caches
    if n > (2 if cached else 3):
        shape = f"{n} fields" + (" with _hash" if cached else "")
        raise TypeError(f"no record template for {cls.__qualname__}: {shape}")
    # rebuilt, as dataclass(slots=True) does: a class's slots are fixed
    # when it is made
    slots = fields + caches + ("__weakref__",)
    body = {k: v for k, v in vars(cls).items() if k not in (*slots, "__dict__")}
    body["__slots__"], body["__qualname__"] = slots, cls.__qualname__
    cls = type(cls.__name__, cls.__bases__, body)
    setters = [cls.__dict__[k].__set__ for k in fields]
    get = attrgetter(*fields) if fields else _no_fields
    made = {
        "__init__": _slot_inits(*setters)[n],
        "__eq__": _eq(get),
        "__hash__": _hash(get),
        "__repr__": _reprs(*labels)[n],
    }
    if cached:
        keep = cls._hash.__set__
        made["__init__"] = _cached_inits(keep, *setters)[n]
        made["__hash__"] = _cached(keep, get)
    for name, method in made.items():
        # a body's own method is kept; a record with no fields keeps
        # object's __init__
        if method and cls.__dict__.get(name) is None:
            # named for tracebacks and profiles
            method = _renamed(method, fields, name)
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    cls.__reduce__ = _by_fields
    cls.__match_args__ = fields
    return cls
