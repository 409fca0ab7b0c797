"""Exact difference calculus on the integers and exterior calculus on graphs.

The package holds what every command shares: the two error types the command line maps to its exit
codes, ``record``, the frozen-record decorator of the library's value types, ``full_str``, which
prints an exact number in full, and ``normalized``, which makes an integral exact value an ``int``.
Each submodule serves the commands that run it (see the README's library layout), so a process
imports only those.
"""

import sys
from operator import attrgetter

__version__ = "0.1.0"


class DomainError(ValueError):
    """Input outside the domain of an operation."""


class ParseError(ValueError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def full_str(value) -> str:
    """str(value), with an integer, or a rational p/q, past the interpreter's int-to-str digit limit printed
    in full: the limit guards the reading of input, and a result is printed whatever its length."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def normalized(value):
    """value as an ``int`` when it is an exact value with denominator 1, such as ``Fraction(4, 2)``; any
    other value, a float included, unchanged."""
    return value.numerator if getattr(value, "denominator", None) == 1 else value


def record(cls):
    """Make ``cls`` a frozen record over its annotated fields, like a frozen standard-library data class.

    Adds ``__init__`` (positional or keyword arguments, the class-level defaults, then
    ``__post_init__``), ``__eq__`` and ``__hash__`` on the exact type and the field values, a
    repr such as ``Trig(kind='sin', a=2)``, and a ``__setattr__`` and ``__delattr__`` that raise
    AttributeError.  The methods are closures over the field names: defining a record costs no
    ``exec``, and no command pays the start-up of the standard data-class module and of ``inspect``.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    key = attrgetter(*names, "__class__")  # the field values and the exact type

    def fill(fields, args, kwargs):
        rest = names[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__qualname__}() takes the arguments ({', '.join(names)}), "
                            f"got {len(args)} positional and {sorted(kwargs)} by keyword")
        for name in rest:
            if name in kwargs:
                fields[name] = kwargs[name]
            elif name in defaults:
                fields[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() is missing the argument {name!r}")

    def __init__(self, *args, **kwargs):
        fields = self.__dict__
        fields.update(zip(names, args))
        if kwargs or len(args) != len(names):
            fill(fields, args, kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
