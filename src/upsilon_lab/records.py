"""The base of the immutable result records and value classes.

The value classes (semigroups.FormalSemigroup, gapfunctions.GapFunction,
piecewise.PLFunction and braids.BraidWord) keep their own __repr__.
A subclass lists its fields in __slots__, in the order of its __init__
parameters, and sets them there with object.__setattr__.  Record compares,
hashes and prints by the fields named in _compared (all of __slots__ when it
is empty), refuses assignment and deletion, and copies and pickles by
calling __init__ with every field.  IntLaurentPoly and Witnesses are not
Records: each equals values of another class (an int, a tuple of gap
tuples), and Record's == is same-class only.

>>> from upsilon_lab.family import CheckResult
>>> c = CheckResult(True, "x")
>>> c, c == CheckResult(True, "x"), c == (True, "x")
(CheckResult(ok=True, detail='x'), True, False)
>>> c.ok = False
Traceback (most recent call last):
...
AttributeError: cannot assign to field 'ok'
"""


class Record:
    __slots__ = ()

    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = zip(self._compared or self.__slots__, self._key())
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (type(self), tuple(getattr(self, f) for f in self.__slots__))
