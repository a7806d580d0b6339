"""Immutable records over declared fields, without generating code at import."""


class Value:
    """Immutable record over the fields annotated in each subclass's own body.

    A subclass gets a constructor over those fields in annotation order,
    positional or keyword, with a field's class attribute as its default;
    equality and hashing over the field values, or identity when it is
    declared with the class keyword eq=False; and `_fields` and `_asdict`.
    Assigning or deleting an attribute raises AttributeError;
    `functools.cached_property` still works, as it writes the instance dict.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for field in self._fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{name} is missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name} got an unexpected or repeated field {next(iter(kwargs))!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or complete the fields once they are set; nothing here."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple:
        return tuple(self.__dict__[field] for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))
