"""One schema for the stats zoo: the :class:`StatsDoc` mixin.

Every layer of the stack reports counters through a slots dataclass —
``EngineStats``, ``RouterStats``, ``ClusterStats``, ``ShardStats``
— and before this module each grew its own ad-hoc
serialization (``asdict`` here, a hand-rolled dict there). The mixin
gives them all the same two methods:

* :meth:`StatsDoc.to_doc` — a plain JSON-safe document: dataclass
  fields recursively converted, nested stats dataclasses inlined,
  dict keys stringified (so integer-keyed maps like ``by_shard``
  survive the canonical-JSON wire codec unchanged),
* :meth:`StatsDoc.log_line` — a one-line ``Name key=value ...``
  rendering of the scalar fields, for log output.

``stats`` protocol responses are these documents, uniform across
transports: in-process calls return the dataclass, the wire returns
``to_doc()`` of the same dataclass.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

__all__ = ["StatsDoc"]


def _to_jsonish(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonish(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _to_jsonish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonish(v) for v in value]
    return value


class StatsDoc:
    """Mixin for stats dataclasses: uniform ``to_doc``/``log_line``.

    Declared with empty ``__slots__`` so ``@dataclass(slots=True)``
    subclasses stay dict-free.
    """

    __slots__ = ()

    def to_doc(self) -> dict:
        """This stats object as a plain JSON-safe document (fields
        recursively converted, dict keys stringified)."""
        return _to_jsonish(self)

    def log_line(self) -> str:
        """A one-line ``ClassName key=value ...`` rendering of the
        scalar fields (nested structures elided)."""
        bits = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or isinstance(value, (int, float, str)):
                bits.append(f"{f.name}={value}")
        return " ".join([type(self).__name__, *bits])
