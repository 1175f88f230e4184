"""Reference record table: a key-ordered list of dict records.

Written from the definitions, not from ``repro.indexes.soa``:

* records are plain dicts, kept in primary-key order; a record's row is
  its rank in that order;
* record ``row`` lives at ``data_base + stride * row``: each record
  takes 16 bytes per column, rounded up to a whole 64-byte block, and
  the records sit back to back from ``data_base``;
* ``select_range(lo, hi)`` yields the records with ``lo <= key <= hi``,
  ``where`` the records a predicate accepts, ``scan`` every record, and
  ``join`` pairs each record with the other table's record whose key is
  this record's ``column`` value, skipping records with no match — all
  in key order. A key the table does not hold has no record and no
  address.
"""

from __future__ import annotations

from repro.params import BLOCK_SIZE


class ReferenceTable:
    def __init__(self, columns, key_column, records, data_base):
        self.key_column = key_column
        self.records = sorted((dict(r) for r in records),
                              key=lambda r: r[key_column])
        self.stride = -(-16 * len(columns) // BLOCK_SIZE) * BLOCK_SIZE
        self.data_base = data_base
        self.rows = {r[key_column]: row for row, r in enumerate(self.records)}

    def get(self, key):
        row = self.rows.get(key)
        return None if row is None else dict(self.records[row])

    def record_address(self, key):
        row = self.rows.get(key)
        return None if row is None else self.data_base + self.stride * row

    def select_range(self, lo, hi):
        return [r for r in self.records if lo <= r[self.key_column] <= hi]

    def where(self, predicate):
        return [r for r in self.records if predicate(r)]

    def scan(self):
        return list(self.records)

    def join(self, other, column):
        pairs = []
        for record in self.records:
            matched = other.get(record[column])
            if matched is not None:
                pairs.append((record, matched))
        return pairs
