"""Serialisable client-side pagination cursors (Section 4.1).

PIQL implements ``PAGINATE`` with client-side cursors that can be serialised
and shipped to the user together with a page of results; any application
server can later deserialise the cursor and resume execution, preserving the
stateless application tier.  The state is tiny: the last key returned by
each uncompleted index scan of the query.  A cursor is bound to the query,
its plan and the parameter values its predicates read on the page that
issued it: resuming under other values would continue another result set
from this one's position.  The page size is not bound; each page chooses
its own.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..errors import CursorError


@dataclass
class PaginationCursor:
    """Resumption state of a paginated query."""

    query_fingerprint: str
    positions: Dict[str, bytes] = field(default_factory=dict)
    exhausted: bool = False

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """Encode the cursor as an opaque URL-safe string."""
        payload = {
            "fingerprint": self.query_fingerprint,
            "positions": {k: v.hex() for k, v in self.positions.items()},
            "exhausted": self.exhausted,
        }
        raw = json.dumps(payload, sort_keys=True).encode("utf-8")
        return base64.urlsafe_b64encode(raw).decode("ascii")

    @classmethod
    def deserialize(cls, token: str) -> "PaginationCursor":
        """Decode a cursor previously produced by :meth:`serialize`."""
        try:
            raw = base64.urlsafe_b64decode(token.encode("ascii"))
            payload = json.loads(raw.decode("utf-8"))
            positions = {
                k: bytes.fromhex(v) for k, v in payload["positions"].items()
            }
            return cls(
                query_fingerprint=payload["fingerprint"],
                positions=positions,
                exhausted=bool(payload["exhausted"]),
            )
        except (ValueError, KeyError, TypeError) as error:
            raise CursorError(f"invalid pagination cursor: {error}") from error

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_matches(self, fingerprint: str) -> None:
        """Ensure the cursor belongs to the query it is being used with."""
        if self.query_fingerprint != fingerprint:
            raise CursorError(
                "pagination cursor was created by a different query or "
                "under other parameter values"
            )


def query_fingerprint(
    sql: str, plan_description: str, values: Mapping[str, Any]
) -> str:
    """A stable fingerprint binding a cursor to one compiled query and the
    parameter values its predicates read (``values``, chosen by
    :meth:`~repro.execution.executor.QueryExecutor.execute`)."""
    digest = hashlib.sha256()
    for part in (sql, plan_description, repr(sorted(values.items()))):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def maybe_deserialize(cursor: Optional[object]) -> Optional[PaginationCursor]:
    """Accept a cursor object, a serialised token, or ``None``."""
    if cursor is None:
        return None
    if isinstance(cursor, PaginationCursor):
        return cursor
    if isinstance(cursor, str):
        return PaginationCursor.deserialize(cursor)
    raise CursorError(f"unsupported cursor value: {cursor!r}")
