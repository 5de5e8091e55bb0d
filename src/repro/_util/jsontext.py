"""Compact, key-sorted JSON text, assembled from pre-encoded members.

The checkpoint sidecar is ``json.dumps(state, sort_keys=True,
separators=(",", ":"))``. Most of that state is unchanged from one
save to the next, so its owners cache the encoded bytes of the large,
append-only parts and splice them in with :func:`object_parts` instead
of re-encoding them — the output is the same bytes either way. The
text is ASCII (``ensure_ascii``), so str and UTF-8 bytes agree
character for byte.
"""

from __future__ import annotations

import json

#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
#: one shared encoder instead of a new one per call.
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def object_parts(fields: dict, encoded: dict[str, list[bytes]],
                 ) -> list[bytes]:
    """Byte fragments whose concatenation is :func:`encode` of the
    object holding ``fields`` plus the members of ``encoded``, whose
    values are *already* JSON, as fragment lists — each is spliced in
    verbatim at its sorted-key position, never copied into an
    intermediate string."""
    parts = [b"{"]
    for key in sorted({**fields, **encoded}):
        if len(parts) > 1:
            parts.append(b",")
        parts.append(f"{encode(key)}:".encode())
        if key in encoded:
            parts += encoded[key]
        else:
            parts.append(encode(fields[key]).encode())
    parts.append(b"}")
    return parts
